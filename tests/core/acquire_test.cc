// Copyright (c) dimmunix-cpp authors. MIT license.
//
// The acquisition port's rollback contract: a granted-but-abandoned
// AcquireOp is rolled back by its destructor, Cancel() retracts shared-mode
// allow edges, and the whole protocol behaves identically on the
// single-stripe degenerate engine (DIMMUNIX_STRIPES=1).

#include "src/core/acquire.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/core/runtime.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

Config QuietConfig() {
  Config config;
  config.start_monitor = false;
  return config;
}

TEST(AcquireOpTest, DestructorRollsBackAbandonedGrant) {
  Runtime rt(QuietConfig());
  ScopedFrame scope(FrameFromName("acquire::abandoned"));
  constexpr LockId kLock = 0x51;

  // A granted op abandoned without Commit/Cancel asserts in debug builds
  // (the adapter is buggy); in release builds it must roll the allow edge
  // back so the engine cannot leak a phantom waiter.
#ifdef NDEBUG
  {
    AcquireOp op = rt.TryBeginAcquire(kLock, AcquireMode::kExclusive);
    ASSERT_TRUE(op.Granted());
    EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 1u);
  }
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 0u)
      << "destructor must retract the abandoned allow edge";
  EXPECT_EQ(rt.engine().stats().trylock_cancels.load(), 1u);
#else
  EXPECT_DEATH(
      {
        AcquireOp op = rt.TryBeginAcquire(kLock, AcquireMode::kExclusive);
        (void)op;
      },
      "Commit");
#endif
}

TEST(AcquireOpTest, MoveTransfersTheSettleObligation) {
  Runtime rt(QuietConfig());
  ScopedFrame scope(FrameFromName("acquire::moved"));
  constexpr LockId kLock = 0x52;

  AcquireOp op = rt.TryBeginAcquire(kLock, AcquireMode::kExclusive);
  ASSERT_TRUE(op.Granted());
  AcquireOp moved = std::move(op);
  // The moved-from handle is settled; destroying it must not roll back.
  moved.Commit();
  EXPECT_EQ(rt.engine().LockOwner(kLock), moved.thread());
  rt.EndRelease(kLock);
}

TEST(AcquireOpTest, CancelRetractsSharedAllowEdge) {
  Runtime rt(QuietConfig());
  ScopedFrame scope(FrameFromName("acquire::shared_cancel"));
  constexpr LockId kLock = 0x53;

  AcquireOp op = rt.BeginAcquire(kLock, AcquireMode::kShared);
  ASSERT_TRUE(op.Granted());
  EXPECT_EQ(op.mode(), AcquireMode::kShared);
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 1u);
  op.Cancel();  // tryrdlock-style contention rollback
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 0u);
  EXPECT_EQ(rt.engine().SharedHolderCount(kLock), 0u);
  EXPECT_EQ(rt.engine().stats().trylock_cancels.load(), 1u);
}

TEST(AcquireOpTest, SharedCommitJoinsTheHolderSet) {
  Runtime rt(QuietConfig());
  ScopedFrame scope(FrameFromName("acquire::shared_commit"));
  constexpr LockId kLock = 0x54;

  AcquireOp op = rt.BeginAcquire(kLock, AcquireMode::kShared);
  ASSERT_TRUE(op.Granted());
  op.Commit();
  EXPECT_EQ(rt.engine().SharedHolderCount(kLock), 1u);
  EXPECT_EQ(rt.engine().LockOwner(kLock), kInvalidThreadId) << "shared hold, no exclusive owner";

  std::thread other([&] {
    ScopedFrame other_scope(FrameFromName("acquire::shared_commit_other"));
    AcquireOp other_op = rt.BeginAcquire(kLock, AcquireMode::kShared);
    ASSERT_TRUE(other_op.Granted());
    other_op.Commit();
    EXPECT_EQ(rt.engine().SharedHolderCount(kLock), 2u);
    rt.EndRelease(kLock);
  });
  other.join();
  EXPECT_EQ(rt.engine().SharedHolderCount(kLock), 1u);
  rt.EndRelease(kLock);
  EXPECT_EQ(rt.engine().SharedHolderCount(kLock), 0u);
}

TEST(AcquireOpTest, UpgradeCommitKeepsOneTupleForTheHold) {
  Runtime rt(QuietConfig());
  ScopedFrame scope(FrameFromName("acquire::upgrade"));
  constexpr LockId kLock = 0x55;

  AcquireOp shared = rt.BeginAcquire(kLock, AcquireMode::kShared);
  ASSERT_TRUE(shared.Granted());
  shared.Commit();
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 1u) << "the request tuple stands for the hold";

  // Same thread, same stack: the upgrade's exclusive request tuple sits in
  // the shared hold's slot until the commit retires it.
  AcquireOp upgrade = rt.BeginAcquire(kLock, AcquireMode::kExclusive);
  ASSERT_EQ(upgrade.Decision(), RequestDecision::kGo);
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 2u);
  upgrade.Commit();
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 1u);
  EXPECT_EQ(rt.engine().LockOwner(kLock), upgrade.thread());

  rt.EndRelease(kLock);
  rt.EndRelease(kLock);
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 0u);
}

TEST(AcquireOpTest, CommitAfterRefusalStillRecordsTheHold) {
  Runtime rt(QuietConfig());
  static const Frame f1 = FrameFromName("acquire::refused_path1");
  static const Frame f2 = FrameFromName("acquire::refused_path2");
  constexpr LockId kLockA = 0x56;
  constexpr LockId kLockB = 0x57;
  const StackId s1 = rt.stacks().Intern({f1});
  const StackId s2 = rt.stacks().Intern({f2});
  bool added = false;
  rt.history().Add(SignatureKind::kDeadlock, {s1, s2}, /*match_depth=*/4, &added);
  ASSERT_TRUE(added);
  rt.engine().NotifyHistoryChanged();

  {
    ScopedFrame scope(f1);
    AcquireOp op = rt.BeginAcquire(kLockA, AcquireMode::kExclusive);
    ASSERT_TRUE(op.Granted());
    op.Commit();
  }
  std::thread t2([&] {
    ScopedFrame scope(f2);
    AcquireOp op = rt.TryBeginAcquire(kLockB, AcquireMode::kExclusive);
    ASSERT_EQ(op.Decision(), RequestDecision::kBusy);
    EXPECT_EQ(rt.engine().AllowedCount(s2), 0u) << "the refusal retired the request tuple";
    // An uncancellable adapter (a failed flock conversion keeps the old
    // kernel lock) commits anyway: the hold must still enter the Allowed set.
    op.Commit();
    EXPECT_EQ(rt.engine().AllowedCount(s2), 1u);
    rt.EndRelease(kLockB);
    EXPECT_EQ(rt.engine().AllowedCount(s2), 0u);
  });
  t2.join();
  rt.EndRelease(kLockA);
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 0u);
}

// --- DIMMUNIX_STRIPES=1: the degenerate single-stripe engine ----------------

TEST(DegenerateStripingTest, SingleStripeEngineStillAvoids) {
  Config config = QuietConfig();
  config.engine_stripes = 1;
  Runtime rt(config);
  ASSERT_EQ(rt.engine().stripe_count(), 1u);

  static const Frame f1 = FrameFromName("stripes1::path1");
  static const Frame f2 = FrameFromName("stripes1::path2");
  constexpr LockId kLockA = 0xA;
  constexpr LockId kLockB = 0xB;

  // Seed the AB-BA signature exactly as the monitor would archive it.
  const StackId s1 = rt.stacks().Intern({f1});
  const StackId s2 = rt.stacks().Intern({f2});
  bool added = false;
  rt.history().Add(SignatureKind::kDeadlock, {s1, s2}, /*match_depth=*/4, &added);
  ASSERT_TRUE(added);
  rt.engine().NotifyHistoryChanged();

  // Thread 1 holds A on path 1.
  {
    ScopedFrame scope(f1);
    AcquireOp op = rt.BeginAcquire(kLockA, AcquireMode::kExclusive);
    ASSERT_TRUE(op.Granted());
    op.Commit();
  }
  // A second thread on path 2 would complete the instantiation: the
  // nonblocking port must refuse, exactly like the striped engine.
  std::thread t2([&] {
    ScopedFrame scope(f2);
    AcquireOp op = rt.TryBeginAcquire(kLockB, AcquireMode::kExclusive);
    EXPECT_EQ(op.Decision(), RequestDecision::kBusy);
  });
  t2.join();
  EXPECT_EQ(rt.engine().stats().yields.load(), 1u);

  // After the holder releases, the same acquisition is safe.
  rt.EndRelease(kLockA);
  std::thread t3([&] {
    ScopedFrame scope(f2);
    AcquireOp op = rt.TryBeginAcquire(kLockB, AcquireMode::kExclusive);
    EXPECT_TRUE(op.Granted());
    op.Cancel();
  });
  t3.join();
}

TEST(DegenerateStripingTest, SingleStripeSnapshotIsConsistent) {
  Config config = QuietConfig();
  config.engine_stripes = 1;
  Runtime rt(config);
  ScopedFrame scope(FrameFromName("stripes1::snapshot"));

  AcquireOp op = rt.BeginAcquire(0xC1, AcquireMode::kExclusive);
  ASSERT_TRUE(op.Granted());
  op.Commit();
  const EngineView view = rt.engine().Snapshot();
  EXPECT_EQ(view.stripes, 1u);
  EXPECT_EQ(view.tracked_locks, 1u);
  EXPECT_EQ(view.allowed_tuples, 1u);
  rt.EndRelease(0xC1);
}

}  // namespace
}  // namespace dimmunix
