// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Stack identity stays bit-identical across its fast paths:
//  - annotated: the rolling-hash lookup (StackTable::InternAnnotated) yields
//    the StackId that interning the whole capture (Intern(CaptureStack()))
//    yields, for random push/pop sequences, stacks deeper than the capture
//    cap, two tables on one thread, and a global lock's process frame — and
//    the engine's requests use exactly that id;
//  - native: NativeFrame (_dl_find_object plus cached module-name hashes)
//    equals the dladdr formula for every return address of a capture
//    through the main executable, libstdc++ and libc, and through a module
//    that is dlopened, dlclosed and replaced by another at run time.

#include <dlfcn.h>
#include <execinfo.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>

#include "src/common/hash.h"
#include "src/core/global_port.h"
#include "src/core/runtime.h"
#include "src/stack/annotation.h"
#include "src/stack/capture.h"
#include "src/stack/stack_table.h"

namespace dimmunix {
namespace {

// The reference id: the whole capture, with a global lock's process frame
// in front, interned.
StackId WholeCaptureId(StackTable& table, Frame proc) {
  std::vector<Frame> frames = CaptureStack();
  if (proc != kInvalidFrame) {
    frames.insert(frames.begin(), proc);
  }
  return table.Intern(frames);
}

TEST(AnnotatedIdentityTest, RandomPushPopAgreesWithWholeCaptureIntern) {
  std::mt19937 rng(20240611);
  StackTable first(8);
  StackTable second(8);
  // Give the second table different ids for the same stacks.
  for (int i = 0; i < 50; ++i) {
    second.Intern({FrameFromName("identity::filler" + std::to_string(i))});
  }
  std::vector<Frame> alphabet;
  for (int i = 0; i < 12; ++i) {
    alphabet.push_back(FrameFromName("identity::f" + std::to_string(i)));
  }
  const Frame proc = FrameFromName("identity::proc");
  constexpr std::size_t kMaxDepth = kMaxCapturedFrames + 8;

  std::size_t depth = 0;
  struct PopRemaining {  // leaves the thread's stack empty even if an ASSERT fails
    std::size_t& depth;
    ~PopRemaining() {
      for (; depth > 0; --depth) {
        PopAnnotatedFrame();
      }
    }
  } pop_remaining{depth};
  int deep_checks = 0;
  for (int step = 0; step < 4000; ++step) {
    // Drift toward the cap and past it, then back.
    const bool push = depth == 0 || (depth < kMaxDepth && rng() % 100 < 55);
    if (push) {
      PushAnnotatedFrame(alphabet[rng() % alphabet.size()]);
      ++depth;
    } else {
      PopAnnotatedFrame();
      --depth;
    }
    if (depth == 0) {
      continue;
    }
    const AnnotatedStack annotated = ThreadAnnotatedStack();
    ASSERT_EQ(annotated.depth, depth);
    if (depth <= static_cast<std::size_t>(kMaxCapturedFrames)) {
      EXPECT_EQ(annotated.hash, StackTable::IndexHash(CaptureStack()));
    }
    for (StackTable* table : {&first, &second}) {
      for (const Frame innermost : {kInvalidFrame, proc}) {
        // Either path may be the one that creates the entry.
        StackId fast = kInvalidStackId;
        StackId whole = kInvalidStackId;
        if (rng() % 2 == 0) {
          fast = table->InternAnnotated(annotated, innermost);
          whole = WholeCaptureId(*table, innermost);
        } else {
          whole = WholeCaptureId(*table, innermost);
          fast = table->InternAnnotated(annotated, innermost);
        }
        if (depth <= static_cast<std::size_t>(kMaxCapturedFrames)) {
          ASSERT_EQ(fast, whole) << "depth " << depth << " step " << step;
        } else {
          ASSERT_EQ(fast, kInvalidStackId) << "over-deep stacks take the whole capture";
          ++deep_checks;
        }
      }
    }
  }
  EXPECT_GT(deep_checks, 0) << "the walk never went past the capture cap";
}

TEST(AnnotatedIdentityTest, EmptyAnnotationStackDeclines) {
  StackTable table(8);
  ASSERT_TRUE(ThreadAnnotationStack().empty());
  EXPECT_EQ(table.InternAnnotated(ThreadAnnotatedStack(), kInvalidFrame), kInvalidStackId);
  EXPECT_EQ(table.size(), 0u);
}

// Records the stack the engine publishes for a global lock's wait edge.
class RecordingPublisher : public GlobalEdgePublisher {
 public:
  Frame ProcFrame() const override { return FrameFromName("identity::publisher_proc"); }
  void PublishWait(ThreadId, LockId, StackId stack, AcquireMode) override { wait_stack = stack; }
  void ClearWait(ThreadId, LockId) override {}
  void PublishHold(ThreadId, LockId, StackId, AcquireMode) override {}
  void ClearHold(ThreadId, LockId) override {}

  StackId wait_stack = kInvalidStackId;
};

TEST(AnnotatedIdentityTest, EngineRequestsUseTheWholeCaptureId) {
  Config config;
  config.start_monitor = false;
  Runtime rt(config);
  RecordingPublisher publisher;
  rt.engine().SetGlobalPublisher(&publisher);
  constexpr LockId kLocal = 0x77;
  constexpr LockId kGlobal = kGlobalLockBit | 0x78;

  for (const int depth : {1, 2, 7, kMaxCapturedFrames, kMaxCapturedFrames + 1, 45}) {
    std::vector<std::unique_ptr<ScopedFrame>> frames;
    for (int i = 0; i < depth; ++i) {
      frames.push_back(std::make_unique<ScopedFrame>(
          FrameFromName("identity::engine" + std::to_string(i % 9))));
    }
    {
      AcquireOp op = rt.BeginAcquire(kLocal, AcquireMode::kExclusive);
      ASSERT_TRUE(op.Granted());
      op.Commit();
      EXPECT_EQ(rt.engine().AllowedCount(WholeCaptureId(rt.stacks(), kInvalidFrame)), 1u)
          << "depth " << depth;
      rt.EndRelease(kLocal);
    }
    {
      publisher.wait_stack = kInvalidStackId;
      AcquireOp op = rt.BeginAcquire(kGlobal, AcquireMode::kShared);
      ASSERT_TRUE(op.Granted());
      EXPECT_EQ(publisher.wait_stack, WholeCaptureId(rt.stacks(), publisher.ProcFrame()))
          << "depth " << depth;
      op.Commit();
      rt.EndRelease(kGlobal);
    }
  }
  rt.engine().SetGlobalPublisher(nullptr);
  EXPECT_EQ(rt.engine().Snapshot().allowed_tuples, 0u);
}

// --- native frames ----------------------------------------------------------

// The frame formula of the per-frame dladdr resolver.
Frame DladdrFrame(const void* addr) {
  Dl_info info{};
  std::uint64_t module_hash = 0;
  std::uint64_t offset = reinterpret_cast<std::uint64_t>(addr);
  if (dladdr(addr, &info) != 0 && info.dli_fbase != nullptr) {
    offset -= reinterpret_cast<std::uint64_t>(info.dli_fbase);
    if (info.dli_fname != nullptr) {
      module_hash = Fnv1a64(info.dli_fname, std::strlen(info.dli_fname));
    }
  }
  return FrameFromModuleOffset(module_hash, offset);
}

std::string ModuleOf(const void* addr) {
  Dl_info info{};
  return dladdr(addr, &info) != 0 && info.dli_fname != nullptr ? info.dli_fname : "";
}

struct NativeCapture {
  std::vector<void*> addrs;   // backtrace() from CaptureBoth, innermost first
  std::vector<Frame> frames;  // CaptureNativeStack from the same function
  const void* caller = nullptr;  // CaptureBoth's return address
};

__attribute__((noinline)) void CaptureBoth(NativeCapture* out) {
  void* addrs[64];
  const int n = backtrace(addrs, 64);
  out->frames = CaptureNativeStack(1);
  out->addrs.assign(addrs, addrs + n);
  out->caller = __builtin_return_address(0);
  asm volatile("" ::: "memory");  // no tail call: keep this frame on the stack
}

// Every return address resolves as dladdr would, and the capture agrees
// with it frame by frame from CaptureBoth's caller outward. (The frames
// inside CaptureBoth differ, and a sanitizer's backtrace interceptor adds
// one more.)
void ExpectMatchesDladdr(const NativeCapture& capture) {
  for (const void* addr : capture.addrs) {
    EXPECT_EQ(NativeFrame(addr), DladdrFrame(addr)) << ModuleOf(addr);
    EXPECT_EQ(NativeFrame(addr), DladdrFrame(addr)) << "cached: " << ModuleOf(addr);
  }
  const auto outer = std::find(capture.addrs.begin(), capture.addrs.end(), capture.caller);
  ASSERT_NE(outer, capture.addrs.end());
  const std::size_t n = static_cast<std::size_t>(capture.addrs.end() - outer);
  ASSERT_LT(n, capture.frames.size()) << "the capture lost outer frames";
  ASSERT_LT(capture.frames.size(), static_cast<std::size_t>(kMaxCapturedFrames))
      << "a truncated capture does not line up with backtrace()";
  const std::size_t skew = capture.frames.size() - n;
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(capture.frames[skew + k], DladdrFrame(outer[k]))
        << "outer frame " << k << " in " << ModuleOf(outer[k]);
  }
}

TEST(NativeIdentityTest, MatchesDladdrThroughExecutableLibstdcxxAndLibc) {
  NativeCapture capture;
  // A std::thread puts libstdc++'s thread trampoline and libc's
  // start_thread on the stack.
  std::thread([&capture] {
    CaptureBoth(&capture);
    CaptureBoth(&capture);  // a second capture runs on a warm module cache
  }).join();
  ExpectMatchesDladdr(capture);

  std::set<std::string> modules;
  for (const void* addr : capture.addrs) {
    modules.insert(ModuleOf(addr));
  }
  const std::string executable = ModuleOf(reinterpret_cast<const void*>(&CaptureBoth));
  EXPECT_EQ(modules.count(executable), 1u) << "no main-executable frame";
  const auto has = [&modules](const char* needle) {
    for (const std::string& m : modules) {
      if (m.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("libstdc++")) << "no libstdc++ frame";
  EXPECT_TRUE(has("libc.so")) << "no libc frame";

  NativeCapture main_thread;
  CaptureBoth(&main_thread);
  ExpectMatchesDladdr(main_thread);
}

int CaptureInCallback(void* arg) {
  CaptureBoth(static_cast<NativeCapture*>(arg));
  return 0;
}

// Loads `path`, captures through its function, checks the frames, unloads
// it. Returns the frame of the module's own return address.
Frame CaptureThroughModule(const char* path) {
  void* handle = dlopen(path, RTLD_NOW | RTLD_LOCAL);
  EXPECT_NE(handle, nullptr) << dlerror();
  if (handle == nullptr) {
    return kInvalidFrame;
  }
  using Call = int (*)(int (*)(void*), void*);
  const auto call = reinterpret_cast<Call>(dlsym(handle, "dimmunix_test_module_call"));
  EXPECT_NE(call, nullptr);
  NativeCapture capture;
  if (call != nullptr) {
    call(&CaptureInCallback, &capture);
  }
  ExpectMatchesDladdr(capture);
  Frame module_frame = kInvalidFrame;
  for (const void* addr : capture.addrs) {
    if (ModuleOf(addr) == path) {
      module_frame = NativeFrame(addr);
    }
  }
  EXPECT_NE(module_frame, kInvalidFrame) << "no frame inside " << path;
  dlclose(handle);
  EXPECT_EQ(dlopen(path, RTLD_NOW | RTLD_NOLOAD), nullptr) << path << " stayed loaded";
  return module_frame;
}

TEST(NativeIdentityTest, MatchesDladdrAcrossDlopenAndDlclose) {
  const Frame a = CaptureThroughModule(TEST_MODULE_A);
  // B's code is A's: only the module name tells their frames apart, even
  // when B is loaded where A was.
  const Frame b = CaptureThroughModule(TEST_MODULE_B);
  EXPECT_NE(a, b);
  EXPECT_EQ(CaptureThroughModule(TEST_MODULE_A), a);
}

}  // namespace
}  // namespace dimmunix
