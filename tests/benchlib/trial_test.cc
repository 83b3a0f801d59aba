// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/benchlib/trial.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <thread>

namespace dimmunix {
namespace {

TEST(TrialTest, CompletingChildReportsExitCode) {
  TrialResult result = RunTrial([] { return 42; }, std::chrono::seconds(2));
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.exit_code, 42);
}

TEST(TrialTest, HangingChildIsKilledAndReportedAsDeadlock) {
  const MonoTime start = Now();
  TrialResult result = RunTrial(
      [] {
        for (;;) {
          std::this_thread::sleep_for(std::chrono::hours(1));
        }
        return 0;
      },
      std::chrono::milliseconds(200));
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_GE(Now() - start, std::chrono::milliseconds(190));
}

TEST(TrialTest, TimeoutAlsoKillsGrandchildren) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  TrialResult result = RunTrial(
      [&] {
        const pid_t grandchild = fork();
        if (grandchild == 0) {
          for (;;) {
            pause();  // holds the pipe's write end until killed
          }
        }
        (void)!write(fds[1], &grandchild, sizeof(grandchild));
        for (;;) {
          pause();
        }
        return 0;
      },
      std::chrono::milliseconds(200));
  close(fds[1]);
  EXPECT_TRUE(result.deadlocked);
  pid_t grandchild = -1;
  ASSERT_EQ(read(fds[0], &grandchild, sizeof(grandchild)),
            static_cast<ssize_t>(sizeof(grandchild)));
  // End of file once every holder of the write end is dead.
  pollfd readable{fds[0], POLLIN, 0};
  char byte = 0;
  const bool eof = poll(&readable, 1, 5000) == 1 && read(fds[0], &byte, 1) == 0;
  close(fds[0]);
  if (!eof) {
    kill(grandchild, SIGKILL);
  }
  EXPECT_TRUE(eof) << "grandchild " << grandchild << " outlived the timed-out trial";
}

TEST(TrialTest, ChildSideEffectsAreIsolated) {
  int parent_value = 1;
  TrialResult result = RunTrial(
      [&] {
        parent_value = 999;  // only mutates the child's copy
        return 0;
      },
      std::chrono::seconds(2));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(parent_value, 1);
}

TEST(TrialTest, ElapsedIsMeasured) {
  TrialResult result = RunTrial(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 0;
      },
      std::chrono::seconds(2));
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.elapsed, std::chrono::milliseconds(45));
}

}  // namespace
}  // namespace dimmunix
