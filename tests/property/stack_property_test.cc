// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Property sweeps for the stack table: interning and the per-depth suffix
// hashes must agree with a brute-force reference implementation for
// randomized stack populations.

#include <gtest/gtest.h>

#include <random>

#include "src/stack/stack_table.h"

namespace dimmunix {
namespace {

struct SweepParams {
  unsigned seed;
  int stacks;
  int max_len;
  int alphabet;  // distinct frames
};

class StackTableProperty : public ::testing::TestWithParam<SweepParams> {};

// Reference semantics: equal effective suffixes at a given depth.
bool RefMatches(const std::vector<Frame>& a, const std::vector<Frame>& b, int depth) {
  const std::size_t n = std::min(a.size(), static_cast<std::size_t>(depth));
  const std::size_t m = std::min(b.size(), static_cast<std::size_t>(depth));
  if (n != m) {
    return false;
  }
  return std::equal(a.begin(), a.begin() + static_cast<long>(n), b.begin());
}

TEST_P(StackTableProperty, IndexAgreesWithBruteForce) {
  const SweepParams params = GetParam();
  std::mt19937 rng(params.seed);
  StackTable table(8);
  std::vector<std::vector<Frame>> stacks;
  std::vector<StackId> ids;
  for (int i = 0; i < params.stacks; ++i) {
    const int len = 1 + static_cast<int>(rng() % static_cast<unsigned>(params.max_len));
    std::vector<Frame> frames;
    for (int j = 0; j < len; ++j) {
      frames.push_back(FrameFromName(
          "prop_f" + std::to_string(rng() % static_cast<unsigned>(params.alphabet))));
    }
    ids.push_back(table.Intern(frames));
    stacks.push_back(std::move(frames));
  }
  // Interning identical content must be idempotent.
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    EXPECT_EQ(table.Intern(stacks[i]), ids[i]);
  }
  // MatchesAtDepth vs reference.
  for (int depth = 1; depth <= 8; ++depth) {
    for (std::size_t i = 0; i < stacks.size(); ++i) {
      for (std::size_t j = 0; j < stacks.size(); ++j) {
        const bool expected = RefMatches(stacks[i], stacks[j], depth);
        EXPECT_EQ(table.MatchesAtDepth(ids[i], ids[j], depth), expected)
            << "depth " << depth << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST_P(StackTableProperty, DeepestMatchDepthIsConsistent) {
  const SweepParams params = GetParam();
  std::mt19937 rng(params.seed ^ 0x5a5au);
  StackTable table(8);
  std::vector<StackId> ids;
  for (int i = 0; i < params.stacks; ++i) {
    const int len = 1 + static_cast<int>(rng() % static_cast<unsigned>(params.max_len));
    std::vector<Frame> frames;
    for (int j = 0; j < len; ++j) {
      frames.push_back(FrameFromName(
          "deep_f" + std::to_string(rng() % static_cast<unsigned>(params.alphabet))));
    }
    ids.push_back(table.Intern(frames));
  }
  for (StackId a : ids) {
    for (StackId b : ids) {
      const int deepest = table.DeepestMatchDepth(a, b);
      for (int d = 1; d <= 8; ++d) {
        if (d <= deepest) {
          EXPECT_TRUE(table.MatchesAtDepth(a, b, d));
        }
      }
      if (deepest < 8) {
        EXPECT_FALSE(table.MatchesAtDepth(a, b, deepest + 1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StackTableProperty,
                         ::testing::Values(SweepParams{1, 20, 4, 3}, SweepParams{2, 40, 6, 2},
                                           SweepParams{3, 15, 8, 5}, SweepParams{4, 60, 3, 2},
                                           SweepParams{5, 30, 5, 4}));

}  // namespace
}  // namespace dimmunix
