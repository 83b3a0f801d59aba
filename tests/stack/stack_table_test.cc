// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/stack/stack_table.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace dimmunix {
namespace {

std::vector<Frame> MakeStack(std::initializer_list<const char*> names) {
  std::vector<Frame> frames;
  for (const char* name : names) {
    frames.push_back(FrameFromName(name));
  }
  return frames;
}

TEST(StackTableTest, InternIsIdempotent) {
  StackTable table(10);
  const auto frames = MakeStack({"a", "b", "c"});
  const StackId first = table.Intern(frames);
  const StackId second = table.Intern(frames);
  EXPECT_EQ(first, second);
  EXPECT_EQ(table.size(), 1u);
}

TEST(StackTableTest, DistinctStacksGetDistinctIds) {
  StackTable table(10);
  const StackId a = table.Intern(MakeStack({"a", "b"}));
  const StackId b = table.Intern(MakeStack({"a", "c"}));
  const StackId c = table.Intern(MakeStack({"a"}));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(StackTableTest, GetReturnsFrames) {
  StackTable table(10);
  const auto frames = MakeStack({"x", "y"});
  const StackId id = table.Intern(frames);
  EXPECT_EQ(table.Get(id).frames, frames);
  EXPECT_EQ(table.Get(id).id, id);
}

TEST(StackTableTest, MatchesAtDepthComparesSuffix) {
  StackTable table(10);
  // Same top-2 frames, divergence at the third.
  const StackId a = table.Intern(MakeStack({"lock", "mid", "outerA"}));
  const StackId b = table.Intern(MakeStack({"lock", "mid", "outerB"}));
  EXPECT_TRUE(table.MatchesAtDepth(a, b, 1));
  EXPECT_TRUE(table.MatchesAtDepth(a, b, 2));
  EXPECT_FALSE(table.MatchesAtDepth(a, b, 3));
  EXPECT_FALSE(table.MatchesAtDepth(a, b, 10));  // clamped to max, still differs
}

TEST(StackTableTest, ShorterStackMatchesOnlyWhenFullyContainedAtSameEffectiveDepth) {
  StackTable table(10);
  const StackId two = table.Intern(MakeStack({"lock", "mid"}));
  const StackId three = table.Intern(MakeStack({"lock", "mid", "outer"}));
  EXPECT_TRUE(table.MatchesAtDepth(two, three, 2));
  // At depth 3 the effective lengths differ (2 vs 3): no match.
  EXPECT_FALSE(table.MatchesAtDepth(two, three, 3));
}

TEST(StackTableTest, DeepestMatchDepth) {
  StackTable table(10);
  const StackId a = table.Intern(MakeStack({"l", "m1", "m2", "m3", "oA"}));
  const StackId b = table.Intern(MakeStack({"l", "m1", "m2", "m3", "oB"}));
  EXPECT_EQ(table.DeepestMatchDepth(a, b), 4);
  EXPECT_EQ(table.DeepestMatchDepth(a, a), 10);
  const StackId c = table.Intern(MakeStack({"other"}));
  EXPECT_EQ(table.DeepestMatchDepth(a, c), 0);
}

TEST(StackTableTest, SuffixSharersMatchAtTheirDepth) {
  StackTable table(10);
  const StackId a = table.Intern(MakeStack({"l", "m", "o1"}));
  const StackId b = table.Intern(MakeStack({"l", "m", "o2"}));
  const StackId c = table.Intern(MakeStack({"l", "x", "o3"}));
  EXPECT_TRUE(table.MatchesAtDepth(a, b, 2));
  EXPECT_FALSE(table.MatchesAtDepth(a, c, 2));
  EXPECT_TRUE(table.MatchesAtDepth(a, c, 1));
  EXPECT_TRUE(table.MatchesAtDepth(b, c, 1));
  EXPECT_FALSE(table.MatchesAtDepth(a, b, 3));
}

TEST(StackTableTest, DescribeUsesSymbolizedNames) {
  StackTable table(10);
  const StackId id = table.Intern(MakeStack({"Foo@f:1", "Bar@f:2"}));
  EXPECT_EQ(table.Describe(id), "Foo@f:1;Bar@f:2");
}

}  // namespace
}  // namespace dimmunix
