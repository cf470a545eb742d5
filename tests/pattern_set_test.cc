#include "miner/pattern_set.h"

#include <gtest/gtest.h>

namespace partminer {
namespace {

PatternInfo MakePattern(Label a, Label e, Label b, int support) {
  PatternInfo p;
  p.code.Append({0, 1, a, e, b});
  p.support = support;
  for (int i = 0; i < support; ++i) p.tids.Add(i);
  return p;
}

TEST(PatternSetTest, UpsertInsertsAndReplaces) {
  PatternSet set;
  EXPECT_TRUE(set.Upsert(MakePattern(0, 0, 0, 3)));
  EXPECT_FALSE(set.Upsert(MakePattern(0, 0, 0, 5)));  // Replace.
  EXPECT_EQ(set.size(), 1);
  DfsCode code;
  code.Append({0, 1, 0, 0, 0});
  ASSERT_NE(set.Find(code), nullptr);
  EXPECT_EQ(set.Find(code)->support, 5);
}

TEST(PatternSetTest, EraseKeepsIndexConsistent) {
  PatternSet set;
  set.Upsert(MakePattern(0, 0, 0, 1));
  set.Upsert(MakePattern(1, 1, 1, 2));
  set.Upsert(MakePattern(2, 2, 2, 3));

  DfsCode first;
  first.Append({0, 1, 0, 0, 0});
  EXPECT_TRUE(set.Erase(first));
  EXPECT_FALSE(set.Erase(first));  // Already gone.
  EXPECT_EQ(set.size(), 2);

  // The swapped-in pattern must still be findable.
  DfsCode third;
  third.Append({0, 1, 2, 2, 2});
  ASSERT_NE(set.Find(third), nullptr);
  EXPECT_EQ(set.Find(third)->support, 3);
}

TEST(PatternSetTest, WithEdgeCountAndMax) {
  PatternSet set;
  PatternInfo p1 = MakePattern(0, 0, 0, 1);
  PatternInfo p2;
  p2.code.Append({0, 1, 0, 0, 0});
  p2.code.Append({1, 2, 0, 0, 0});
  set.Upsert(p1);
  set.Upsert(p2);
  EXPECT_EQ(set.MaxEdgeCount(), 2);
  EXPECT_EQ(PatternSet().MaxEdgeCount(), 0);
}

TEST(PatternSetTest, MergeFromKeepsExisting) {
  PatternSet a, b;
  a.Upsert(MakePattern(0, 0, 0, 7));
  b.Upsert(MakePattern(0, 0, 0, 1));  // Same code, different support.
  b.Upsert(MakePattern(1, 1, 1, 2));
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 2);
  DfsCode code;
  code.Append({0, 1, 0, 0, 0});
  EXPECT_EQ(a.Find(code)->support, 7);  // Existing entry wins.
}

TEST(PatternSetTest, SortedCodeStringsIsSorted) {
  PatternSet set;
  set.Upsert(MakePattern(2, 0, 2, 1));
  set.Upsert(MakePattern(0, 0, 0, 1));
  set.Upsert(MakePattern(1, 0, 1, 1));
  const std::vector<std::string> codes = set.SortedCodeStrings();
  ASSERT_EQ(codes.size(), 3u);
  EXPECT_TRUE(std::is_sorted(codes.begin(), codes.end()));
}

}  // namespace
}  // namespace partminer
