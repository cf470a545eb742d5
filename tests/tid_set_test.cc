// TidSet correctness: hand-checked basics plus randomized property sweeps
// pitting the set arithmetic against the sorted-vector algorithms the mining
// stack used before (set_intersection / set_union / set_difference /
// includes). TidSet is the representation of record for every TID list, so
// any divergence here would silently corrupt support counts everywhere. The
// boundary sweep concentrates on sizes around TidSet::kInline, where a set
// switches between its inline and dense forms.

#include "graph/tid_set.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace partminer {
namespace {

TEST(TidSetTest, BasicAddRemoveContains) {
  TidSet set;
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Count(), 0);
  EXPECT_FALSE(set.Contains(0));

  set.Add(3);
  set.Add(64);
  set.Add(3);  // Idempotent.
  EXPECT_FALSE(set.Empty());
  EXPECT_EQ(set.Count(), 2);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_FALSE(set.Contains(63));
  EXPECT_FALSE(set.Contains(-1));

  set.Remove(64);
  EXPECT_EQ(set.Count(), 1);
  EXPECT_FALSE(set.Contains(64));
  set.Remove(64);  // Removing an absent element is a no-op.
  EXPECT_EQ(set.Count(), 1);

  set.Remove(3);
  EXPECT_TRUE(set.Empty());
}

TEST(TidSetTest, VectorRoundTrip) {
  const std::vector<int> tids = {0, 5, 63, 64, 65, 200};
  EXPECT_EQ(TidSet::FromVector(tids).ToVector(), tids);

  // Unsorted input with duplicates normalizes to the ascending unique list.
  const TidSet messy = TidSet::FromVector({200, 5, 5, 0, 65, 64, 63, 200});
  EXPECT_EQ(messy.ToVector(), tids);
  EXPECT_EQ(TidSet::FromVector({}).ToVector(), std::vector<int>{});
}

TEST(TidSetTest, EqualityIgnoresCapacityHistory) {
  // Shrink {1000} down to {1}: the high words must not linger and break ==.
  TidSet wide = TidSet::FromVector({1, 1000});
  wide.Remove(1000);
  const TidSet narrow = TidSet::FromVector({1});
  EXPECT_EQ(wide, narrow);

  TidSet differenced = TidSet::FromVector({1, 777});
  differenced -= TidSet::FromVector({777});
  EXPECT_EQ(differenced, narrow);

  TidSet intersected = TidSet::FromVector({1, 900});
  intersected &= TidSet::FromVector({1, 2, 3});
  EXPECT_EQ(intersected, narrow);
  EXPECT_NE(intersected, TidSet::FromVector({2}));
}

TEST(TidSetTest, ForEachAscending) {
  const std::vector<int> tids = {2, 63, 64, 127, 128, 500};
  std::vector<int> seen;
  TidSet::FromVector(tids).ForEach([&](int t) { seen.push_back(t); });
  EXPECT_EQ(seen, tids);
}

// ---------------------------------------------------------------------------
// Property sweep: TidSet ops vs the sorted-vector baselines on random sets.
// ---------------------------------------------------------------------------

std::vector<int> RandomTids(Rng* rng, int universe, int max_size) {
  std::set<int> picked;
  const int size = static_cast<int>(rng->Uniform(max_size + 1));
  for (int i = 0; i < size; ++i) {
    picked.insert(static_cast<int>(rng->Uniform(universe)));
  }
  return std::vector<int>(picked.begin(), picked.end());
}

TEST(TidSetTest, PropertyMatchesVectorBaseline) {
  Rng rng(42);
  for (int round = 0; round < 500; ++round) {
    // Mixed universes exercise word-count mismatches between operands.
    const int universe_a = round % 3 == 0 ? 70 : 1500;
    const int universe_b = round % 2 == 0 ? 70 : 1500;
    const std::vector<int> a = RandomTids(&rng, universe_a, 80);
    const std::vector<int> b = RandomTids(&rng, universe_b, 80);
    const TidSet sa = TidSet::FromVector(a);
    const TidSet sb = TidSet::FromVector(b);

    std::vector<int> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    TidSet got = sa;
    got &= sb;
    EXPECT_EQ(got.ToVector(), expected) << "intersection, round " << round;
    EXPECT_EQ(got.Count(), static_cast<int>(expected.size()));

    expected.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    got = sa;
    got |= sb;
    EXPECT_EQ(got.ToVector(), expected) << "union, round " << round;

    expected.clear();
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
    got = sa;
    got -= sb;
    EXPECT_EQ(got.ToVector(), expected) << "difference, round " << round;

    EXPECT_EQ(sa.Includes(sb),
              std::includes(a.begin(), a.end(), b.begin(), b.end()))
        << "includes, round " << round;
    EXPECT_TRUE(sa.Includes(got));  // a \ b is always a subset of a.
    EXPECT_EQ(sa == sb, a == b) << "equality, round " << round;

    for (const int probe : {0, 1, 63, 64, 69, 700, 1499}) {
      EXPECT_EQ(sa.Contains(probe),
                std::binary_search(a.begin(), a.end(), probe))
          << "contains " << probe << ", round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Boundary sweep: sizes concentrated in 0..2*kInline, so every operator meets
// all four pairings of the inline and dense forms and results cross the
// boundary both ways.
// ---------------------------------------------------------------------------

constexpr int kInline = TidSet::kInline;

// The form is canonical, so the member count names it.
bool IsDense(const TidSet& set) { return set.Count() > kInline; }

// Bit of a (left form, right form) pairing in a coverage mask.
int Pairing(const TidSet& a, const TidSet& b) {
  return 1 << (2 * IsDense(a) + IsDense(b));
}

// Adds distinct TIDs from [0, universe) absent from `picked` until it holds
// `size`.
void FillTo(Rng* rng, int universe, int size, std::set<int>* picked) {
  while (static_cast<int>(picked->size()) < size) {
    picked->insert(static_cast<int>(rng->Uniform(universe)));
  }
}

// Mostly 0..2*kInline members; one draw in eight goes up to 40.
int BoundarySize(Rng* rng) {
  const int max_size = rng->Uniform(8) == 0 ? 40 : 2 * kInline;
  return static_cast<int>(rng->Uniform(max_size + 1));
}

std::vector<int> Sorted(const std::set<int>& s) {
  return std::vector<int>(s.begin(), s.end());
}

TEST(TidSetTest, BoundarySweepCoversEveryFormPairing) {
  Rng rng(7);
  // Per binary operator, the pairings seen; per operator, boundary crossings.
  std::map<std::string, int> pairings;
  std::map<std::string, int> to_inline;
  std::map<std::string, int> to_dense;
  const auto check = [&](const std::string& op, const TidSet& before,
                         const TidSet& got, const std::vector<int>& expected,
                         int round) {
    EXPECT_EQ(got.ToVector(), expected) << op << ", round " << round;
    EXPECT_EQ(got.Count(), static_cast<int>(expected.size()))
        << op << ", round " << round;
    // Equal contents must be equal sets, whatever the history.
    EXPECT_EQ(got, TidSet::FromVector(expected)) << op << ", round " << round;
    if (IsDense(before) && !IsDense(got)) ++to_inline[op];
    if (!IsDense(before) && IsDense(got)) ++to_dense[op];
  };

  for (int round = 0; round < 4000; ++round) {
    const int universe = round % 2 == 0 ? 70 : 2000;
    std::set<int> a_members;
    FillTo(&rng, universe, BoundarySize(&rng), &a_members);
    // b shares about half of a's members, so differences and intersections
    // actually remove some.
    std::set<int> b_members;
    for (const int t : a_members) {
      if (rng.Uniform(2) == 0) b_members.insert(t);
    }
    FillTo(&rng, universe,
           std::max(BoundarySize(&rng), static_cast<int>(b_members.size())),
           &b_members);
    const std::vector<int> a = Sorted(a_members);
    const std::vector<int> b = Sorted(b_members);
    const TidSet sa = TidSet::FromVector(a);
    const TidSet sb = TidSet::FromVector(b);
    const int pairing = Pairing(sa, sb);

    std::vector<int> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    TidSet got = sa;
    got &= sb;
    check("&=", sa, got, expected, round);
    pairings["&="] |= pairing;

    expected.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    got = sa;
    got |= sb;
    check("|=", sa, got, expected, round);
    pairings["|="] |= pairing;

    expected.clear();
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
    got = sa;
    got -= sb;
    check("-=", sa, got, expected, round);
    pairings["-="] |= pairing;

    EXPECT_EQ(sa.Includes(sb),
              std::includes(a.begin(), a.end(), b.begin(), b.end()))
        << "includes, round " << round;
    EXPECT_EQ(sb.Includes(sa),
              std::includes(b.begin(), b.end(), a.begin(), a.end()))
        << "includes, round " << round;
    pairings["Includes"] |= pairing;
    std::vector<int> common;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(common));
    EXPECT_EQ(sa.CountCommon(sb), static_cast<int>(common.size()))
        << "count common, round " << round;
    EXPECT_EQ(sb.CountCommon(sa), static_cast<int>(common.size()))
        << "count common, round " << round;
    EXPECT_EQ(sa.CountCommon(TidSet()), 0) << "count common, round " << round;
    pairings["CountCommon"] |= pairing;
    EXPECT_EQ(sa == sb, a == b) << "equality, round " << round;
    EXPECT_EQ(sa == sa, true);
    pairings["=="] |= pairing;

    std::vector<int> seen;
    sa.ForEach([&](int t) { seen.push_back(t); });
    EXPECT_EQ(seen, a) << "ForEach, round " << round;
    for (const int probe : {0, 1, 63, 64, 69, 1999}) {
      EXPECT_EQ(sa.Contains(probe), a_members.count(probe) > 0)
          << "contains " << probe << ", round " << round;
    }

    // Add and Remove a random TID: a member or not, about half the time.
    const int tid = rng.Uniform(2) == 0 && !a.empty()
                        ? a[rng.Uniform(a.size())]
                        : static_cast<int>(rng.Uniform(universe));
    std::set<int> added = a_members;
    added.insert(tid);
    got = sa;
    got.Add(tid);
    check("Add", sa, got, Sorted(added), round);
    std::set<int> removed = a_members;
    removed.erase(tid);
    got = sa;
    got.Remove(tid);
    check("Remove", sa, got, Sorted(removed), round);

    // The same contents through other histories: shuffled adds, and from a
    // dense superset by Remove, -=, &= and RemoveIf.
    std::vector<int> shuffled = a;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    got = TidSet();
    for (const int t : shuffled) got.Add(t);
    check("shuffled Add", TidSet(), got, a, round);

    std::set<int> super_members = a_members;
    FillTo(&rng, universe, static_cast<int>(a.size()) + 1 + kInline,
           &super_members);
    std::vector<int> extra;
    std::set_difference(super_members.begin(), super_members.end(),
                        a.begin(), a.end(), std::back_inserter(extra));
    const TidSet super = TidSet::FromVector(Sorted(super_members));
    got = super;
    for (const int t : extra) got.Remove(t);
    check("Remove from superset", super, got, a, round);
    got = super;
    got -= TidSet::FromVector(extra);
    check("-= from superset", super, got, a, round);
    got = super;
    got &= sa;
    check("&= from superset", super, got, a, round);
    got = super;
    got.RemoveIf([&](int t) { return a_members.count(t) == 0; });
    check("RemoveIf from superset", super, got, a, round);
  }

  for (const std::string op :
       {"&=", "|=", "-=", "Includes", "CountCommon", "=="}) {
    EXPECT_EQ(pairings[op], 0xF) << op << " missed a form pairing";
  }
  for (const std::string op : {"-=", "&=", "Remove"}) {
    EXPECT_GT(to_inline[op], 0) << op << " never crossed dense -> inline";
  }
  for (const std::string op : {"|=", "Add"}) {
    EXPECT_GT(to_dense[op], 0) << op << " never crossed inline -> dense";
  }
}

}  // namespace
}  // namespace partminer
