#include "src/crypto/id_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"

namespace seabed {
namespace {

TEST(IdSetTest, EmptySet) {
  const IdSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.TotalCount(), 0u);
  EXPECT_EQ(s.NumRuns(), 0u);
  EXPECT_TRUE(s.IsPlainSet());
}

TEST(IdSetTest, SequentialAddsCoalesceToOneRun) {
  IdSet s;
  for (uint64_t id = 1; id <= 1000; ++id) {
    s.Add(id);
  }
  EXPECT_EQ(s.NumRuns(), 1u);
  EXPECT_EQ(s.TotalCount(), 1000u);
  EXPECT_EQ(s.runs()[0], (IdSet::Run{1, 1000, 1}));
}

TEST(IdSetTest, GapsCreateRuns) {
  IdSet s;
  s.Add(1);
  s.Add(2);
  s.Add(10);
  s.Add(11);
  s.Add(20);
  EXPECT_EQ(s.NumRuns(), 3u);
  EXPECT_EQ(s.TotalCount(), 5u);
}

TEST(IdSetTest, OutOfOrderAddNormalizes) {
  IdSet s;
  s.Add(10);
  s.Add(5);
  s.Add(7);
  s.Add(6);
  EXPECT_EQ(s.TotalCount(), 4u);
  EXPECT_EQ(s.NumRuns(), 2u);  // {5-7}, {10}
  EXPECT_EQ(s.runs()[0], (IdSet::Run{5, 7, 1}));
  EXPECT_EQ(s.runs()[1], (IdSet::Run{10, 10, 1}));
}

TEST(IdSetTest, DuplicateAddBecomesMultiset) {
  IdSet s;
  s.Add(5);
  s.Add(5);
  EXPECT_EQ(s.TotalCount(), 2u);
  EXPECT_FALSE(s.IsPlainSet());
  EXPECT_EQ(s.runs()[0], (IdSet::Run{5, 5, 2}));
}

TEST(IdSetTest, FromRange) {
  const IdSet s = IdSet::FromRange(10, 20);
  EXPECT_EQ(s.TotalCount(), 11u);
  EXPECT_EQ(s.NumRuns(), 1u);
}

TEST(IdSetTest, AddRangeExtendsTrailingRun) {
  IdSet s = IdSet::FromRange(1, 10);
  s.AddRange(11, 20);
  EXPECT_EQ(s.NumRuns(), 1u);
  EXPECT_EQ(s.runs()[0], (IdSet::Run{1, 20, 1}));
}

TEST(IdSetTest, UnionDisjointOrderedFastPath) {
  IdSet a = IdSet::FromRange(1, 100);
  const IdSet b = IdSet::FromRange(200, 300);
  a.UnionWith(b);
  EXPECT_EQ(a.NumRuns(), 2u);
  EXPECT_EQ(a.TotalCount(), 201u);
}

TEST(IdSetTest, UnionAdjacentCoalescesAcrossSeam) {
  IdSet a = IdSet::FromRange(1, 100);
  const IdSet b = IdSet::FromRange(101, 200);
  a.UnionWith(b);
  EXPECT_EQ(a.NumRuns(), 1u);
  EXPECT_EQ(a.runs()[0], (IdSet::Run{1, 200, 1}));
}

TEST(IdSetTest, UnionOverlapAccumulatesMultiplicity) {
  IdSet a = IdSet::FromRange(1, 10);
  const IdSet b = IdSet::FromRange(5, 15);
  a.UnionWith(b);
  EXPECT_EQ(a.TotalCount(), 21u);  // 10 + 11
  EXPECT_FALSE(a.IsPlainSet());
  // Runs: [1,4]x1 [5,10]x2 [11,15]x1.
  ASSERT_EQ(a.NumRuns(), 3u);
  EXPECT_EQ(a.runs()[1], (IdSet::Run{5, 10, 2}));
}

TEST(IdSetTest, UnionWithEmpty) {
  IdSet a = IdSet::FromRange(1, 3);
  a.UnionWith(IdSet());
  EXPECT_EQ(a.TotalCount(), 3u);
  IdSet empty;
  empty.UnionWith(a);
  EXPECT_EQ(empty.TotalCount(), 3u);
}

TEST(IdSetTest, SelfLikeUnionDoublesCount) {
  IdSet a = IdSet::FromRange(1, 50);
  IdSet b = IdSet::FromRange(1, 50);
  a.UnionWith(b);
  EXPECT_EQ(a.TotalCount(), 100u);
  EXPECT_EQ(a.NumRuns(), 1u);
  EXPECT_EQ(a.runs()[0].count, 2u);
}

TEST(IdSetTest, SingleFactory) {
  const IdSet s = IdSet::Single(42);
  EXPECT_EQ(s.TotalCount(), 1u);
  EXPECT_EQ(s.runs()[0], (IdSet::Run{42, 42, 1}));
}

TEST(IdSetTest, InterleavedUnionNormalizes) {
  IdSet a;
  a.Add(1);
  a.Add(5);
  a.Add(9);
  IdSet b;
  b.Add(2);
  b.Add(5);
  b.Add(10);
  a.UnionWith(b);
  EXPECT_EQ(a.TotalCount(), 6u);
  // id 5 has multiplicity 2.
  uint64_t count5 = 0;
  for (const auto& run : a.runs()) {
    if (run.lo <= 5 && 5 <= run.hi) {
      count5 = run.count;
    }
  }
  EXPECT_EQ(count5, 2u);
}

TEST(IdSetTest, OutOfOrderRepeatedAddsEqualRepeatedUnion) {
  // Ids in random order, many repeated (a right-side join aggregate, or a
  // fact row joined to several right rows): the splicing Add must build the
  // same canonical set as the multiset union of the same singletons,
  // without ever re-sorting the run vector.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    IdSet added;
    IdSet expected;
    const size_t n = 1 + rng.Below(300);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t id = 1 + rng.Below(64);
      added.Add(id);
      expected.UnionWith(IdSet::Single(id));
    }
    EXPECT_EQ(added, expected) << seed;
    // Canonical: sorted, disjoint, touching runs differ in count.
    for (size_t r = 1; r < added.NumRuns(); ++r) {
      const IdSet::Run& prev = added.runs()[r - 1];
      const IdSet::Run& cur = added.runs()[r];
      EXPECT_LT(prev.hi, cur.lo) << seed;
      EXPECT_FALSE(prev.hi + 1 == cur.lo && prev.count == cur.count) << seed;
    }
  }
}

TEST(IdSetTest, RepeatedTrailingIdRaisesMultiplicity) {
  // A fact row joined to k right rows adds its id k times in a row.
  IdSet s;
  s.AddRange(1, 4);
  s.Add(4);
  s.Add(4);
  for (int k = 0; k < 3; ++k) {
    s.Add(5);
  }
  s.Add(6);
  ASSERT_EQ(s.NumRuns(), 3u);
  EXPECT_EQ(s.runs()[0], (IdSet::Run{1, 3, 1}));
  EXPECT_EQ(s.runs()[1], (IdSet::Run{4, 5, 3}));
  EXPECT_EQ(s.runs()[2], (IdSet::Run{6, 6, 1}));
}

TEST(IdSetTest, LargeAlternatingPattern) {
  // Every even id in [0, 2000): 1000 runs of length 1 — the paper's
  // "query that selects all even rows" worst case for range encoding.
  IdSet s;
  for (uint64_t id = 0; id < 2000; id += 2) {
    s.Add(id);
  }
  EXPECT_EQ(s.NumRuns(), 1000u);
  EXPECT_EQ(s.TotalCount(), 1000u);
  EXPECT_TRUE(s.IsPlainSet());
}

}  // namespace
}  // namespace seabed
