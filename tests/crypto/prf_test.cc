#include "src/crypto/prf.h"

#include <gtest/gtest.h>

#include <set>

namespace seabed {
namespace {

TEST(PrfTest, Deterministic) {
  const Prf a(AesKey::FromSeed(1));
  const Prf b(AesKey::FromSeed(1));
  for (uint64_t id : {0ull, 1ull, 2ull, 1000ull, ~0ull}) {
    EXPECT_EQ(a.Eval(id), b.Eval(id));
  }
}

TEST(PrfTest, AdjacentIdsShareBlockButDiffer) {
  const Prf prf(AesKey::FromSeed(2));
  // Ids 2j and 2j+1 come from one AES block; they must still be distinct.
  for (uint64_t j = 0; j < 100; ++j) {
    EXPECT_NE(prf.Eval(2 * j), prf.Eval(2 * j + 1));
  }
}

TEST(PrfTest, OutputsLookDistinct) {
  const Prf prf(AesKey::FromSeed(3));
  std::set<uint64_t> seen;
  for (uint64_t id = 0; id < 1000; ++id) {
    seen.insert(prf.Eval(id));
  }
  EXPECT_EQ(seen.size(), 1000u);  // collisions in 1000 draws are ~impossible
}

TEST(PrfTest, DeltaTelescopes) {
  const Prf prf(AesKey::FromSeed(4));
  // Sum of Delta(i) over [lo, hi] equals RangeDelta(lo, hi).
  for (auto [lo, hi] : std::initializer_list<std::pair<uint64_t, uint64_t>>{
           {1, 1}, {1, 10}, {5, 300}, {1000, 1001}}) {
    uint64_t sum = 0;
    for (uint64_t i = lo; i <= hi; ++i) {
      sum += prf.Delta(i);
    }
    EXPECT_EQ(sum, prf.RangeDelta(lo, hi)) << lo << ".." << hi;
  }
}

TEST(PrfTest, RangeDeltaSplitsAdditively) {
  const Prf prf(AesKey::FromSeed(5));
  // RangeDelta(1, 100) = RangeDelta(1, 40) + RangeDelta(41, 100).
  EXPECT_EQ(prf.RangeDelta(1, 100), prf.RangeDelta(1, 40) + prf.RangeDelta(41, 100));
}

TEST(PrfTest, KeysAreIndependent) {
  const Prf a(AesKey::FromSeed(6));
  const Prf b(AesKey::FromSeed(7));
  int same = 0;
  for (uint64_t id = 0; id < 64; ++id) {
    same += a.Eval(id) == b.Eval(id);
  }
  EXPECT_EQ(same, 0);
}

TEST(PrfTest, EvalIsIndependentOfAccessOrder) {
  const Prf prf(AesKey::FromSeed(8));
  const uint64_t direct = prf.Eval(500);
  prf.Eval(1);
  prf.Eval(10000);
  EXPECT_EQ(prf.Eval(500), direct);
}

// EvalRange shares AES blocks between adjacent ids; EvalBatch encrypts one
// block per id. They must agree for odd and even starts and every length
// up to kMaxBatch.
TEST(PrfTest, EvalRangeMatchesEvalBatch) {
  const Prf prf(AesKey::FromSeed(9));
  for (const uint64_t first : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                               1 + (uint64_t{5} << 40), ~uint64_t{0} - 200}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{127},
                           size_t{128}}) {
      uint64_t ids[Prf::kMaxBatch];
      for (size_t k = 0; k < n; ++k) {
        ids[k] = first + k;
      }
      uint64_t expected[Prf::kMaxBatch];
      prf.EvalBatch(ids, n, expected);
      uint64_t got[Prf::kMaxBatch + 1];
      got[n] = 0xfeedULL;  // no overrun
      prf.EvalRange(first, n, got);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_EQ(got[k], expected[k]) << "first=" << first << " n=" << n << " k=" << k;
      }
      EXPECT_EQ(got[n], 0xfeedULL);
    }
  }
}

}  // namespace
}  // namespace seabed
