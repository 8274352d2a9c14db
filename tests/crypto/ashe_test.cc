#include "src/crypto/ashe.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/crypto/prf.h"

namespace seabed {
namespace {

TEST(AsheTest, SingleValueRoundTrip) {
  const Ashe ashe(AesKey::FromSeed(1));
  for (uint64_t m : {0ull, 1ull, 12345ull, ~0ull}) {
    const AsheCiphertext ct = ashe.Encrypt(m, 1);
    EXPECT_EQ(ashe.Decrypt(ct), m);
  }
}

TEST(AsheTest, CellRoundTrip) {
  const Ashe ashe(AesKey::FromSeed(2));
  for (uint64_t id = 1; id <= 100; ++id) {
    const uint64_t cipher = ashe.EncryptCell(id * 7, id);
    EXPECT_EQ(ashe.DecryptCell(cipher, id), id * 7);
  }
}

TEST(AsheTest, CiphertextLooksUnlikePlaintext) {
  const Ashe ashe(AesKey::FromSeed(3));
  int equal = 0;
  for (uint64_t id = 1; id <= 100; ++id) {
    equal += ashe.EncryptCell(42, id) == 42;
  }
  EXPECT_LE(equal, 1);
}

TEST(AsheTest, HomomorphicPairSum) {
  const Ashe ashe(AesKey::FromSeed(4));
  AsheCiphertext a = ashe.Encrypt(100, 1);
  const AsheCiphertext b = ashe.Encrypt(23, 2);
  a.Accumulate(b);
  EXPECT_EQ(ashe.Decrypt(a), 123u);
}

TEST(AsheTest, ContiguousRangeSumDecryptsWithOneRun) {
  const Ashe ashe(AesKey::FromSeed(5));
  Rng rng(5);
  AsheCiphertext acc;
  uint64_t expected = 0;
  for (uint64_t id = 1; id <= 5000; ++id) {
    const uint64_t m = rng.Below(1000);
    expected += m;
    acc.value += ashe.EncryptCell(m, id);
    acc.ids.Add(id);
  }
  EXPECT_EQ(acc.ids.NumRuns(), 1u);
  EXPECT_EQ(Ashe::DecryptPrfCalls(acc), 2u);
  EXPECT_EQ(ashe.Decrypt(acc), expected);
}

TEST(AsheTest, SparseSelectionSum) {
  const Ashe ashe(AesKey::FromSeed(6));
  Rng rng(6);
  AsheCiphertext acc;
  uint64_t expected = 0;
  for (uint64_t id = 1; id <= 2000; ++id) {
    const uint64_t m = rng.Below(100);
    if (rng.Chance(0.5)) {
      expected += m;
      acc.value += ashe.EncryptCell(m, id);
      acc.ids.Add(id);
    } else {
      ashe.EncryptCell(m, id);  // encrypted but not selected
    }
  }
  EXPECT_EQ(ashe.Decrypt(acc), expected);
}

TEST(AsheTest, SignedValuesViaTwosComplement) {
  const Ashe ashe(AesKey::FromSeed(7));
  AsheCiphertext acc;
  acc.value += ashe.EncryptCell(static_cast<uint64_t>(int64_t{-500}), 1);
  acc.ids.Add(1);
  acc.value += ashe.EncryptCell(static_cast<uint64_t>(int64_t{200}), 2);
  acc.ids.Add(2);
  EXPECT_EQ(static_cast<int64_t>(ashe.Decrypt(acc)), -300);
}

TEST(AsheTest, MultisetDoubleAddCountsTwice) {
  const Ashe ashe(AesKey::FromSeed(8));
  AsheCiphertext a = ashe.Encrypt(10, 1);
  AsheCiphertext b = ashe.Encrypt(10, 1);  // same id, added twice
  a.Accumulate(b);
  EXPECT_EQ(ashe.Decrypt(a), 20u);
}

TEST(AsheTest, JoinStyleRepeatedRightRow) {
  // A right-table row joined against k left rows is accumulated k times;
  // multiset semantics must recover k * m.
  const Ashe ashe(AesKey::FromSeed(9));
  const uint64_t cipher = ashe.EncryptCell(77, 5);
  AsheCiphertext acc;
  for (int i = 0; i < 13; ++i) {
    acc.value += cipher;
    acc.ids.Add(5);
  }
  EXPECT_EQ(ashe.Decrypt(acc), 77u * 13);
}

TEST(AsheTest, PartitionedAggregationMatchesSequential) {
  const Ashe ashe(AesKey::FromSeed(10));
  Rng rng(10);
  std::vector<uint64_t> values(999);
  for (auto& v : values) {
    v = rng.Below(10000);
  }
  // Sequential.
  AsheCiphertext all;
  uint64_t expected = 0;
  for (uint64_t i = 0; i < values.size(); ++i) {
    all.value += ashe.EncryptCell(values[i], i + 1);
    all.ids.Add(i + 1);
    expected += values[i];
  }
  // Three partitions merged.
  AsheCiphertext parts[3];
  for (uint64_t i = 0; i < values.size(); ++i) {
    AsheCiphertext& p = parts[i % 3];
    p.value += ashe.EncryptCell(values[i], i + 1);
    p.ids.Add(i + 1);
  }
  AsheCiphertext merged = parts[0];
  merged.Accumulate(parts[1]);
  merged.Accumulate(parts[2]);
  EXPECT_EQ(ashe.Decrypt(merged), expected);
  EXPECT_EQ(ashe.Decrypt(all), expected);
}

TEST(AsheTest, DifferentKeysDisagree) {
  const Ashe a(AesKey::FromSeed(11));
  const Ashe b(AesKey::FromSeed(12));
  const AsheCiphertext ct = a.Encrypt(999, 3);
  EXPECT_NE(b.Decrypt(ct), 999u);
}

class AsheRangeSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AsheRangeSweepTest, RangeOfLengthNDecrypts) {
  const uint64_t n = GetParam();
  const Ashe ashe(AesKey::FromSeed(13));
  AsheCiphertext acc;
  uint64_t expected = 0;
  for (uint64_t id = 1; id <= n; ++id) {
    acc.value += ashe.EncryptCell(id, id);
    acc.ids.Add(id);
    expected += id;
  }
  EXPECT_EQ(ashe.Decrypt(acc), expected);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AsheRangeSweepTest,
                         ::testing::Values(1, 2, 3, 17, 256, 4096));

// Decrypt evaluates run endpoints in fixed-size chunks through the 8-block
// AES kernel. Run counts straddling both boundaries, with multiplicities,
// must give exactly the per-run sum of count * RangeDelta.
class AsheRunCountSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AsheRunCountSweepTest, BatchedDecryptMatchesPerRunRangeDelta) {
  const size_t num_runs = GetParam();
  const AesKey key = AesKey::FromSeed(14);
  const Ashe ashe(key);
  const Prf prf(key);
  Rng rng(num_runs);
  AsheCiphertext ct;
  ct.value = 12345;
  uint64_t next = 1 + rng.Below(3);
  uint64_t expected_pad = 0;
  for (size_t r = 0; r < num_runs; ++r) {
    // Singletons, short and long runs, odd and even endpoints; gaps of 1+
    // keep runs disjoint, and every third run is a multiset run.
    const uint64_t lo = next;
    const uint64_t hi = lo + (r % 4 == 0 ? 0 : rng.Below(r % 4 == 1 ? 3 : 500));
    const uint64_t count = r % 3 == 2 ? 2 + rng.Below(5) : 1;
    for (uint64_t c = 0; c < count; ++c) {
      ct.ids.UnionWith(IdSet::FromRange(lo, hi));
    }
    expected_pad += count * prf.RangeDelta(lo, hi);
    next = hi + 2 + rng.Below(4);
  }
  ASSERT_EQ(ct.ids.NumRuns(), num_runs);
  EXPECT_EQ(ashe.Decrypt(ct), 12345 + expected_pad);
}

INSTANTIATE_TEST_SUITE_P(RunCounts, AsheRunCountSweepTest,
                         ::testing::Values(0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127,
                                           128, 129, 1000));

}  // namespace
}  // namespace seabed
