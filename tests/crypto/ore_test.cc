#include "src/crypto/ore.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"

namespace seabed {
namespace {

int Sign(uint64_t a, uint64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

// The scheme as first written: one single-block AES call per bit, the
// prefix grown as the bits are read.
OreCiphertext SerialReferenceEncrypt(const AesKey& key, uint64_t m) {
  const Aes128 aes(key);
  OreCiphertext ct;
  uint64_t prefix = 0;
  for (int i = 0; i < 64; ++i) {
    const uint8_t bit = static_cast<uint8_t>((m >> (63 - i)) & 1);
    uint8_t block[16] = {};
    block[0] = static_cast<uint8_t>(i);
    block[1] = 0x0e;
    std::memcpy(block + 2, &prefix, 8);
    uint8_t out[16];
    aes.EncryptBlock(block, out);
    ct.SetU(i, static_cast<uint8_t>((out[0] % 3 + bit) % 3));
    prefix |= static_cast<uint64_t>(bit) << (63 - i);
  }
  return ct;
}

TEST(OreTest, BatchedEncryptMatchesSerialReference) {
  const AesKey key = AesKey::FromSeed(12);
  const Ore ore(key);
  std::vector<uint64_t> values = {0, 1, 2, 3, uint64_t{1} << 63, (uint64_t{1} << 63) - 1,
                                  ~uint64_t{0}, ~uint64_t{0} - 1};
  Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    values.push_back(rng.Next() >> rng.Below(64));
  }
  for (const uint64_t m : values) {
    EXPECT_EQ(ore.Encrypt(m), SerialReferenceEncrypt(key, m)) << m;
  }
}

TEST(OreTest, EqualPlaintextsCompareEqual) {
  const Ore ore(AesKey::FromSeed(1));
  for (uint64_t m : {0ull, 1ull, 77ull, ~0ull}) {
    const OreCiphertext a = ore.Encrypt(m);
    const OreCiphertext b = ore.Encrypt(m);
    EXPECT_EQ(a, b);  // deterministic scheme
    EXPECT_EQ(Ore::Compare(a, b).order, 0);
    EXPECT_EQ(Ore::Compare(a, b).inddiff, 64);
  }
}

TEST(OreTest, OrderMatchesPlaintextRandomPairs) {
  const Ore ore(AesKey::FromSeed(2));
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const uint64_t x = rng.Next() >> (rng.Below(64));
    const uint64_t y = rng.Next() >> (rng.Below(64));
    EXPECT_EQ(Ore::Compare(ore.Encrypt(x), ore.Encrypt(y)).order, Sign(x, y))
        << x << " vs " << y;
  }
}

TEST(OreTest, AdjacentValues) {
  const Ore ore(AesKey::FromSeed(3));
  for (uint64_t m : {0ull, 1ull, 255ull, 256ull, (1ull << 32) - 1, 1ull << 32}) {
    EXPECT_EQ(Ore::Compare(ore.Encrypt(m), ore.Encrypt(m + 1)).order, -1) << m;
    EXPECT_EQ(Ore::Compare(ore.Encrypt(m + 1), ore.Encrypt(m)).order, 1) << m;
  }
}

TEST(OreTest, InddiffLeakageIsFirstDifferingBit) {
  const Ore ore(AesKey::FromSeed(4));
  // 0b1000... vs 0b0000...: differ at bit 0 (MSB).
  EXPECT_EQ(Ore::Compare(ore.Encrypt(1ull << 63), ore.Encrypt(0)).inddiff, 0);
  // Values differing only in the LSB: inddiff = 63.
  EXPECT_EQ(Ore::Compare(ore.Encrypt(2), ore.Encrypt(3)).inddiff, 63);
  // 12 = 0b1100, 10 = 0b1010: first difference at bit 61 (the 4's place).
  EXPECT_EQ(Ore::Compare(ore.Encrypt(12), ore.Encrypt(10)).inddiff, 61);
}

TEST(OreTest, LessHelpers) {
  const Ore ore(AesKey::FromSeed(5));
  const OreCiphertext a = ore.Encrypt(10);
  const OreCiphertext b = ore.Encrypt(20);
  EXPECT_TRUE(Ore::Less(a, b));
  EXPECT_FALSE(Ore::Less(b, a));
  EXPECT_TRUE(Ore::LessEq(a, a));
  EXPECT_TRUE(Ore::LessEq(a, b));
}

TEST(OreTest, TransitivityOnSortedSample) {
  const Ore ore(AesKey::FromSeed(6));
  Rng rng(6);
  std::vector<uint64_t> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(rng.Next());
  }
  std::vector<OreCiphertext> cts;
  for (uint64_t v : values) {
    cts.push_back(ore.Encrypt(v));
  }
  std::sort(values.begin(), values.end());
  std::sort(cts.begin(), cts.end(),
            [](const OreCiphertext& a, const OreCiphertext& b) { return Ore::Less(a, b); });
  // Sorting ciphertexts by ORE order must match sorting plaintexts.
  const Ore same_key(AesKey::FromSeed(6));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(cts[i], same_key.Encrypt(values[i]));
  }
}

TEST(OreTest, PackedAccessors) {
  OreCiphertext ct;
  for (int i = 0; i < 64; ++i) {
    ct.SetU(i, static_cast<uint8_t>(i % 3));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(ct.U(i), i % 3);
  }
}

class OreBitPositionTest : public ::testing::TestWithParam<int> {};

TEST_P(OreBitPositionTest, SingleBitDifference) {
  const int bit = GetParam();
  const Ore ore(AesKey::FromSeed(7));
  const uint64_t base = 0xf0f0f0f0f0f0f0f0ULL & ~(1ull << (63 - bit));
  const uint64_t with_bit = base | (1ull << (63 - bit));
  const OreComparison cmp = Ore::Compare(ore.Encrypt(with_bit), ore.Encrypt(base));
  EXPECT_EQ(cmp.order, 1);
  EXPECT_EQ(cmp.inddiff, bit);
}

INSTANTIATE_TEST_SUITE_P(Bits, OreBitPositionTest, ::testing::Values(0, 1, 7, 8, 31, 32, 62, 63));

}  // namespace
}  // namespace seabed
