#include "src/encoding/lz.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/encoding/varint.h"

namespace seabed {
namespace {

class LzLevelTest : public ::testing::TestWithParam<LzLevel> {};

TEST_P(LzLevelTest, EmptyInput) {
  const Bytes out = LzCompress({}, GetParam());
  EXPECT_TRUE(LzDecompress(out).empty());
}

TEST_P(LzLevelTest, SingleByte) {
  const Bytes input = {0x42};
  EXPECT_EQ(LzDecompress(LzCompress(input, GetParam())), input);
}

TEST_P(LzLevelTest, HighlyRepetitiveCompresses) {
  Bytes input(100000, 0xaa);
  const Bytes packed = LzCompress(input, GetParam());
  EXPECT_EQ(LzDecompress(packed), input);
  EXPECT_LT(packed.size(), input.size() / 50);
}

TEST_P(LzLevelTest, RandomDataRoundTrips) {
  Rng rng(3);
  Bytes input(50000);
  for (auto& b : input) {
    b = static_cast<uint8_t>(rng.Next());
  }
  EXPECT_EQ(LzDecompress(LzCompress(input, GetParam())), input);
}

TEST_P(LzLevelTest, StructuredDataRoundTrips) {
  // Varint-style deltas — the actual payload shape of Seabed ID lists.
  Rng rng(4);
  Bytes input;
  for (int i = 0; i < 20000; ++i) {
    input.push_back(static_cast<uint8_t>(rng.Below(4)));
    input.push_back(1);
  }
  const Bytes packed = LzCompress(input, GetParam());
  EXPECT_EQ(LzDecompress(packed), input);
  EXPECT_LT(packed.size(), input.size());
}

TEST_P(LzLevelTest, OverlappingMatchSelfReference) {
  // "abcabcabc..." forces distance-3 matches longer than the distance.
  Bytes input;
  for (int i = 0; i < 3000; ++i) {
    input.push_back(static_cast<uint8_t>('a' + i % 3));
  }
  EXPECT_EQ(LzDecompress(LzCompress(input, GetParam())), input);
}

INSTANTIATE_TEST_SUITE_P(Levels, LzLevelTest,
                         ::testing::Values(LzLevel::kFast, LzLevel::kCompact),
                         [](const auto& info) {
                           return info.param == LzLevel::kFast ? "Fast" : "Compact";
                         });

TEST(LzTest, CompactIsAtLeastAsSmallOnRedundantData) {
  Rng rng(5);
  Bytes input;
  // Long-range redundancy: repeat a 100 KiB block (outside the fast window).
  Bytes block(100000);
  for (auto& b : block) {
    b = static_cast<uint8_t>(rng.Below(16));
  }
  input.insert(input.end(), block.begin(), block.end());
  input.insert(input.end(), block.begin(), block.end());
  const size_t fast = LzCompress(input, LzLevel::kFast).size();
  const size_t compact = LzCompress(input, LzLevel::kCompact).size();
  EXPECT_LE(compact, fast);
}

TEST(LzDeathTest, SizeClaimBeyondInputIsRejected) {
  // Two bytes of tokens expand to at most kMaxMatch (64 KiB) bytes.
  Bytes input;
  PutVarint(input, uint64_t{1} << 40);
  input.insert(input.end(), {2, 'a'});
  EXPECT_DEATH(LzDecompress(input), "corrupt LZ header");
}

TEST(LzDeathTest, MatchOverrunningDeclaredSizeIsRejected) {
  Bytes input;
  PutVarint(input, 4);
  input.insert(input.end(), {2, 'a'});        // literal "a"
  input.insert(input.end(), {(8 << 1) | 1, 1});  // 8-byte match, distance 1
  EXPECT_DEATH(LzDecompress(input), "overruns");
}

}  // namespace
}  // namespace seabed
