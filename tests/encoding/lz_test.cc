#include "src/encoding/lz.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

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

// Payloads shaped like ID lists (small varint deltas): many repeated
// 4-byte windows, so a match table left dirty by an earlier call would
// offer stale candidates that line up with real bytes.
Bytes IdListShapedInput(uint64_t seed, size_t len) {
  Rng rng(seed);
  Bytes input(len);
  for (auto& b : input) {
    b = static_cast<uint8_t>(1 + rng.Below(3));
  }
  return input;
}

Bytes CompressOnFreshThread(const Bytes& input, LzLevel level) {
  Bytes out;
  std::thread([&] { out = LzCompress(input, level); }).join();
  return out;
}

TEST_P(LzLevelTest, ReusedTableGivesFreshTableBytes) {
  // The match table is per thread and reused: a call after a large input
  // must produce exactly the bytes a never-used table (a fresh thread's)
  // produces, for large and small inputs alike.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Bytes large = IdListShapedInput(100 + seed, 200000);
    const Bytes small = IdListShapedInput(200 + seed, 8 + seed * 13);
    const Bytes large_out = LzCompress(large, GetParam());
    const Bytes small_out = LzCompress(small, GetParam());
    EXPECT_EQ(large_out, CompressOnFreshThread(large, GetParam())) << seed;
    EXPECT_EQ(small_out, CompressOnFreshThread(small, GetParam())) << seed;
    EXPECT_EQ(LzDecompress(small_out), small);
  }
}

TEST_P(LzLevelTest, ConcurrentCallsMatchSequentialBytes) {
  // Two threads compress interleaved large and small inputs at once; each
  // output must equal the sequential one (and TSan sees no shared table).
  std::vector<Bytes> inputs;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    inputs.push_back(IdListShapedInput(300 + seed, seed % 2 == 0 ? 50000 : 40 + seed));
  }
  std::vector<Bytes> expected;
  for (const Bytes& input : inputs) {
    expected.push_back(LzCompress(input, GetParam()));
  }
  auto worker = [&](size_t offset, std::vector<Bytes>* outs) {
    for (size_t round = 0; round < 4; ++round) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        outs->push_back(LzCompress(inputs[(i + offset) % inputs.size()], GetParam()));
      }
    }
  };
  std::vector<Bytes> a;
  std::vector<Bytes> b;
  std::thread ta(worker, 0, &a);
  std::thread tb(worker, 3, &b);
  ta.join();
  tb.join();
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], expected[k % inputs.size()]) << k;
    EXPECT_EQ(b[k], expected[(k + 3) % inputs.size()]) << k;
  }
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
