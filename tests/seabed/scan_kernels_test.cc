// Scan-kernel correctness: every vectorized kernel must agree bit-for-bit
// with the scalar predicate it replaces, across all CmpOps, negation, word
// tails (n not a multiple of 64) and pre-thinned bitmaps; the aggregation
// kernels (masked sums, set-bit runs, ordinal table, join index) must agree
// with their one-row-at-a-time definitions. On a SIMD build
// this exercises the dispatched ISA paths; under SEABED_NO_SIMD the same
// assertions pin the portable fallback.
#include "src/seabed/scan_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/ore.h"

namespace seabed {
namespace {

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// Sizes straddling word and SIMD-lane boundaries, plus a full row group.
constexpr size_t kSizes[] = {0, 1, 3, 63, 64, 65, 127, 128, 130, 1000, 4096};

TEST(ScanKernelsTest, IsaNameIsKnown) {
  const std::string isa = ScanKernelIsaName();
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "neon" || isa == "scalar") << isa;
}

TEST(ScanKernelsTest, DetEqMatchesScalar) {
  Rng rng(11);
  for (const size_t n : kSizes) {
    std::vector<uint64_t> tokens(n);
    const uint64_t needle = 0xabcdef0123456789ULL;
    for (size_t i = 0; i < n; ++i) {
      // ~1/4 of rows match so both verdicts are well represented.
      tokens[i] = rng.Below(4) == 0 ? needle : rng.Next();
    }
    for (const bool negate : {false, true}) {
      SelectionBitmap sel(n, /*all_set=*/true);
      FilterDetEq(tokens.data(), n, negate, needle, sel);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sel.Test(i), (tokens[i] == needle) != negate) << n << " @" << i;
      }
    }
  }
}

TEST(ScanKernelsTest, Int64CmpMatchesScalarAllOps) {
  Rng rng(12);
  for (const size_t n : kSizes) {
    std::vector<int64_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      // Small range around the operand, including negatives, so every
      // comparison outcome occurs; a few extremes to catch overflow tricks.
      values[i] = static_cast<int64_t>(rng.Below(41)) - 20;
      if (rng.Below(32) == 0) {
        values[i] = rng.Below(2) ? INT64_MAX : INT64_MIN;
      }
    }
    for (const CmpOp op : kAllOps) {
      for (const int64_t operand : {int64_t{0}, int64_t{-7}, INT64_MAX, INT64_MIN}) {
        SelectionBitmap sel(n, /*all_set=*/true);
        FilterInt64Cmp(values.data(), n, op, operand, sel);
        for (size_t i = 0; i < n; ++i) {
          const int64_t v = values[i];
          const int order = v < operand ? -1 : (v > operand ? 1 : 0);
          EXPECT_EQ(sel.Test(i), CmpOpMatchesOrder(op, order))
              << n << " @" << i << " op=" << static_cast<int>(op);
        }
      }
    }
  }
}

TEST(ScanKernelsTest, OreCmpMatchesScalarAllOps) {
  const Ore ore(AesKey::FromSeed(99));
  Rng rng(13);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{65}, size_t{1000}}) {
    // Cluster plaintexts around the operand so ciphertexts share long
    // prefixes (the realistic timestamp case) and equality occurs.
    const uint64_t pivot = 1'600'000'000;
    std::vector<uint64_t> plain(n);
    std::vector<OreCiphertext> cells(n);
    for (size_t i = 0; i < n; ++i) {
      plain[i] = pivot + rng.Below(200) - 100;
      cells[i] = ore.Encrypt(plain[i]);
    }
    const OreCiphertext operand = ore.Encrypt(pivot);
    for (const CmpOp op : kAllOps) {
      SelectionBitmap sel(n, /*all_set=*/true);
      FilterOreCmp(cells.data(), n, op, operand, sel);
      for (size_t i = 0; i < n; ++i) {
        const int order = Ore::Compare(cells[i], operand).order;
        EXPECT_EQ(sel.Test(i), CmpOpMatchesOrder(op, order))
            << n << " @" << i << " op=" << static_cast<int>(op);
      }
    }
  }
}

TEST(ScanKernelsTest, KernelsAndIntoPrethinnedBitmap) {
  // Kernels AND into the bitmap: a bit cleared by an earlier predicate must
  // stay cleared even where the later predicate matches.
  const size_t n = 200;
  std::vector<uint64_t> tokens(n, 42);  // every row matches DET eq
  SelectionBitmap sel(n, /*all_set=*/true);
  for (size_t i = 0; i < n; i += 2) {
    sel.Clear(i);
  }
  FilterDetEq(tokens.data(), n, /*negate=*/false, 42, sel);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(sel.Test(i), i % 2 == 1) << i;
  }

  // Same for the ORE kernel (it skips already-dead words).
  const Ore ore(AesKey::FromSeed(7));
  std::vector<OreCiphertext> cells(n, ore.Encrypt(5));
  FilterOreCmp(cells.data(), n, CmpOp::kLe, ore.Encrypt(9), sel);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(sel.Test(i), i % 2 == 1) << i;
  }
}

// Selections of every density: empty, sparse, half, dense, full.
SelectionBitmap RandomSelection(size_t n, uint64_t keep_in_8, Rng& rng) {
  SelectionBitmap sel(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Below(8) < keep_in_8) {
      sel.Set(i);
    }
  }
  return sel;
}

TEST(ScanKernelsTest, SumSelectedMatchesRowAtATimeSum) {
  Rng rng(14);
  for (const size_t n : kSizes) {
    std::vector<uint64_t> cells(n);
    for (auto& c : cells) {
      c = rng.Next();  // full 64-bit values: the sum must wrap like ASHE's group
    }
    for (const uint64_t keep : {0, 1, 4, 7, 8}) {
      const SelectionBitmap sel = RandomSelection(n, keep, rng);
      uint64_t want = 0;
      sel.ForEachSet([&](size_t i) { want += cells[i]; });
      EXPECT_EQ(SumSelected(cells.data(), sel), want) << n << " keep " << keep;
    }
  }
}

TEST(ScanKernelsTest, ForEachRunVisitsMaximalRunsOfSetBits) {
  Rng rng(15);
  for (const size_t n : kSizes) {
    for (const uint64_t keep : {0, 1, 4, 7, 8}) {
      const SelectionBitmap sel = RandomSelection(n, keep, rng);
      std::vector<std::pair<size_t, size_t>> want;
      for (size_t i = 0; i < n; ++i) {
        if (!sel.Test(i)) {
          continue;
        }
        if (!want.empty() && want.back().second == i) {
          ++want.back().second;
        } else {
          want.emplace_back(i, i + 1);
        }
      }
      std::vector<std::pair<size_t, size_t>> got;
      sel.ForEachRun([&](size_t begin, size_t end) { got.emplace_back(begin, end); });
      EXPECT_EQ(got, want) << n << " keep " << keep;
    }
  }
}

TEST(ScanKernelsTest, OrdinalTableNumbersTuplesInFirstSeenOrder) {
  // Two-part tuples with colliding halves, enough to grow the table
  // several times; a std::map is the reference numbering.
  Rng rng(16);
  OrdinalTable table(2);
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> want;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t parts[2] = {rng.Below(300), rng.Below(40) << 40};
    const auto [it, fresh] = want.emplace(std::make_pair(parts[0], parts[1]),
                                          static_cast<uint32_t>(want.size()));
    ASSERT_EQ(table.FindOrInsert(parts), it->second);
    ASSERT_EQ(table.size(), want.size());
    if (fresh) {
      EXPECT_EQ(table.key(it->second)[0], parts[0]);
      EXPECT_EQ(table.key(it->second)[1], parts[1]);
    }
  }
  for (const auto& [key, ord] : want) {
    const uint64_t parts[2] = {key.first, key.second};
    EXPECT_EQ(table.Find(parts), ord);
  }
  const uint64_t absent[2] = {1000, 0};
  EXPECT_EQ(table.Find(absent), OrdinalTable::kAbsent);
}

TEST(ScanKernelsTest, JoinIndexReturnsEveryIndexedRowOfAToken) {
  Rng rng(17);
  std::vector<uint64_t> tokens(5000);
  for (auto& t : tokens) {
    t = 0x9e3779b97f4a7c15ULL * (1 + rng.Below(700));  // repeated keys
  }
  std::vector<size_t> indexed;  // a filtered subset, ascending
  for (size_t r = 0; r < tokens.size(); ++r) {
    if (rng.Below(3) != 0) {
      indexed.push_back(r);
    }
  }
  const JoinIndex index(tokens.data(), indexed);
  std::map<uint64_t, std::vector<size_t>> want;
  for (const size_t r : indexed) {
    want[tokens[r]].push_back(r);
  }
  for (const auto& [token, rows] : want) {
    const std::span<const size_t> got = index.Matches(token);
    EXPECT_EQ(std::vector<size_t>(got.begin(), got.end()), rows);
  }
  EXPECT_TRUE(index.Matches(12345).empty());
}

}  // namespace
}  // namespace seabed
