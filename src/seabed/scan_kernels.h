// Vectorized columnar scan kernels for the encrypted server's hot loop.
//
// Server::Execute evaluates predicates a row group at a time: each predicate
// kind fills (ANDs into) a SelectionBitmap over a whole row group,
// predicates combine by bitmap intersection instead of per-row
// short-circuiting, and aggregation consumes the final bitmap word by word
// (a popcount for COUNT, a masked sum for an ungrouped SUM, the set bits for
// a grouped one). Both sides of a join take this path — the fact scan, and the
// right table's filter before its rows enter the join index. The ciphertext
// layouts make this profitable without any key material:
//
//   * DET tokens are plain 64-bit equality — one SIMD compare covers 4 (AVX2)
//     or 2 (SSE2/NEON) rows;
//   * plain int64 predicates are signed compares, same widths;
//   * ORE comparison is "find the first differing 2-bit u-slot": one 16-byte
//     SIMD equality against the operand locates the first differing byte over
//     all shared-prefix bytes at once (the scalar path walks them one by
//     one), and a two-instruction bit-trick resolves the order from that
//     byte. Real-world range operands share long prefixes with the data
//     (timestamps in one epoch), which is exactly where the byte walk hurts;
//   * plain strings are dictionary codes; equality runs scalar over the
//     surviving bits only (see SelectionBitmap::Retain).
//
// Dispatch is compile-time ISA selection (SSE2/AVX2 on x86-64, NEON on
// aarch64) with a runtime AVX2 check, plus a portable scalar fallback that is
// always compiled and takes over entirely under -DSEABED_NO_SIMD (the CI
// escape hatch; see CMakeLists.txt). Every kernel is semantically identical
// to the plaintext predicate it evaluates — the fuzz-equivalence suite pins
// this against kPlain on both builds.
#ifndef SEABED_SRC_SEABED_SCAN_KERNELS_H_
#define SEABED_SRC_SEABED_SCAN_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/crypto/ore.h"
#include "src/encoding/bitmap.h"
#include "src/query/query.h"

namespace seabed {

// The instruction set the kernels dispatched to: "avx2", "sse2", "neon" or
// "scalar". Diagnostic only (bench output); resolved once at first use.
const char* ScanKernelIsaName();

// All kernels AND their verdicts into `sel` over rows [0, n) of the given
// column span — bit i of `sel` corresponds to span element i, and a kernel
// can only clear bits. `sel` must hold exactly n bits with its tail already
// masked (SelectionBitmap::Reset guarantees this).

// DET equality: keeps rows whose token equals `token` (negated: differs).
void FilterDetEq(const uint64_t* tokens, size_t n, bool negate, uint64_t token,
                 SelectionBitmap& sel);

// Plain int64 comparison: keeps rows where `values[i] <op> operand`.
void FilterInt64Cmp(const int64_t* values, size_t n, CmpOp op, int64_t operand,
                    SelectionBitmap& sel);

// ORE comparison: keeps rows where the plaintext of cells[i] is <op> the
// plaintext of `operand` (per Ore::Compare's order).
void FilterOreCmp(const OreCiphertext* cells, size_t n, CmpOp op,
                  const OreCiphertext& operand, SelectionBitmap& sel);

// Aggregation kernel: the Z_{2^64} (wraparound) sum of cells[i] over the set
// bits i of `sel` — an ungrouped ASHE SUM over one row group, one masked add
// per cell instead of a per-row visit. `cells` spans sel.size() elements.
uint64_t SumSelected(const uint64_t* cells, const SelectionBitmap& sel);

// Fixed-width key tuples -> dense ordinals 0, 1, 2, ... in insertion order:
// the server's GROUP BY keys (DET tokens, plain int64s, string dictionary
// codes, the inflation suffix) and its join tokens. Flat open addressing:
// linear probing over a power-of-two slot array kept at most half full, the
// tuples stored back to back in one vector. Nothing allocates per lookup.
class OrdinalTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // `expected`: tuples to size the slot array for up front (a hint). Even
  // a handful of groups gets 64 slots: fewer make probe chains, and their
  // mispredicted branches, common.
  explicit OrdinalTable(size_t width, size_t expected = 0)
      : width_(width), slots_(std::bit_ceil(std::max<size_t>(64, 2 * expected)), kAbsent) {}

  size_t size() const { return size_; }
  // The tuple of ordinal `ord` (width values).
  const uint64_t* key(size_t ord) const { return keys_.data() + ord * width_; }

  // Ordinal of the tuple `parts` (width values), or kAbsent.
  uint32_t Find(const uint64_t* parts) const {
    size_t s = Home(parts);
    while (slots_[s] != kAbsent && !Equal(slots_[s], parts)) {
      s = (s + 1) & (slots_.size() - 1);
    }
    return slots_[s];
  }

  // Ordinal of `parts`; a new tuple gets ordinal size() - 1.
  uint32_t FindOrInsert(const uint64_t* parts) {
    size_t s = Home(parts);
    for (; slots_[s] != kAbsent; s = (s + 1) & (slots_.size() - 1)) {
      if (Equal(slots_[s], parts)) {
        return slots_[s];
      }
    }
    const uint32_t ord = static_cast<uint32_t>(size_++);
    slots_[s] = ord;
    for (size_t j = 0; j < width_; ++j) {
      keys_.push_back(parts[j]);
    }
    if (2 * size_ > slots_.size()) {
      Grow();
    }
    return ord;
  }

 private:
  // Single-part keys (the common GROUP BY, and join tokens) skip the loops.
  size_t Home(const uint64_t* parts) const {
    uint64_t h = 0;
    if (width_ == 1) {
      h = parts[0] * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    for (size_t j = 0; width_ != 1 && j < width_; ++j) {
      h = (h ^ parts[j]) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    return static_cast<size_t>(h) & (slots_.size() - 1);
  }

  bool Equal(uint32_t ord, const uint64_t* parts) const {
    const uint64_t* k = key(ord);
    if (width_ == 1) {
      return k[0] == parts[0];
    }
    for (size_t j = 0; j < width_; ++j) {
      if (k[j] != parts[j]) {
        return false;
      }
    }
    return true;
  }

  void Grow();  // doubles the slot array and re-homes every ordinal

  size_t width_;
  size_t size_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> slots_;
};

// Broadcast join index on DET tokens: the build side's surviving rows
// bucketed by token (row order kept within a bucket) under one offsets
// array, so a probe is one ordinal lookup and a contiguous span.
class JoinIndex {
 public:
  // `rows`: the right rows that passed the right table's predicates,
  // ascending; `tokens`: the right table's join-key column.
  JoinIndex(const uint64_t* tokens, std::span<const size_t> rows);

  // The indexed rows whose token is `token`, ascending.
  std::span<const size_t> Matches(uint64_t token) const {
    const uint32_t bucket = buckets_.Find(&token);
    if (bucket == OrdinalTable::kAbsent) {
      return {};
    }
    return std::span<const size_t>(rows_).subspan(offsets_[bucket],
                                                  offsets_[bucket + 1] - offsets_[bucket]);
  }

 private:
  OrdinalTable buckets_;         // token -> bucket
  std::vector<size_t> offsets_;  // bucket b: rows_[offsets_[b], offsets_[b + 1])
  std::vector<size_t> rows_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SCAN_KERNELS_H_
