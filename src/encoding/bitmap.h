// Bitmap encoding of ID sets — evaluated and rejected by the paper — plus
// the in-memory selection bitmaps the vectorized scan kernels fill.
//
// Section 6.4: "The bitmap algorithms performed poorly, so we omit them here
// for brevity." We keep the codec so the Figure 8 ablation can show *why*
// (bitmaps pay for the full id universe between min and max, which is exactly
// wrong for sparse selections). Only plain sets (multiplicity 1) are
// representable; callers fall back to the run codec otherwise.
//
// SelectionBitmap is different machinery with the same substrate: one bit per
// row of a scan row group, filled by the predicate kernels
// (src/seabed/scan_kernels.h) and consumed word-at-a-time by aggregation:
// popcounts for COUNT, masked sums (SumSelected) and set-bit runs (the ID
// lists) for ungrouped ASHE sums, and set-bit iteration for grouped ones.
// Invariant: bits at positions >= size() are always zero (Reset masks the
// tail word), so kernels may AND whole words — including a garbage tail —
// without ever resurrecting an out-of-range row.
#ifndef SEABED_SRC_ENCODING_BITMAP_H_
#define SEABED_SRC_ENCODING_BITMAP_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/crypto/id_set.h"

namespace seabed {

// Encodes `ids` (must satisfy IsPlainSet()) as base + bit array.
Bytes BitmapEncode(const IdSet& ids);

// Inverse of BitmapEncode.
IdSet BitmapDecode(const Bytes& bytes);

// One bit per row of a row group, stored in 64-bit words. Predicates AND
// into it (a kernel can only clear bits), aggregation iterates the set bits.
class SelectionBitmap {
 public:
  SelectionBitmap() = default;
  explicit SelectionBitmap(size_t bits, bool all_set = false) { Reset(bits, all_set); }

  // Mask selecting the valid bits of the last word of a `bits`-bit bitmap.
  static constexpr uint64_t TailMask(size_t bits) {
    const size_t rem = bits % 64;
    return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
  }

  // Re-dimensions to `bits` and sets every valid bit (or none). Reuses the
  // word storage, so one bitmap serves every chunk of a scan task.
  void Reset(size_t bits, bool all_set) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, all_set ? ~uint64_t{0} : 0);
    if (all_set && !words_.empty()) {
      words_.back() &= TailMask(bits);
    }
  }

  size_t size() const { return bits_; }
  size_t num_words() const { return words_.size(); }
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }

  bool Test(size_t i) const { return (words_[i / 64] >> (i % 64)) & 1; }
  void Set(size_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
  void Clear(size_t i) { words_[i / 64] &= ~(uint64_t{1} << (i % 64)); }

  // Intersects with `other` (same length required): predicates combine by
  // AND instead of short-circuiting row-at-a-time.
  void And(const SelectionBitmap& other) {
    SEABED_CHECK_MSG(other.bits_ == bits_, "AND of selection bitmaps of unequal length");
    for (size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= other.words_[w];
    }
  }

  bool Any() const {
    for (const uint64_t w : words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }

  size_t Count() const {
    size_t n = 0;
    for (const uint64_t w : words_) {
      n += static_cast<size_t>(std::popcount(w));
    }
    return n;
  }

  // Word-at-a-time set-bit iteration (ascending): `fn(bit_index)`.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  // Maximal runs of consecutive set bits (ascending): `fn(begin, end)` for
  // each run of set bits [begin, end). A fully selected row group is one
  // call, which is how an ASHE sum's ID list comes straight from the bitmap.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    const size_t nw = words_.size();
    if (nw == 0) {
      return;
    }
    size_t w = 0;
    uint64_t word = words_[0];  // set bits of word w not yet visited
    for (;;) {
      while (word == 0) {
        if (++w == nw) {
          return;
        }
        word = words_[w];
      }
      const size_t begin = w * 64 + static_cast<size_t>(std::countr_zero(word));
      uint64_t gaps = ~word & (~uint64_t{0} << (begin % 64));  // clear bits at or after begin
      while (gaps == 0) {
        if (++w == nw) {
          fn(begin, nw * 64);
          return;
        }
        gaps = ~words_[w];
      }
      const size_t end = w * 64 + static_cast<size_t>(std::countr_zero(gaps));
      fn(begin, end);
      word = words_[w] & (~uint64_t{0} << (end % 64));
    }
  }

  // Scalar residual filter: clears every set bit whose row `keep` rejects.
  // Runs over surviving bits only — the cheap predicates already thinned the
  // bitmap, so expensive residuals (string compares) touch few rows.
  template <typename Fn>
  void Retain(Fn&& keep) {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const uint64_t lowest = word & (0 - word);
        if (!keep(w * 64 + static_cast<size_t>(std::countr_zero(word)))) {
          words_[w] &= ~lowest;
        }
        word &= word - 1;
      }
    }
  }

 private:
  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace seabed

#endif  // SEABED_SRC_ENCODING_BITMAP_H_
