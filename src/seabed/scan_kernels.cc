#include "src/seabed/scan_kernels.h"

#include <algorithm>
#include <bit>

// ISA selection. SEABED_NO_SIMD (CMake escape hatch) forces the portable
// scalar fallback everywhere; otherwise x86-64 gets SSE2 baseline kernels
// with an AVX2 upgrade behind a runtime cpuid check (the AVX2 bodies carry a
// target attribute, so the rest of the file never emits VEX encodings and the
// binary stays runnable on SSE2-only hosts), and aarch64 gets NEON (baseline
// there).
#if !defined(SEABED_NO_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define SEABED_SCAN_X86 1
#include <immintrin.h>
#elif !defined(SEABED_NO_SIMD) && defined(__aarch64__)
#define SEABED_SCAN_NEON 1
#include <arm_neon.h>
#endif

namespace seabed {
namespace {

#if defined(SEABED_SCAN_X86)
bool HasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif

// ---- 64-row word kernels -----------------------------------------------------
// Each returns a 64-bit verdict word for rows [0, 64) of its span (bit i =
// row i passes). Tail blocks (< 64 rows) always run the scalar variant; the
// unused high bits it leaves zero are harmless because callers AND the word
// into a bitmap whose tail bits are already zero.

uint64_t DetEqWordScalar(const uint64_t* tokens, size_t n, uint64_t token) {
  uint64_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    m |= static_cast<uint64_t>(tokens[i] == token) << i;
  }
  return m;
}

uint64_t Int64CmpWordScalar(const int64_t* values, size_t n, CmpOp op, int64_t operand) {
  uint64_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const int order = values[i] < operand ? -1 : (values[i] > operand ? 1 : 0);
    m |= static_cast<uint64_t>(CmpOpMatchesOrder(op, order)) << i;
  }
  return m;
}

#if defined(SEABED_SCAN_X86)

__attribute__((target("avx2"))) uint64_t DetEqWordAvx2(const uint64_t* tokens, uint64_t token) {
  const __m256i needle = _mm256_set1_epi64x(static_cast<long long>(token));
  uint64_t m = 0;
  for (int k = 0; k < 16; ++k) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tokens + k * 4));
    const int bits = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, needle)));
    m |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (k * 4);
  }
  return m;
}

uint64_t DetEqWordSse2(const uint64_t* tokens, uint64_t token) {
  // SSE2 has no 64-bit compare: equal 64-bit lanes are lanes whose both
  // 32-bit halves compare equal.
  const __m128i needle = _mm_set1_epi64x(static_cast<long long>(token));
  uint64_t m = 0;
  for (int k = 0; k < 32; ++k) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tokens + k * 2));
    const __m128i eq32 = _mm_cmpeq_epi32(v, needle);
    const __m128i eq64 = _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int bits = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    m |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (k * 2);
  }
  return m;
}

__attribute__((target("avx2"))) uint64_t Int64CmpWordAvx2(const int64_t* values, CmpOp op,
                                                          int64_t operand) {
  // All six operators reduce to one compare + optional inversion:
  //   eq/ne from CMPEQ, gt/le from CMPGT(v, o), lt/ge from CMPGT(o, v).
  const bool use_eq = op == CmpOp::kEq || op == CmpOp::kNe;
  const bool swap = op == CmpOp::kLt || op == CmpOp::kGe;
  const bool invert = op == CmpOp::kNe || op == CmpOp::kLe || op == CmpOp::kGe;
  const __m256i o = _mm256_set1_epi64x(static_cast<long long>(operand));
  uint64_t m = 0;
  for (int k = 0; k < 16; ++k) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + k * 4));
    const __m256i c = use_eq   ? _mm256_cmpeq_epi64(v, o)
                      : swap   ? _mm256_cmpgt_epi64(o, v)
                               : _mm256_cmpgt_epi64(v, o);
    const int bits = _mm256_movemask_pd(_mm256_castsi256_pd(c));
    m |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (k * 4);
  }
  return invert ? ~m : m;
}

__attribute__((target("avx2"))) uint64_t SumWordAvx2(const uint64_t* cells, uint64_t word) {
  // Lane j of block k keeps its cell iff bit 4k + j of the word is set.
  const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
  __m256i acc = _mm256_setzero_si256();
  for (int k = 0; k < 16; ++k) {
    const __m256i bits = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(word >> (k * 4))), lane_bits);
    const __m256i keep = _mm256_cmpeq_epi64(bits, lane_bits);
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + k * 4));
    acc = _mm256_add_epi64(acc, _mm256_and_si256(v, keep));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

#elif defined(SEABED_SCAN_NEON)

uint64_t SumWordNeon(const uint64_t* cells, uint64_t word) {
  const uint64x2_t lane_bits = {1, 2};
  uint64x2_t acc = vdupq_n_u64(0);
  for (int k = 0; k < 32; ++k) {
    const uint64x2_t bits = vandq_u64(vdupq_n_u64(word >> (k * 2)), lane_bits);
    const uint64x2_t keep = vceqq_u64(bits, lane_bits);
    acc = vaddq_u64(acc, vandq_u64(vld1q_u64(cells + k * 2), keep));
  }
  return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
}

uint64_t DetEqWordNeon(const uint64_t* tokens, uint64_t token) {
  const uint64x2_t needle = vdupq_n_u64(token);
  uint64_t m = 0;
  for (int k = 0; k < 32; ++k) {
    const uint64x2_t v = vld1q_u64(tokens + k * 2);
    const uint64x2_t eq = vceqq_u64(v, needle);
    m |= (vgetq_lane_u64(eq, 0) & 1) << (k * 2);
    m |= (vgetq_lane_u64(eq, 1) & 1) << (k * 2 + 1);
  }
  return m;
}

uint64_t Int64CmpWordNeon(const int64_t* values, CmpOp op, int64_t operand) {
  const bool use_eq = op == CmpOp::kEq || op == CmpOp::kNe;
  const bool swap = op == CmpOp::kLt || op == CmpOp::kGe;
  const bool invert = op == CmpOp::kNe || op == CmpOp::kLe || op == CmpOp::kGe;
  const int64x2_t o = vdupq_n_s64(operand);
  uint64_t m = 0;
  for (int k = 0; k < 32; ++k) {
    const int64x2_t v = vld1q_s64(values + k * 2);
    const uint64x2_t c = use_eq ? vceqq_s64(v, o) : (swap ? vcgtq_s64(o, v) : vcgtq_s64(v, o));
    m |= (vgetq_lane_u64(c, 0) & 1) << (k * 2);
    m |= (vgetq_lane_u64(c, 1) & 1) << (k * 2 + 1);
  }
  return invert ? ~m : m;
}

#endif

// Sum of the cells under the set bits of `word` (cells spans >= the highest
// set bit): a sparse word visits its set bits, a full one adds all 64.
uint64_t SumWordScalar(const uint64_t* cells, uint64_t word) {
  uint64_t sum = 0;
  if (word == ~uint64_t{0}) {
    for (size_t i = 0; i < 64; ++i) {
      sum += cells[i];
    }
    return sum;
  }
  while (word != 0) {
    sum += cells[std::countr_zero(word)];
    word &= word - 1;
  }
  return sum;
}

// ---- per-row ORE order ------------------------------------------------------
// Ore::Compare semantics: scan the 64 2-bit u-slots MSB-first (= byte 0
// upward, low bit-pair first within a byte); at the first differing slot,
// ct > operand iff u_ct == u_op + 1 (mod 3). The SIMD variants replace the
// byte-by-byte walk over the shared prefix with one 16-byte equality.

[[maybe_unused]] int OreOrderFromByte(uint8_t x, uint8_t y) {
  // First differing 2-bit slot = the bit pair holding the lowest set bit of
  // the XOR; u values are in {0,1,2} by construction.
  const unsigned diff = static_cast<unsigned>(x ^ y);
  const int shift = std::countr_zero(diff) & ~1;
  const unsigned u1 = (static_cast<unsigned>(x) >> shift) & 3;
  const unsigned u2 = (static_cast<unsigned>(y) >> shift) & 3;
  return u1 == (u2 + 1) % 3 ? 1 : -1;
}

[[maybe_unused]] int OreOrderScalar(const OreCiphertext& ct, const OreCiphertext& operand) {
  return Ore::Compare(ct, operand).order;
}

#if defined(SEABED_SCAN_X86)

int OreOrderSse2(const OreCiphertext& ct, const OreCiphertext& operand, __m128i operand_vec) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ct.packed.data()));
  const unsigned eq = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, operand_vec)));
  if (eq == 0xFFFFu) {
    return 0;
  }
  const int byte = std::countr_zero(~eq & 0xFFFFu);
  return OreOrderFromByte(ct.packed[byte], operand.packed[byte]);
}

// AVX2 drive: two 16-byte ciphertexts per 256-bit compare, one movemask for
// both rows' differing-byte masks. The per-word skip of dead words matches
// OreCmpDrive below.
__attribute__((target("avx2"))) void OreCmpDriveAvx2(const OreCiphertext* cells, size_t n,
                                                     CmpOp op, const OreCiphertext& operand,
                                                     SelectionBitmap& sel) {
  const __m256i op2 = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(operand.packed.data())));
  // Hoisted verdict table: order ∈ {-1, 0, 1} -> passes.
  const bool pass_lt = CmpOpMatchesOrder(op, -1);
  const bool pass_eq = CmpOpMatchesOrder(op, 0);
  const bool pass_gt = CmpOpMatchesOrder(op, 1);
  auto verdict = [&](const OreCiphertext& ct, uint32_t ne_mask) {
    if (ne_mask == 0) {
      return pass_eq;
    }
    const int byte = std::countr_zero(ne_mask);
    return OreOrderFromByte(ct.packed[byte], operand.packed[byte]) > 0 ? pass_gt : pass_lt;
  };
  uint64_t* words = sel.words();
  for (size_t w = 0; w * 64 < n; ++w) {
    if (words[w] == 0) {
      continue;
    }
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, n - base);
    uint64_t m = 0;
    size_t i = 0;
    for (; i + 2 <= limit; i += 2) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + base + i));
      const uint32_t ne = ~static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, op2)));
      m |= static_cast<uint64_t>(verdict(cells[base + i], ne & 0xFFFFu)) << i;
      m |= static_cast<uint64_t>(verdict(cells[base + i + 1], ne >> 16)) << (i + 1);
    }
    if (i < limit) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells[base + i].packed.data()));
      const uint32_t ne = ~static_cast<uint32_t>(
                              _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm256_castsi256_si128(op2)))) &
                          0xFFFFu;
      m |= static_cast<uint64_t>(verdict(cells[base + i], ne)) << i;
    }
    words[w] &= m;
  }
}

#elif defined(SEABED_SCAN_NEON)

int OreOrderNeon(const OreCiphertext& ct, const OreCiphertext& operand, uint8x16_t operand_vec) {
  const uint8x16_t v = vld1q_u8(ct.packed.data());
  const uint8x16_t ne = vmvnq_u8(vceqq_u8(v, operand_vec));
  // Narrowing shift turns the 16 lane verdicts into a 64-bit mask with 4
  // bits per byte — aarch64's movemask idiom.
  const uint64_t mask =
      vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(ne), 4)), 0);
  if (mask == 0) {
    return 0;
  }
  const int byte = std::countr_zero(mask) >> 2;
  return OreOrderFromByte(ct.packed[byte], operand.packed[byte]);
}

#endif

// Builds verdict words from a per-row order functor, skipping words the
// earlier (cheaper) kernels already cleared — on a selective compound filter
// the ORE kernel only pays for row groups that still have candidates.
template <typename OrderFn>
void OreCmpDrive(const OreCiphertext* cells, size_t n, CmpOp op, SelectionBitmap& sel,
                 OrderFn&& order_of) {
  uint64_t* words = sel.words();
  for (size_t w = 0; w * 64 < n; ++w) {
    if (words[w] == 0) {
      continue;
    }
    const size_t limit = std::min<size_t>(64, n - w * 64);
    uint64_t m = 0;
    for (size_t i = 0; i < limit; ++i) {
      m |= static_cast<uint64_t>(CmpOpMatchesOrder(op, order_of(cells[w * 64 + i]))) << i;
    }
    words[w] &= m;
  }
}

}  // namespace

const char* ScanKernelIsaName() {
#if defined(SEABED_SCAN_X86)
  return HasAvx2() ? "avx2" : "sse2";
#elif defined(SEABED_SCAN_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

void FilterDetEq(const uint64_t* tokens, size_t n, bool negate, uint64_t token,
                 SelectionBitmap& sel) {
  uint64_t* words = sel.words();
  const size_t full = n / 64;
  size_t w = 0;
#if defined(SEABED_SCAN_X86)
  if (HasAvx2()) {
    for (; w < full; ++w) {
      const uint64_t m = DetEqWordAvx2(tokens + w * 64, token);
      words[w] &= negate ? ~m : m;
    }
  } else {
    for (; w < full; ++w) {
      const uint64_t m = DetEqWordSse2(tokens + w * 64, token);
      words[w] &= negate ? ~m : m;
    }
  }
#elif defined(SEABED_SCAN_NEON)
  for (; w < full; ++w) {
    const uint64_t m = DetEqWordNeon(tokens + w * 64, token);
    words[w] &= negate ? ~m : m;
  }
#else
  for (; w < full; ++w) {
    const uint64_t m = DetEqWordScalar(tokens + w * 64, 64, token);
    words[w] &= negate ? ~m : m;
  }
#endif
  const size_t tail = n % 64;
  if (tail != 0) {
    const uint64_t m = DetEqWordScalar(tokens + full * 64, tail, token);
    // Under negation the garbage high bits of ~m are ones; the bitmap's
    // masked tail keeps them from resurrecting out-of-range rows.
    words[full] &= negate ? ~m : m;
  }
}

void FilterInt64Cmp(const int64_t* values, size_t n, CmpOp op, int64_t operand,
                    SelectionBitmap& sel) {
  uint64_t* words = sel.words();
  const size_t full = n / 64;
  size_t w = 0;
#if defined(SEABED_SCAN_X86)
  if (HasAvx2()) {
    for (; w < full; ++w) {
      words[w] &= Int64CmpWordAvx2(values + w * 64, op, operand);
    }
  }
  // SSE2 lacks a 64-bit signed compare; pre-AVX2 hosts take the scalar loop.
#elif defined(SEABED_SCAN_NEON)
  for (; w < full; ++w) {
    words[w] &= Int64CmpWordNeon(values + w * 64, op, operand);
  }
#endif
  for (; w < full; ++w) {
    words[w] &= Int64CmpWordScalar(values + w * 64, 64, op, operand);
  }
  const size_t tail = n % 64;
  if (tail != 0) {
    words[full] &= Int64CmpWordScalar(values + full * 64, tail, op, operand);
  }
}

void FilterOreCmp(const OreCiphertext* cells, size_t n, CmpOp op, const OreCiphertext& operand,
                  SelectionBitmap& sel) {
#if defined(SEABED_SCAN_X86)
  if (HasAvx2()) {
    OreCmpDriveAvx2(cells, n, op, operand, sel);
    return;
  }
  const __m128i operand_vec =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(operand.packed.data()));
  OreCmpDrive(cells, n, op, sel,
              [&](const OreCiphertext& ct) { return OreOrderSse2(ct, operand, operand_vec); });
#elif defined(SEABED_SCAN_NEON)
  const uint8x16_t operand_vec = vld1q_u8(operand.packed.data());
  OreCmpDrive(cells, n, op, sel,
              [&](const OreCiphertext& ct) { return OreOrderNeon(ct, operand, operand_vec); });
#else
  OreCmpDrive(cells, n, op, sel,
              [&](const OreCiphertext& ct) { return OreOrderScalar(ct, operand); });
#endif
}

uint64_t SumSelected(const uint64_t* cells, const SelectionBitmap& sel) {
  const uint64_t* words = sel.words();
  const size_t full = sel.size() / 64;
  uint64_t sum = 0;
  size_t w = 0;
#if defined(SEABED_SCAN_X86)
  if (HasAvx2()) {
    for (; w < full; ++w) {
      // Sparse words take the set-bit walk; dense ones the masked adds.
      sum += std::popcount(words[w]) < 16 ? SumWordScalar(cells + w * 64, words[w])
                                          : SumWordAvx2(cells + w * 64, words[w]);
    }
  }
#elif defined(SEABED_SCAN_NEON)
  for (; w < full; ++w) {
    sum += std::popcount(words[w]) < 16 ? SumWordScalar(cells + w * 64, words[w])
                                        : SumWordNeon(cells + w * 64, words[w]);
  }
#endif
  for (; w < full; ++w) {
    sum += SumWordScalar(cells + w * 64, words[w]);
  }
  if (sel.size() % 64 != 0) {
    // The tail word's bits past size() are zero, so no cell past the span is read.
    sum += SumWordScalar(cells + full * 64, words[full]);
  }
  return sum;
}

void OrdinalTable::Grow() {
  slots_.assign(2 * slots_.size(), kAbsent);
  for (uint32_t ord = 0; ord < size_; ++ord) {
    size_t s = Home(key(ord));
    while (slots_[s] != kAbsent) {
      s = (s + 1) & (slots_.size() - 1);
    }
    slots_[s] = ord;
  }
}

JoinIndex::JoinIndex(const uint64_t* tokens, std::span<const size_t> rows)
    : buckets_(1, rows.size()), rows_(rows.size()) {
  // Counting sort by bucket: sizes, prefix sums, then a stable scatter.
  std::vector<uint32_t> bucket_of(rows.size());
  offsets_.push_back(0);
  for (size_t i = 0; i < rows.size(); ++i) {
    bucket_of[i] = buckets_.FindOrInsert(&tokens[rows[i]]);
    if (bucket_of[i] + 1 == offsets_.size()) {
      offsets_.push_back(0);  // a new bucket
    }
    ++offsets_[bucket_of[i] + 1];
  }
  for (size_t b = 1; b < offsets_.size(); ++b) {
    offsets_[b] += offsets_[b - 1];
  }
  std::vector<size_t> cursor(offsets_);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows_[cursor[bucket_of[i]]++] = rows[i];
  }
}

}  // namespace seabed
