// Vectorized columnar scan kernels for the encrypted server's hot loop.
//
// Server::Execute evaluates predicates a row group at a time: each predicate
// kind fills (ANDs into) a SelectionBitmap over a whole row group,
// predicates combine by bitmap intersection instead of per-row
// short-circuiting, and aggregation iterates the set bits of the final
// bitmap. Both sides of a join take this path — the fact scan, and the
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

#include <cstddef>
#include <cstdint>

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

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SCAN_KERNELS_H_
