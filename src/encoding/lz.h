// General-purpose LZ77 byte compressor.
//
// Seabed applies Deflate on top of the range/diff/VB encodings and found that
// "Deflate optimized for speed" wins end-to-end while "optimized for high
// compression ratio" costs more time than it saves (paper Section 6.4,
// Figure 8). We reproduce that knob with two parameterizations of one LZ77
// coder:
//
//   kFast    — 64 KiB window, greedy matching (speed-oriented)
//   kCompact — 1 MiB window, lazy matching (ratio-oriented)
//
// Output format (self-delimiting, little-endian varints):
//   token := literal-run | match
//   literal-run := varint(len << 1)        followed by `len` raw bytes
//   match       := varint(len << 1 | 1)    varint(distance); len >= kMinMatch
#ifndef SEABED_SRC_ENCODING_LZ_H_
#define SEABED_SRC_ENCODING_LZ_H_

#include <span>

#include "src/common/bytes.h"

namespace seabed {

enum class LzLevel {
  kFast,
  kCompact,
};

// Compresses `input`; output always round-trips through LzDecompress. The
// match table is one per thread and reused: each call clears only the slots
// it wrote, so a 2-byte ID list does not pay for a 64Ki-slot table, and the
// output is byte-identical to a fresh table's.
Bytes LzCompress(const Bytes& input, LzLevel level);

// Inverse of LzCompress. Aborts on corrupt input.
Bytes LzDecompress(std::span<const uint8_t> input);

}  // namespace seabed

#endif  // SEABED_SRC_ENCODING_LZ_H_
