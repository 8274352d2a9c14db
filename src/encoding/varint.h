// Variable-byte (VB) integer encoding — one of the three ID-list encodings
// Seabed combines (paper Table 3): smaller numbers use fewer bytes.
// LEB128 format: 7 payload bits per byte, high bit = continuation.
#ifndef SEABED_SRC_ENCODING_VARINT_H_
#define SEABED_SRC_ENCODING_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"

namespace seabed {

// Appends the VB encoding of `value` to `out`.
void PutVarint(Bytes& out, uint64_t value);

// The general (multi-byte) case of GetVarint.
uint64_t GetVarintMultiByte(std::span<const uint8_t> in, size_t* cursor);

// Decodes a VB integer at *cursor, advancing it. Aborts on truncated input.
// One-byte values, which most ID-list gaps, run lengths and LZ tokens are,
// decode inline.
inline uint64_t GetVarint(std::span<const uint8_t> in, size_t* cursor) {
  if (*cursor < in.size() && in[*cursor] < 0x80) {
    return in[(*cursor)++];
  }
  return GetVarintMultiByte(in, cursor);
}

// Number of bytes PutVarint would append.
size_t VarintSize(uint64_t value);

}  // namespace seabed

#endif  // SEABED_SRC_ENCODING_VARINT_H_
