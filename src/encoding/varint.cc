#include "src/encoding/varint.h"

#include "src/common/check.h"

namespace seabed {

void PutVarint(Bytes& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

uint64_t GetVarintMultiByte(std::span<const uint8_t> in, size_t* cursor) {
  uint64_t value = 0;
  int shift = 0;
  for (;;) {
    SEABED_CHECK_MSG(*cursor < in.size(), "truncated varint");
    const uint8_t byte = in[(*cursor)++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
    SEABED_CHECK_MSG(shift < 64, "varint overflow");
  }
}

size_t VarintSize(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

}  // namespace seabed
