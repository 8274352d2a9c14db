#include "src/crypto/ore.h"

#include <cstring>

namespace seabed {

OreCiphertext Ore::Encrypt(uint64_t m) const {
  // All 64 PRF inputs are known once m is: block i is (index, domain tag
  // 0x0e, prefix b_1 ... b_{i-1} left-aligned and zero-padded). They go
  // through the AES pipeline as one batch.
  uint8_t blocks[64 * 16] = {};
  for (int i = 0; i < 64; ++i) {
    const uint64_t prefix = i == 0 ? 0 : m & (~uint64_t{0} << (64 - i));
    uint8_t* block = blocks + 16 * i;
    block[0] = static_cast<uint8_t>(i);
    block[1] = 0x0e;  // domain tag: ORE
    std::memcpy(block + 2, &prefix, 8);
  }
  aes_.EncryptBlocks(blocks, 64, blocks);
  OreCiphertext ct;
  for (int i = 0; i < 64; ++i) {
    const uint8_t bit = static_cast<uint8_t>((m >> (63 - i)) & 1);
    const uint8_t f_mod3 = static_cast<uint8_t>(blocks[16 * i] % 3);
    ct.SetU(i, static_cast<uint8_t>((f_mod3 + bit) % 3));
  }
  return ct;
}

OreComparison Ore::Compare(const OreCiphertext& ct1, const OreCiphertext& ct2) {
  OreComparison result;
  for (int byte = 0; byte < 16; ++byte) {
    if (ct1.packed[byte] == ct2.packed[byte]) {
      continue;  // four u-values at a time
    }
    for (int slot = 0; slot < 4; ++slot) {
      const int i = byte * 4 + slot;
      const uint8_t u1 = ct1.U(i);
      const uint8_t u2 = ct2.U(i);
      if (u1 == u2) {
        continue;
      }
      result.inddiff = i;
      result.order = (u1 == (u2 + 1) % 3) ? 1 : -1;
      return result;
    }
  }
  return result;  // equal
}

}  // namespace seabed
