#include "src/crypto/det.h"

#include <algorithm>
#include <cstring>

namespace seabed {

void DetInt::RoundBlock(uint32_t half, uint32_t round, uint8_t block[16]) {
  std::memset(block, 0, 16);
  std::memcpy(block, &half, 4);
  std::memcpy(block + 4, &round, 4);
  block[8] = 0xf5;  // domain separation from the PRF / token uses
}

uint32_t DetInt::RoundF(uint32_t half, uint32_t round) const {
  uint8_t block[16];
  RoundBlock(half, round, block);
  aes_.EncryptBlock(block, block);
  uint32_t result = 0;
  std::memcpy(&result, block, 4);
  return result;
}

uint64_t DetInt::Encrypt(uint64_t plaintext) const {
  uint64_t out = 0;
  Encrypt(&plaintext, 1, &out);
  return out;
}

void DetInt::Encrypt(const uint64_t* plaintexts, size_t n, uint64_t* out) const {
  constexpr size_t kChunk = 64;
  uint32_t left[kChunk];
  uint32_t right[kChunk];
  uint8_t blocks[16 * kChunk];
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t len = std::min(kChunk, n - start);
    for (size_t k = 0; k < len; ++k) {
      left[k] = static_cast<uint32_t>(plaintexts[start + k] >> 32);
      right[k] = static_cast<uint32_t>(plaintexts[start + k]);
    }
    for (uint32_t round = 0; round < 4; ++round) {
      for (size_t k = 0; k < len; ++k) {
        RoundBlock(right[k], round, blocks + 16 * k);
      }
      aes_.EncryptBlocks(blocks, len, blocks);
      for (size_t k = 0; k < len; ++k) {
        uint32_t f = 0;
        std::memcpy(&f, blocks + 16 * k, 4);
        const uint32_t next_left = right[k];
        right[k] = left[k] ^ f;
        left[k] = next_left;
      }
    }
    for (size_t k = 0; k < len; ++k) {
      out[start + k] = (static_cast<uint64_t>(left[k]) << 32) | right[k];
    }
  }
}

uint64_t DetInt::Decrypt(uint64_t ciphertext) const {
  uint32_t left = static_cast<uint32_t>(ciphertext >> 32);
  uint32_t right = static_cast<uint32_t>(ciphertext);
  for (uint32_t round = 4; round-- > 0;) {
    const uint32_t prev_right = left;
    left = right ^ RoundF(left, round);
    right = prev_right;
  }
  return (static_cast<uint64_t>(left) << 32) | right;
}

uint64_t DetToken::Tag(const std::string& text) const {
  // CBC-MAC over zero-padded 16-byte blocks with a length block appended.
  // Fine as a PRF for our fixed-key, trusted-encryptor setting.
  uint8_t state[16] = {};
  const size_t len = text.size();
  for (size_t off = 0; off < len; off += 16) {
    uint8_t block[16] = {};
    const size_t chunk = std::min<size_t>(16, len - off);
    std::memcpy(block, text.data() + off, chunk);
    for (int i = 0; i < 16; ++i) {
      state[i] ^= block[i];
    }
    aes_.EncryptBlock(state, state);
  }
  uint8_t length_block[16] = {};
  const uint64_t len64 = len;
  std::memcpy(length_block, &len64, 8);
  length_block[15] = 0xa7;  // domain separation
  for (int i = 0; i < 16; ++i) {
    state[i] ^= length_block[i];
  }
  aes_.EncryptBlock(state, state);
  uint64_t tag = 0;
  std::memcpy(&tag, state, 8);
  return tag;
}

}  // namespace seabed
