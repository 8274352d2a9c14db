#include "src/crypto/aes128.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <wmmintrin.h>
#define SEABED_HAS_AESNI_BUILD 1
#endif

namespace seabed {
namespace {

// FIPS-197 S-box.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36};

uint8_t XTime(uint8_t x) { return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b)); }

}  // namespace

AesKey AesKey::FromSeed(uint64_t seed) {
  AesKey key;
  // SplitMix64 expansion of the seed into 16 bytes.
  uint64_t s = seed;
  for (int w = 0; w < 2; ++w) {
    s += 0x9e3779b97f4a7c15ULL;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::memcpy(key.bytes.data() + 8 * w, &z, 8);
  }
  return key;
}

bool Aes128::HardwareAvailable() {
#if defined(SEABED_HAS_AESNI_BUILD)
  return __builtin_cpu_supports("aes");
#else
  return false;
#endif
}

Aes128::Aes128(const AesKey& key, bool force_portable) {
  // FIPS-197 key expansion (shared by both paths; the hardware path loads the
  // expanded schedule directly).
  std::memcpy(round_keys_.data(), key.bytes.data(), 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, round_keys_.data() + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4 - 1]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[4 * i + b] = round_keys_[4 * (i - 4) + b] ^ temp[b];
    }
  }
  use_hardware_ = !force_portable && HardwareAvailable();
}

void Aes128::EncryptBlockPortable(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t state[16];
  for (int i = 0; i < 16; ++i) {
    state[i] = in[i] ^ round_keys_[i];
  }
  for (int round = 1; round <= 10; ++round) {
    // SubBytes.
    for (auto& b : state) {
      b = kSbox[b];
    }
    // ShiftRows: state is column-major (state[4*col + row]).
    uint8_t t[16];
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        t[4 * col + row] = state[4 * ((col + row) % 4) + row];
      }
    }
    std::memcpy(state, t, 16);
    // MixColumns (skipped in the final round).
    if (round != 10) {
      for (int col = 0; col < 4; ++col) {
        uint8_t* c = state + 4 * col;
        const uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
        const uint8_t x = a0 ^ a1 ^ a2 ^ a3;
        c[0] = static_cast<uint8_t>(a0 ^ x ^ XTime(a0 ^ a1));
        c[1] = static_cast<uint8_t>(a1 ^ x ^ XTime(a1 ^ a2));
        c[2] = static_cast<uint8_t>(a2 ^ x ^ XTime(a2 ^ a3));
        c[3] = static_cast<uint8_t>(a3 ^ x ^ XTime(a3 ^ a0));
      }
    }
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) {
      state[i] ^= round_keys_[16 * round + i];
    }
  }
  std::memcpy(out, state, 16);
}

#if defined(SEABED_HAS_AESNI_BUILD)
namespace {

// The one AES-NI pipeline: encrypts the plaintext block load(k) into
// out + 16k for k < n, keeping 8 independent blocks in flight. Callers differ
// only in how they load a block.
template <typename Load>
void EncryptPipelined(const uint8_t* round_keys, size_t n, Load load, uint8_t* out) {
  constexpr size_t kLanes = 8;
  const __m128i* schedule = reinterpret_cast<const __m128i*>(round_keys);
  __m128i rk[11];
  for (int round = 0; round <= 10; ++round) {
    rk[round] = _mm_load_si128(schedule + round);
  }
  auto store = [&](size_t k, __m128i block) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * k), block);
  };
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    // Fully unrolled lanes keep b[] in registers; a lane loop the compiler
    // leaves rolled would round-trip every block through the stack. All 8
    // loads precede the first store, so in-place use is safe.
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(load(k + j), rk[0]);
    }
    for (int round = 1; round < 10; ++round) {
#pragma GCC unroll 8
      for (size_t j = 0; j < kLanes; ++j) {
        b[j] = _mm_aesenc_si128(b[j], rk[round]);
      }
    }
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      store(k + j, _mm_aesenclast_si128(b[j], rk[10]));
    }
  }
  for (; k < n; ++k) {
    __m128i b = _mm_xor_si128(load(k), rk[0]);
    for (int round = 1; round < 10; ++round) {
      b = _mm_aesenc_si128(b, rk[round]);
    }
    store(k, _mm_aesenclast_si128(b, rk[10]));
  }
}

}  // namespace
#endif

void Aes128::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  EncryptBlocks(in, 1, out);
}

void Aes128::EncryptBlocks(const uint8_t* in, size_t n, uint8_t* out) const {
#if defined(SEABED_HAS_AESNI_BUILD)
  if (use_hardware_) {
    EncryptPipelined(
        round_keys_.data(), n,
        [in](size_t k) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * k)); },
        out);
    return;
  }
#endif
  for (size_t k = 0; k < n; ++k) {
    EncryptBlockPortable(in + 16 * k, out + 16 * k);
  }
}

void Aes128::EncryptCounter(uint64_t counter, uint64_t out_words[2]) const {
  EncryptCounters(&counter, 1, out_words);
}

void Aes128::EncryptCounters(const uint64_t* counters, size_t n, uint64_t* out_words) const {
  uint8_t* out = reinterpret_cast<uint8_t*>(out_words);
#if defined(SEABED_HAS_AESNI_BUILD)
  if (use_hardware_) {
    // Block k is counters[k] in its low 8 bytes and zeros above.
    EncryptPipelined(
        round_keys_.data(), n,
        [counters](size_t k) {
          return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(counters + k));
        },
        out);
    return;
  }
#endif
  for (size_t k = 0; k < n; ++k) {
    uint8_t block[16] = {};
    std::memcpy(block, &counters[k], 8);
    EncryptBlockPortable(block, out + 16 * k);
  }
}

}  // namespace seabed
