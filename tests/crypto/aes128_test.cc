#include "src/crypto/aes128.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace seabed {
namespace {

TEST(Aes128Test, Fips197AppendixCVector) {
  // FIPS-197 Appendix C.1: AES-128 known-answer test.
  AesKey key;
  for (int i = 0; i < 16; ++i) {
    key.bytes[i] = static_cast<uint8_t>(i);
  }
  const uint8_t plaintext[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const uint8_t expected[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext, out);
  EXPECT_EQ(ToHex(out, 16), ToHex(expected, 16));
}

TEST(Aes128Test, SunMicrosystemsVector) {
  // Classic AES-128 vector: key = 2b7e1516..., pt = 6bc1bee2...
  AesKey key;
  const uint8_t key_bytes[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                                 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  std::memcpy(key.bytes.data(), key_bytes, 16);
  const uint8_t plaintext[16] = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
                                 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  const uint8_t expected[16] = {0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60,
                                0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66, 0xef, 0x97};
  const Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext, out);
  EXPECT_EQ(ToHex(out, 16), ToHex(expected, 16));
}

TEST(Aes128Test, InPlaceEncryptionAllowed) {
  const Aes128 aes(AesKey::FromSeed(1));
  uint8_t a[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  uint8_t b[16];
  std::memcpy(b, a, 16);
  uint8_t expected[16];
  aes.EncryptBlock(a, expected);
  aes.EncryptBlock(b, b);  // in place
  EXPECT_EQ(ToHex(b, 16), ToHex(expected, 16));
}

TEST(Aes128Test, CounterWordsDiffer) {
  const Aes128 aes(AesKey::FromSeed(2));
  uint64_t w0[2];
  uint64_t w1[2];
  aes.EncryptCounter(0, w0);
  aes.EncryptCounter(1, w1);
  EXPECT_NE(w0[0], w1[0]);
  EXPECT_NE(w0[1], w1[1]);
  EXPECT_NE(w0[0], w0[1]);
}

TEST(Aes128Test, CounterIsDeterministic) {
  const Aes128 a(AesKey::FromSeed(3));
  const Aes128 b(AesKey::FromSeed(3));
  uint64_t wa[2];
  uint64_t wb[2];
  for (uint64_t ctr : {0ull, 1ull, 12345ull, ~0ull}) {
    a.EncryptCounter(ctr, wa);
    b.EncryptCounter(ctr, wb);
    EXPECT_EQ(wa[0], wb[0]);
    EXPECT_EQ(wa[1], wb[1]);
  }
}

TEST(Aes128Test, DistinctKeysProduceDistinctStreams) {
  const Aes128 a(AesKey::FromSeed(4));
  const Aes128 b(AesKey::FromSeed(5));
  uint64_t wa[2];
  uint64_t wb[2];
  a.EncryptCounter(7, wa);
  b.EncryptCounter(7, wb);
  EXPECT_NE(wa[0], wb[0]);
}

TEST(Aes128Test, PortableMatchesHardwarePath) {
  const AesKey key = AesKey::FromSeed(77);
  const Aes128 fast(key);
  const Aes128 portable(key, /*force_portable=*/true);
  EXPECT_FALSE(portable.using_hardware());
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    uint8_t block[16];
    for (auto& b : block) {
      b = static_cast<uint8_t>(rng.Next());
    }
    uint8_t a[16];
    uint8_t b[16];
    fast.EncryptBlock(block, a);
    portable.EncryptBlock(block, b);
    EXPECT_EQ(ToHex(a, 16), ToHex(b, 16));
  }
}

// The batched kernel must equal one EncryptCounter per counter for every
// length around the 8-block interleave: empty, partial, whole and whole plus
// tail batches.
TEST(Aes128Test, BatchedCountersMatchPerBlock) {
  const AesKey key = AesKey::FromSeed(78);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 17; ++n) {
    lengths.push_back(n);
  }
  lengths.insert(lengths.end(), {63, 64, 65});
  for (const bool force_portable : {false, true}) {
    const Aes128 aes(key, force_portable);
    Rng rng(force_portable ? 9 : 8);
    for (const size_t n : lengths) {
      std::vector<uint64_t> counters(n);
      for (size_t k = 0; k < n; ++k) {
        // Mix small, adjacent and full-width counters.
        counters[k] = k % 3 == 0 ? rng.Next() : k;
      }
      std::vector<uint64_t> batched(2 * n + 1, 0xfeedULL);  // +1: no overrun
      aes.EncryptCounters(counters.data(), n, batched.data());
      for (size_t k = 0; k < n; ++k) {
        uint64_t words[2];
        aes.EncryptCounter(counters[k], words);
        EXPECT_EQ(batched[2 * k], words[0]) << "n=" << n << " k=" << k;
        EXPECT_EQ(batched[2 * k + 1], words[1]) << "n=" << n << " k=" << k;
      }
      EXPECT_EQ(batched[2 * n], 0xfeedULL) << "n=" << n;
    }
  }
}

TEST(Aes128Test, BatchedHardwareMatchesPortable) {
  const AesKey key = AesKey::FromSeed(79);
  const Aes128 fast(key);
  const Aes128 portable(key, /*force_portable=*/true);
  std::vector<uint64_t> counters(65);
  for (size_t k = 0; k < counters.size(); ++k) {
    counters[k] = k * 0x9e3779b97f4a7c15ULL;
  }
  std::vector<uint64_t> a(2 * counters.size());
  std::vector<uint64_t> b(2 * counters.size());
  fast.EncryptCounters(counters.data(), counters.size(), a.data());
  portable.EncryptCounters(counters.data(), counters.size(), b.data());
  EXPECT_EQ(a, b);
}

// The multi-block kernel must equal one EncryptBlock per block, on both
// paths, for every length through the 8-lane loop and its tail (0..65), and
// in place.
TEST(Aes128Test, MultiBlockMatchesPerBlock) {
  const AesKey key = AesKey::FromSeed(80);
  const Aes128 portable(key, /*force_portable=*/true);
  for (const bool force_portable : {false, true}) {
    const Aes128 aes(key, force_portable);
    Rng rng(force_portable ? 11 : 10);
    for (size_t n = 0; n <= 65; ++n) {
      std::vector<uint8_t> in(16 * n);
      for (auto& b : in) {
        b = static_cast<uint8_t>(rng.Next());
      }
      std::vector<uint8_t> batched(16 * n + 16, 0xab);  // +16: no overrun
      aes.EncryptBlocks(in.data(), n, batched.data());
      std::vector<uint8_t> in_place = in;
      aes.EncryptBlocks(in_place.data(), n, in_place.data());
      for (size_t k = 0; k < n; ++k) {
        uint8_t one[16];
        aes.EncryptBlock(in.data() + 16 * k, one);
        uint8_t reference[16];
        portable.EncryptBlock(in.data() + 16 * k, reference);
        EXPECT_EQ(ToHex(batched.data() + 16 * k, 16), ToHex(one, 16)) << "n=" << n << " k=" << k;
        EXPECT_EQ(ToHex(one, 16), ToHex(reference, 16)) << "n=" << n << " k=" << k;
        EXPECT_EQ(ToHex(in_place.data() + 16 * k, 16), ToHex(one, 16)) << "n=" << n;
      }
      for (size_t b = 16 * n; b < batched.size(); ++b) {
        EXPECT_EQ(batched[b], 0xab) << "n=" << n;
      }
    }
  }
}

TEST(Aes128Test, KeyFromSeedIsStable) {
  const AesKey k1 = AesKey::FromSeed(99);
  const AesKey k2 = AesKey::FromSeed(99);
  EXPECT_EQ(k1.bytes, k2.bytes);
  EXPECT_NE(AesKey::FromSeed(100).bytes, k1.bytes);
}

}  // namespace
}  // namespace seabed
