#include "src/crypto/det.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "src/common/rng.h"

namespace seabed {
namespace {

TEST(DetIntTest, RoundTrip) {
  const DetInt det(AesKey::FromSeed(1));
  for (uint64_t m : {0ull, 1ull, 42ull, 1234567890123ull, ~0ull}) {
    EXPECT_EQ(det.Decrypt(det.Encrypt(m)), m) << m;
  }
}

// The Feistel network as first written: one single-block AES call per
// round and value.
uint64_t SerialReferenceEncrypt(const AesKey& key, uint64_t plaintext) {
  const Aes128 aes(key);
  uint32_t left = static_cast<uint32_t>(plaintext >> 32);
  uint32_t right = static_cast<uint32_t>(plaintext);
  for (uint32_t round = 0; round < 4; ++round) {
    uint8_t block[16] = {};
    std::memcpy(block, &right, 4);
    std::memcpy(block + 4, &round, 4);
    block[8] = 0xf5;
    uint8_t out[16];
    aes.EncryptBlock(block, out);
    uint32_t f = 0;
    std::memcpy(&f, out, 4);
    const uint32_t next_left = right;
    right = left ^ f;
    left = next_left;
  }
  return (static_cast<uint64_t>(left) << 32) | right;
}

TEST(DetIntTest, BatchMatchesSingleAndSerialReference) {
  const AesKey key = AesKey::FromSeed(14);
  const DetInt det(key);
  Rng rng(14);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{63},
                         size_t{64}, size_t{65}, size_t{200}}) {
    std::vector<uint64_t> in(n);
    for (size_t k = 0; k < n; ++k) {
      in[k] = k % 4 == 0 ? ~uint64_t{0} - k : rng.Next();
    }
    std::vector<uint64_t> out(n);
    det.Encrypt(in.data(), n, out.data());
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(out[k], det.Encrypt(in[k])) << "n=" << n << " k=" << k;
      EXPECT_EQ(out[k], SerialReferenceEncrypt(key, in[k])) << "n=" << n << " k=" << k;
      EXPECT_EQ(det.Decrypt(out[k]), in[k]);
    }
    det.Encrypt(in.data(), n, in.data());  // in place
    EXPECT_EQ(in, out);
  }
}

TEST(DetIntTest, Deterministic) {
  const DetInt a(AesKey::FromSeed(2));
  const DetInt b(AesKey::FromSeed(2));
  EXPECT_EQ(a.Encrypt(999), b.Encrypt(999));
}

TEST(DetIntTest, IsPermutation) {
  const DetInt det(AesKey::FromSeed(3));
  std::set<uint64_t> outputs;
  for (uint64_t m = 0; m < 4096; ++m) {
    outputs.insert(det.Encrypt(m));
  }
  EXPECT_EQ(outputs.size(), 4096u);  // injective on the sample
}

TEST(DetIntTest, KeysMatter) {
  const DetInt a(AesKey::FromSeed(4));
  const DetInt b(AesKey::FromSeed(5));
  EXPECT_NE(a.Encrypt(7), b.Encrypt(7));
}

TEST(DetIntTest, CiphertextNotIdentity) {
  const DetInt det(AesKey::FromSeed(6));
  int fixed = 0;
  for (uint64_t m = 0; m < 1000; ++m) {
    fixed += det.Encrypt(m) == m;
  }
  EXPECT_LE(fixed, 1);
}

TEST(DetTokenTest, EqualStringsEqualTags) {
  const DetToken det(AesKey::FromSeed(7));
  EXPECT_EQ(det.Tag("Canada"), det.Tag("Canada"));
  EXPECT_EQ(det.Tag(""), det.Tag(""));
}

TEST(DetTokenTest, DistinctStringsDistinctTags) {
  const DetToken det(AesKey::FromSeed(8));
  std::set<uint64_t> tags;
  const char* values[] = {"", "a", "b", "ab", "ba", "Canada", "canada", "USA",
                          "a longer string that spans multiple AES blocks......"};
  for (const char* v : values) {
    tags.insert(det.Tag(v));
  }
  EXPECT_EQ(tags.size(), std::size(values));
}

TEST(DetTokenTest, LengthExtensionResistance) {
  // "ab" + "" must differ from "a" + "b"-style prefix confusion: the length
  // block breaks naive padding collisions.
  const DetToken det(AesKey::FromSeed(9));
  EXPECT_NE(det.Tag(std::string("ab\0", 3)), det.Tag("ab"));
  EXPECT_NE(det.Tag(std::string(16, 'x')), det.Tag(std::string(17, 'x')));
}

TEST(DetTokenTest, KeysMatter) {
  const DetToken a(AesKey::FromSeed(10));
  const DetToken b(AesKey::FromSeed(11));
  EXPECT_NE(a.Tag("hello"), b.Tag("hello"));
}

}  // namespace
}  // namespace seabed
