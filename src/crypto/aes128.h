// AES-128 block cipher.
//
// This is the cryptographic workhorse of Seabed: the ASHE PRF, deterministic
// encryption, and the ORE scheme all reduce to AES-128 invocations
// (Section 4.3 of the paper). Two implementations are provided:
//
//   * a hardware path using Intel AES-NI intrinsics, matching the paper's
//     "hardware accelerated AES" C++ module, and
//   * a portable constant-time-ish software path (used when the CPU lacks the
//     extension and as a cross-check in tests).
//
// The implementation is selected once at construction; EncryptBlock is
// branch-free thereafter.
#ifndef SEABED_SRC_CRYPTO_AES128_H_
#define SEABED_SRC_CRYPTO_AES128_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace seabed {

// 128-bit key for AES and all derived primitives.
struct AesKey {
  std::array<uint8_t, 16> bytes{};

  // Derives a key deterministically from a 64-bit seed (test/benchmark use).
  static AesKey FromSeed(uint64_t seed);
};

class Aes128 {
 public:
  // `force_portable` bypasses the AES-NI path (used by tests to cross-check
  // the two implementations against each other).
  explicit Aes128(const AesKey& key, bool force_portable = false);

  // Encrypts one 16-byte block: out = AES128_k(in). In-place use is allowed.
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  // Encrypts n independent 16-byte blocks: block k is in[16k, 16k + 16) and
  // its ciphertext goes to out[16k, 16k + 16). `out` may equal `in` (in
  // place) but must not otherwise overlap it. The hardware path keeps 8
  // blocks in flight, so the AES-NI pipeline latency is paid once per 8
  // blocks instead of once per block (the multi-block technique of Intel's
  // AES-NI white paper). This is the kernel behind the upload path (ORE,
  // ASHE, DET) and ASHE decryption.
  void EncryptBlocks(const uint8_t* in, size_t n, uint8_t* out) const;

  // Convenience: encrypts the 128-bit block (hi||lo) and returns the low and
  // high 64-bit words of the ciphertext. This is the building block of the
  // batched PRF (one AES call yields two 64-bit pseudo-random words).
  void EncryptCounter(uint64_t counter, uint64_t out_words[2]) const;

  // Batched EncryptCounter: out_words[2k], out_words[2k + 1] receive the
  // words of counters[k] for k < n. Runs through the same 8-lane pipeline as
  // EncryptBlocks, loading each counter straight into its block.
  void EncryptCounters(const uint64_t* counters, size_t n, uint64_t* out_words) const;

  // True when this instance uses the AES-NI hardware path.
  bool using_hardware() const { return use_hardware_; }

  // True when the host CPU supports AES-NI.
  static bool HardwareAvailable();

 private:
  void EncryptBlockPortable(const uint8_t in[16], uint8_t out[16]) const;

  // 11 round keys, 16 bytes each.
  alignas(16) std::array<uint8_t, 176> round_keys_{};
  bool use_hardware_ = false;
};

}  // namespace seabed

#endif  // SEABED_SRC_CRYPTO_AES128_H_
