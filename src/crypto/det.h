// Deterministic encryption (DET).
//
// Seabed uses DET for dimensions that participate in joins or that enhanced
// SPLASHE stores in its "others" column (paper Sections 2.1, 3.4, 4.2). Two
// primitives are provided:
//
//  * DetInt — an invertible pseudo-random permutation over 64-bit values,
//    built as a 4-round Luby–Rackoff Feistel network whose round function is
//    AES-128. Invertibility lets the client decrypt DET-encrypted dimension
//    values returned in query results.
//
//  * DetToken — a deterministic equality token (AES-CMAC-style PRF tag) for
//    variable-length strings. Tokens support equality checks and GROUP BY on
//    the server; the client keeps a token -> plaintext dictionary for display
//    (the Seabed proxy knows the dimension domain from the planner).
//
// Like every deterministic scheme, DET leaks value frequencies — that leak is
// exactly what SPLASHE (src/seabed/splashe.h) exists to close.
#ifndef SEABED_SRC_CRYPTO_DET_H_
#define SEABED_SRC_CRYPTO_DET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/crypto/aes128.h"

namespace seabed {

class DetInt {
 public:
  explicit DetInt(const AesKey& key) : aes_(key) {}

  // Deterministic, invertible encryption of a 64-bit value.
  uint64_t Encrypt(uint64_t plaintext) const;

  // Batched Encrypt: out[k] = Encrypt(plaintexts[k]) for k < n. Each Feistel
  // round runs all rows of a chunk through the AES pipeline at once. `out`
  // may equal `plaintexts`.
  void Encrypt(const uint64_t* plaintexts, size_t n, uint64_t* out) const;

  // Inverse of Encrypt.
  uint64_t Decrypt(uint64_t ciphertext) const;

 private:
  // Feistel round function: AES(round || half) truncated to 32 bits.
  uint32_t RoundF(uint32_t half, uint32_t round) const;
  // The AES input block of RoundF(half, round).
  static void RoundBlock(uint32_t half, uint32_t round, uint8_t block[16]);

  Aes128 aes_;
};

class DetToken {
 public:
  explicit DetToken(const AesKey& key) : aes_(key) {}

  // 64-bit deterministic equality token for `text`.
  uint64_t Tag(const std::string& text) const;

 private:
  Aes128 aes_;
};

}  // namespace seabed

#endif  // SEABED_SRC_CRYPTO_DET_H_
