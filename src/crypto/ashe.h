// ASHE — Additively Symmetric Homomorphic Encryption (paper Section 3.1).
//
// Plaintexts live in Z_n with n = 2^64 (native wrap-around arithmetic).
// Encryption of m under identifier i is
//
//     Enc_k(m, i) = (m - F_k(i) + F_k(i-1),  {i})
//
// where F_k is the AES-based PRF of src/crypto/prf.h. Ciphertexts "add" by
// adding the group elements and taking the multiset union of identifiers;
// decryption adds back sum_{i in S} (F_k(i) - F_k(i-1)), which telescopes to
// two PRF calls per contiguous identifier run.
//
// Signed measures are handled by two's-complement embedding: int64 values map
// into Z_{2^64} and sums decode correctly as long as the true sum fits in
// int64 (the same precondition a plaintext system has).
#ifndef SEABED_SRC_CRYPTO_ASHE_H_
#define SEABED_SRC_CRYPTO_ASHE_H_

#include <cstdint>

#include "src/crypto/id_set.h"
#include "src/crypto/prf.h"

namespace seabed {

// An aggregate ASHE ciphertext: the running group element plus the identifier
// multiset. A freshly encrypted single value is the special case of one
// single-id run.
struct AsheCiphertext {
  uint64_t value = 0;
  IdSet ids;

  // The homomorphic ⊕.
  void Accumulate(const AsheCiphertext& other) {
    value += other.value;
    ids.UnionWith(other.ids);
  }
};

class Ashe {
 public:
  explicit Ashe(const AesKey& key) : prf_(key) {}

  // Encrypts `m` under identifier `id` (id >= 1). Returns only the group
  // element; the identifier is implicit (stored columnar, ids are the row
  // numbers). The upload path encrypts whole runs with EncryptCells.
  uint64_t EncryptCell(uint64_t m, uint64_t id) const { return m - prf_.Delta(id); }

  // Run encrypt: out[k] = EncryptCell(m[k], first_id + k) for k < n
  // (first_id >= 1). F_k is evaluated over [first_id - 1, first_id + n - 1]
  // through Prf::EvalRange, 127 cells per batched AES call, so a cell costs
  // about half an AES block. `out` may equal `m`.
  void EncryptCells(const uint64_t* m, size_t n, uint64_t first_id, uint64_t* out) const;

  // Full ciphertext (group element + identifier multiset).
  AsheCiphertext Encrypt(uint64_t m, uint64_t id) const;

  // Decrypts an aggregate: value + sum over runs of count * RangeDelta. The
  // run endpoints are evaluated in batches (Prf::EvalBatch), so concurrent
  // calls on one Ashe are safe.
  uint64_t Decrypt(const AsheCiphertext& ct) const;

  // Decrypts the group element of a single cell with known id.
  uint64_t DecryptCell(uint64_t cipher, uint64_t id) const { return cipher + prf_.Delta(id); }

  // Number of PRF evaluations Decrypt will perform (2 per run) — the quantity
  // reported as "AES operations required for decryption" in Section 6.6.
  static uint64_t DecryptPrfCalls(const AsheCiphertext& ct) { return 2 * ct.ids.NumRuns(); }

  bool using_hardware() const { return prf_.using_hardware(); }

 private:
  Prf prf_;
};

}  // namespace seabed

#endif  // SEABED_SRC_CRYPTO_ASHE_H_
