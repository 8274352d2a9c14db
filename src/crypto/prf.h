// The AES-based pseudo-random function used by ASHE.
//
// ASHE (Section 3.1) needs F_k : I -> Z_n. We fix n = 2^64 so the group
// operation is native wrap-around arithmetic on uint64_t, and instantiate F_k
// with AES-128 in counter mode. Section 4.3's batching optimization is
// implemented here: one AES call on block (i >> 1) yields two 64-bit
// pseudo-random words, covering identifiers 2j and 2j+1. Sequential row IDs
// therefore cost ~0.5 AES invocations per encryption when evaluated as a
// range (EvalRange, the upload path). Prf holds no mutable state, so one
// instance may serve concurrent callers.
#ifndef SEABED_SRC_CRYPTO_PRF_H_
#define SEABED_SRC_CRYPTO_PRF_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/aes128.h"

namespace seabed {

class Prf {
 public:
  explicit Prf(const AesKey& key) : aes_(key) {}

  // F_k(id): 64-bit pseudo-random word for `id`.
  uint64_t Eval(uint64_t id) const;

  // F_k(id) - F_k(id - 1), the per-row pad used by ASHE. id >= 1.
  uint64_t Delta(uint64_t id) const;

  // Sum over id in [lo, hi] of Delta(id) = F_k(hi) - F_k(lo - 1).
  // This is the telescoping trick that lets a contiguous range decrypt with
  // two PRF calls regardless of length. lo >= 1, lo <= hi.
  uint64_t RangeDelta(uint64_t lo, uint64_t hi) const;

  // Largest batch EvalBatch accepts.
  static constexpr size_t kMaxBatch = 128;

  // out[i] = F_k(ids[i]) for i < n <= kMaxBatch, through one batched AES
  // call (Aes128::EncryptCounters). `out` must not alias `ids`.
  void EvalBatch(const uint64_t* ids, size_t n, uint64_t* out) const;

  // out[k] = F_k(first + k) for k < n <= kMaxBatch. Consecutive ids share
  // AES blocks, so this is one batched call over ceil((n + 1) / 2) blocks at
  // most.
  void EvalRange(uint64_t first, size_t n, uint64_t* out) const;

  bool using_hardware() const { return aes_.using_hardware(); }

 private:
  Aes128 aes_;
};

}  // namespace seabed

#endif  // SEABED_SRC_CRYPTO_PRF_H_
