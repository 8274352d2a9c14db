#include "src/crypto/prf.h"

#include "src/common/check.h"

namespace seabed {

uint64_t Prf::Eval(uint64_t id) const {
  const uint64_t block = id >> 1;
  if (block != cached_block_) {
    aes_.EncryptCounter(block, cached_words_);
    cached_block_ = block;
  }
  return cached_words_[id & 1];
}

uint64_t Prf::Delta(uint64_t id) const {
  SEABED_CHECK(id >= 1);
  return Eval(id) - Eval(id - 1);
}

uint64_t Prf::RangeDelta(uint64_t lo, uint64_t hi) const {
  SEABED_CHECK(lo >= 1 && lo <= hi);
  return Eval(hi) - Eval(lo - 1);
}

void Prf::EvalBatch(const uint64_t* ids, size_t n, uint64_t* out) const {
  SEABED_CHECK(n <= kMaxBatch);
  uint64_t words[2 * kMaxBatch] = {};
  for (size_t i = 0; i < n; ++i) {
    out[i] = ids[i] >> 1;  // the AES block holding F_k(ids[i])
  }
  aes_.EncryptCounters(out, n, words);
  for (size_t i = 0; i < n; ++i) {
    out[i] = words[2 * i + (ids[i] & 1)];
  }
}

}  // namespace seabed
