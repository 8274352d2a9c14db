#include "src/crypto/prf.h"

#include "src/common/check.h"

namespace seabed {

uint64_t Prf::Eval(uint64_t id) const {
  uint64_t f = 0;
  EvalRange(id, 1, &f);
  return f;
}

uint64_t Prf::Delta(uint64_t id) const {
  SEABED_CHECK(id >= 1);
  uint64_t f[2];
  EvalRange(id - 1, 2, f);
  return f[1] - f[0];
}

uint64_t Prf::RangeDelta(uint64_t lo, uint64_t hi) const {
  SEABED_CHECK(lo >= 1 && lo <= hi);
  const uint64_t ids[2] = {lo - 1, hi};
  uint64_t f[2];
  EvalBatch(ids, 2, f);
  return f[1] - f[0];
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

void Prf::EvalRange(uint64_t first, size_t n, uint64_t* out) const {
  SEABED_CHECK(n <= kMaxBatch);
  if (n == 0) {
    return;
  }
  SEABED_CHECK(first + (n - 1) >= first);  // the range must not wrap
  constexpr size_t kMaxBlocks = kMaxBatch / 2 + 1;
  const uint64_t first_block = first >> 1;
  const size_t blocks = static_cast<size_t>(((first + n - 1) >> 1) - first_block + 1);
  uint64_t counters[kMaxBlocks];
  uint64_t words[2 * kMaxBlocks];
  for (size_t k = 0; k < blocks; ++k) {
    counters[k] = first_block + k;
  }
  aes_.EncryptCounters(counters, blocks, words);
  // words[2j + b] = F_k(2 * (first_block + j) + b), so F_k(first + k) sits at
  // index (first & 1) + k.
  const uint64_t* f = words + (first & 1);
  for (size_t k = 0; k < n; ++k) {
    out[k] = f[k];
  }
}

}  // namespace seabed
