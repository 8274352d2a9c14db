#include "src/crypto/ashe.h"

#include <algorithm>

#include "src/common/check.h"

namespace seabed {

AsheCiphertext Ashe::Encrypt(uint64_t m, uint64_t id) const {
  AsheCiphertext ct;
  ct.value = EncryptCell(m, id);
  ct.ids = IdSet::Single(id);
  return ct;
}

void Ashe::EncryptCells(const uint64_t* m, size_t n, uint64_t first_id, uint64_t* out) const {
  SEABED_CHECK(first_id >= 1);
  // A chunk of kChunk cells needs kChunk + 1 PRF values; consecutive chunks
  // share the endpoint between them.
  constexpr size_t kChunk = Prf::kMaxBatch - 1;
  uint64_t f[Prf::kMaxBatch];
  for (size_t start = 0; start < n; start += kChunk) {
    const size_t len = std::min(kChunk, n - start);
    prf_.EvalRange(first_id + start - 1, len + 1, f);
    for (size_t k = 0; k < len; ++k) {
      out[start + k] = m[start + k] - (f[k + 1] - f[k]);
    }
  }
}

uint64_t Ashe::Decrypt(const AsheCiphertext& ct) const {
  // The lo-1 / hi endpoints of kChunk runs go through the PRF as one batch,
  // which keeps the AES pipeline full (Aes128::EncryptCounters).
  constexpr size_t kChunk = Prf::kMaxBatch / 2;
  const std::vector<IdSet::Run>& runs = ct.ids.runs();
  uint64_t endpoints[2 * kChunk] = {};
  uint64_t f[2 * kChunk] = {};
  uint64_t pad = 0;
  for (size_t start = 0; start < runs.size(); start += kChunk) {
    const size_t n = std::min(kChunk, runs.size() - start);
    for (size_t k = 0; k < n; ++k) {
      const IdSet::Run& run = runs[start + k];
      SEABED_CHECK(run.lo >= 1 && run.lo <= run.hi);
      endpoints[2 * k] = run.lo - 1;
      endpoints[2 * k + 1] = run.hi;
    }
    prf_.EvalBatch(endpoints, 2 * n, f);
    for (size_t k = 0; k < n; ++k) {
      pad += runs[start + k].count * (f[2 * k + 1] - f[2 * k]);
    }
  }
  return ct.value + pad;
}

}  // namespace seabed
