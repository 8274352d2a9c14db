// The Seabed encryption module (paper Section 4.3).
//
// Turns a plaintext table into the encrypted table uploaded to the untrusted
// server, following the planner's EncryptionPlan: ASHE for measures (with
// consecutive row identifiers), SPLASHE splaying with enhanced-mode DET
// frequency equalization, DET/ORE for fallback dimensions, plus the squared
// columns used for server-side variance.
//
// Also builds the Paillier baseline table (CryptDB/Monomi configuration:
// Paillier measures + DET/OPE dimensions, no SPLASHE).
#ifndef SEABED_SRC_SEABED_ENCRYPTOR_H_
#define SEABED_SRC_SEABED_ENCRYPTOR_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/crypto/paillier.h"
#include "src/engine/table.h"
#include "src/seabed/keys.h"
#include "src/seabed/schema.h"

namespace seabed {

// Result of encryption. `table` is what the cloud stores; everything else is
// trusted proxy state (the client keeps keys and DET dictionaries so it can
// translate constants and render results).
struct EncryptedDatabase {
  std::shared_ptr<Table> table;
  EncryptionPlan plan;

  // DET column name -> (token -> plaintext) for string dimensions. Hashed:
  // the client renders every group key of a response through it.
  std::map<std::string, std::unordered_map<uint64_t, std::string>> det_dictionaries;
  // DET column name -> underlying plaintext type (int DET is invertible, so
  // it has no dictionary).
  std::map<std::string, ColumnType> det_value_types;
  // Enhanced-SPLASHE DET column name -> (other value -> cells carrying its
  // token). Encrypt sets and AppendRows updates it, so an append balances
  // its dummy cells without rescanning the column.
  std::map<std::string, std::map<std::string, uint64_t>> splashe_counts;
};

// Downgrades a Seabed plan to what a CryptDB/Monomi-style baseline supports:
// SPLASHE dimensions fall back to DET, layouts are dropped.
EncryptionPlan BaselinePlan(const EncryptionPlan& plan);

class Encryptor {
 public:
  explicit Encryptor(const ClientKeys& keys) : keys_(keys) {}

  // Encrypts `plain` according to `plan`, on the calling thread. Every bulk
  // AES call goes through the multi-block kernel (Aes128::EncryptBlocks).
  EncryptedDatabase Encrypt(const Table& plain, const PlainSchema& schema,
                            const EncryptionPlan& plan) const;

  // Same, but ASHE row identifiers start at `ashe_base_id` instead of 1.
  // The sharded backend gives every shard a disjoint identifier space this
  // way, so per-shard aggregate ciphertexts stay additively combinable at
  // the coordinator (the ID multiset union never collides across shards).
  EncryptedDatabase EncryptWithBaseId(const Table& plain, const PlainSchema& schema,
                                      const EncryptionPlan& plan,
                                      uint64_t ashe_base_id) const;

  // Appends `new_rows` (a plaintext table with the same schema) to an
  // existing encrypted database — "database insertions are handled in the
  // same way" (Section 4.1). ASHE identifiers continue from the current row
  // count; enhanced-SPLASHE DET columns keep their frequency equalization by
  // assigning the batch's dummy cells against the *combined* token counts
  // (Section 3.5 discusses the drift this bounds).
  void AppendRows(EncryptedDatabase& db, const Table& new_rows,
                  const PlainSchema& schema) const;

  // Builds the Paillier-baseline encrypted table: measures (any column the
  // plan realizes with ASHE, including "both"-role ones) become Paillier
  // ciphertexts; SPLASHE dimensions degrade to DET (the baseline has no
  // frequency defense); DET/OPE/plain columns are shared with Seabed.
  // `randomness_pool_size` controls the construction-time speedup (see
  // Paillier::MakeRandomnessPool). The returned database carries the
  // baseline plan (BaselinePlan(plan)) so the Translator can rewrite queries
  // against it.
  EncryptedDatabase EncryptPaillierBaseline(const Table& plain, const PlainSchema& schema,
                                            const EncryptionPlan& plan,
                                            const Paillier& paillier, Rng& rng,
                                            size_t randomness_pool_size = 64) const;

  const ClientKeys& keys() const { return keys_; }

 private:
  ClientKeys keys_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_ENCRYPTOR_H_
