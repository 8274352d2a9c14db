// The Seabed query translator (paper Section 4.4).
//
// Rewrites a plaintext Query into (a) a ServerPlan executable over the
// encrypted table — constants encrypted with the right scheme, SPLASHE
// filters rewritten into splayed-column aggregations, the ID column
// implicitly preserved, group-by inflation applied — and (b) a ClientPlan
// telling the decryption module how to reassemble final answers (AVG
// division, variance formula, group deflation, DET token rendering).
#ifndef SEABED_SRC_SEABED_TRANSLATOR_H_
#define SEABED_SRC_SEABED_TRANSLATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/lru_cache.h"
#include "src/crypto/ore.h"
#include "src/encoding/id_list_codec.h"
#include "src/query/query.h"
#include "src/seabed/encryptor.h"

namespace seabed {

struct ServerPredicate {
  enum class Kind { kPlainInt, kPlainString, kDetEq, kOreCmp };
  Kind kind = Kind::kPlainInt;
  std::string column;  // encrypted column name
  CmpOp op = CmpOp::kEq;
  int64_t int_operand = 0;
  std::string str_operand;
  uint64_t det_token = 0;
  OreCiphertext ore_operand;
  bool on_right = false;  // evaluated against the joined table

  // Prepared-statement slot: -1 means the operand above is final; >= 0 means
  // this predicate is a typed placeholder — the operand is filled per
  // execution by BindTranslatedQuery, which encrypts params[param] under
  // bind_key (the per-column key, derived once at translation time so the
  // bind path pays only the DET/ORE encryption, not the KDF).
  int param = -1;
  AesKey bind_key;
};

struct ServerAggregate {
  enum class Kind {
    kAsheSum,    // homomorphic sum over an ASHE column
    kRowCount,   // number of matching rows (the ID list length)
    kOreMin,     // argmin by ORE comparisons; returns companion ASHE cell + id
    kOreMax,
  };
  Kind kind = Kind::kAsheSum;
  std::string column;        // ASHE column (kAsheSum) or ORE column (min/max)
  std::string value_column;  // companion ASHE column for min/max results
  bool on_right = false;
};

struct ServerGroupBy {
  std::string column;  // encrypted (DET) or plain column name
  bool on_right = false;
};

struct ServerPlan {
  std::string table;
  std::optional<Join> join;  // columns already rewritten to #det names
  std::vector<ServerPredicate> predicates;
  std::vector<ServerAggregate> aggregates;
  std::vector<ServerGroupBy> group_by;

  // Group inflation factor (Section 4.5): > 1 appends id % inflation to the
  // group key so the reduce phase uses more workers.
  size_t inflation = 1;

  // ID-list codec configuration; group-by plans drop range encoding.
  IdListOptions idlist;

  // Section 4.5: compress at workers (parallel) or at the driver.
  bool worker_side_compression = true;
};

// How the client turns decrypted server aggregates into final result values.
struct ClientOutput {
  enum class Kind {
    kSum,       // arg0 = ashe sum
    kCount,     // arg0 = row-count or ashe sum of an indicator column
    kAvg,       // arg0 = sum, arg1 = count
    kVariance,  // arg0 = sum of squares, arg1 = sum, arg2 = count
    kStddev,
    kMinMax,    // arg0 = ore min/max aggregate
  };
  Kind kind = Kind::kSum;
  size_t arg0 = 0;
  size_t arg1 = 0;
  size_t arg2 = 0;
  std::string alias;
};

struct ClientGroupOutput {
  enum class Kind { kPlainInt, kPlainString, kDetInt, kDetString };
  Kind kind = Kind::kPlainInt;
  std::string enc_column;   // for DET dictionary lookup
  std::string key_label;    // key-derivation label for DET decryption
  std::string plain_name;   // result column header
  bool on_right = false;    // column belongs to the joined table
};

struct ClientPlan {
  std::vector<ClientOutput> outputs;
  std::vector<ClientGroupOutput> group_outputs;
  size_t inflation = 1;
  // Index into ServerPlan::aggregates of the SPLASHE filter's matching-row
  // count, or -1. A SPLASHE-rewritten filter has no server predicate — the
  // server aggregates splayed columns over every scanned row — so with GROUP
  // BY, groups where the filtered value never occurs still reach the client
  // as all-zero rows. Plaintext semantics drop them (no matching rows, no
  // group); the client skips groups whose count decrypts to zero.
  int splashe_filter_count = -1;
};

// The round-one probe section of a translated plan (derived by
// DeriveProbeSection in src/seabed/probe.h): the fact-side server predicates
// a row-group summary index can evaluate. Derived once at translation time,
// so plan-cache hits skip the derivation along with the translation.
struct ProbeSection {
  std::vector<ServerPredicate> predicates;
  // False when no predicate can exclude a row group (e.g. unfiltered scans,
  // SPLASHE-rewritten filters, right-table-only filters) — backends skip the
  // probe round entirely then.
  bool prunable = false;
};

struct TranslatedQuery {
  ServerPlan server;
  ClientPlan client;
  ProbeSection probe;
};

struct TranslatorOptions {
  // Worker count hint for the inflation heuristic ("inflate the number of
  // groups to the number of available workers when we expect fewer groups
  // than workers" — Section 4.5).
  size_t cluster_workers = 1;
  bool enable_group_inflation = true;
  IdListOptions idlist = IdListOptions::Default();
  bool worker_side_compression = true;
};

class Translator {
 public:
  Translator(const EncryptedDatabase& db, const ClientKeys& keys)
      : db_(&db), keys_(&keys) {}

  // Rewrites `query` for the encrypted schema. Aborts (with a message) on
  // queries the planner did not provision for.
  TranslatedQuery Translate(const Query& query, const TranslatorOptions& options) const;

 private:
  const EncryptedDatabase* db_;
  const ClientKeys* keys_;
};

// Binds a parameterized plan: copies `shape`, encrypts params[slot] into
// each placeholder predicate (DET token for equality, ORE ciphertext for
// ranges, plain operand otherwise) under the pre-derived per-slot key, and
// re-derives the probe section over the now-bound predicates. The input plan
// is untouched, so concurrent executions may bind the same cached shape.
// Aborts on a type mismatch (e.g. a string bound to a range slot).
TranslatedQuery BindTranslatedQuery(const TranslatedQuery& shape,
                                    std::span<const Value> params);

// The plan-cache key: everything Translate reads beyond the encrypted schema
// — the exact query fingerprint (filters order-normalized, literals typed)
// plus the inflation hint and the TranslatorOptions digest. Translation is a
// pure function of (schema plan, keys, this key): DET tokens are
// deterministic per key, and appends never change column schemes, so a plan
// cached under this key stays valid for the lifetime of the attached table.
// Parameterized queries participate too: unbound placeholders fingerprint as
// their slot (`?N`), so one entry covers every binding of the shape.
std::string PlanCacheKey(const Query& query, const TranslatorOptions& options);

// The non-fingerprint tail of PlanCacheKey. Prepared statements cache the
// fingerprint half in the handle and append this per call, skipping the
// per-execution fingerprint walk.
std::string PlanCacheKeySuffix(size_t expected_groups, const TranslatorOptions& options);

// Thread-safe memo of translated plans, one cost unit per plan (an entry
// budget). The Seabed engine owns a session's only one
// (Executor::plan_cache), which Session::ExecuteBatch and Service
// workers consult concurrently. Entries are immutable shared_ptrs, so a hit
// outlives its own eviction. Keys leave out the session's keys and
// encryption plan, so one cache never serves two sessions. Bounded, with
// LRU eviction: ad-hoc keys embed exact filter literals, so a dashboard
// sweeping a parameter (WHERE ts >= <moving t>) churns one-shot entries
// without limit — eviction must follow recency, or that churn flushes the
// hot shape-keyed entries prepared statements live on (FIFO would drop them
// in insertion order regardless of use).
using TranslatedPlanCache = LruCache<TranslatedQuery>;

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_TRANSLATOR_H_
