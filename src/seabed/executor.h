// Pluggable execution backends behind the seabed::Session facade.
//
// The paper's evaluation is a backend-for-backend comparison over identical
// queries: plaintext Spark execution (NoEnc), the CryptDB/Monomi-style
// Paillier baseline, and Seabed's ASHE/SPLASHE pipeline. This header gives
// the three paths one interface — an Executor turns a Query into a ResultSet
// plus per-call QueryStats — so examples, benches and tests swap systems by
// picking a backend instead of re-wiring translator/server/client objects.
#ifndef SEABED_SRC_SEABED_EXECUTOR_H_
#define SEABED_SRC_SEABED_EXECUTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/crypto/paillier.h"
#include "src/query/query.h"
#include "src/seabed/encryptor.h"
#include "src/seabed/paillier_baseline.h"
#include "src/seabed/placement.h"
#include "src/seabed/planner.h"
#include "src/seabed/prepared.h"
#include "src/seabed/probe.h"
#include "src/seabed/translator.h"

namespace seabed {

// kSeabed and kShardedSeabed are one engine (ShardedSeabedBackend,
// src/seabed/sharded_backend.h): kSeabed is it at one shard, the paper's
// single server; kShardedSeabed at SessionOptions::shards.
enum class BackendKind {
  kPlain,          // NoEnc: plaintext execution on the cluster model
  kSeabed,         // ASHE/SPLASHE/DET/ORE encrypted pipeline on one server
  kPaillier,       // CryptDB/Monomi-style Paillier baseline
  kShardedSeabed,  // scale-out Seabed: N partitioned servers + merge layer
};

const char* BackendKindName(BackendKind kind);

// Skew-aware shard rebalancing (kShardedSeabed only; the other backends
// ignore it). Appends place whole batches on one shard (append locality), so
// a skewed stream can concentrate rows; when enabled, Append migrates whole
// row-groups from overloaded shards to underloaded ones — moved rows are
// re-encrypted into the recipient's ASHE identifier space and the donor's
// remainder into a fresh disjoint slot, so coordinator merge semantics are
// untouched. Moves accumulate in RebalanceStats (src/query/query.h).
struct ShardRebalanceOptions {
  // Off by default: Append never migrates rows.
  bool enabled = false;

  // Trigger: rebalance when the largest shard exceeds this multiple of the
  // ideal per-shard row count (total rows / shards).
  double max_skew_ratio = 1.5;

  // Migration granularity — rows per migrated row-group. Moves are whole
  // groups carved off the donor's tail, so donor prefixes keep their
  // identifiers and summaries.
  size_t row_group_size = 1024;
};

// One table registered with a Session: the plaintext source, its schema, the
// planner's encryption plan, and (for encrypted backends) the encrypted form
// built by Executor::Prepare.
struct AttachedTable {
  std::string name;
  std::shared_ptr<Table> plain;
  PlainSchema schema;
  EncryptionPlan plan;

  // Encrypted form owned by the backend that prepared it: the Seabed client
  // view for ShardedSeabedBackend (shard 0's part when there is one shard),
  // the baseline database for PaillierBackend, absent for
  // PlainExecutorBackend.
  std::optional<EncryptedDatabase> enc;
};

// Join-table registry shared by the Session and its backend: queries name
// plaintext tables; backends resolve fact and joined tables here.
class TableCatalog {
 public:
  AttachedTable& Add(AttachedTable table);
  const AttachedTable& Get(const std::string& name) const;  // aborts when absent
  AttachedTable& GetMutable(const std::string& name);
  const AttachedTable* Find(const std::string& name) const;

  const std::map<std::string, AttachedTable>& tables() const { return tables_; }

 private:
  std::map<std::string, AttachedTable> tables_;
};

// Session-owned state every backend reads at query time. The Session mutates
// `cluster` (core-count sweeps), `translator` (codec/inflation knobs) and
// `probe` (two-round mode sweeps) between Execute calls; backends must
// re-read them per call.
struct ExecutionContext {
  const TableCatalog* catalog = nullptr;
  const ClientKeys* keys = nullptr;
  const Cluster* cluster = nullptr;
  TranslatorOptions translator;
  ProbeOptions probe;
  ShardRebalanceOptions rebalance;
  ShardPlacementOptions placement;
};

// Abstract execution backend. Implementations are stateless per call apart
// from the prepared table state and the engine's thread-safe plan and result
// caches, so concurrent Execute calls are safe (Session::ExecuteBatch relies
// on this).
class Executor {
 public:
  virtual ~Executor();

  virtual const char* name() const = 0;

  // Builds backend state for a newly attached table (encryption, upload to
  // the untrusted server). Called once per table by Session::Attach.
  virtual void Prepare(AttachedTable& table) = 0;

  // Appends `new_rows` to the attached table (paper Section 4.1): grows
  // `table.plain` and the backend's encrypted state. Only the Seabed engine
  // (kSeabed, kShardedSeabed) may run Append while Execute calls are in
  // flight: it builds the next table version off to the side and publishes
  // it with an atomic swap. kPlain and kPaillier mutate in place, so their
  // callers must order Append against Execute (seabed::Service refuses to
  // serve them). When `stats`
  // is non-null it receives the ingest job's simulated cluster cost — real
  // measured compute, synthetic parallel fabric, the same contract Execute
  // honors for queries (see src/engine/cluster.h).
  virtual void Append(AttachedTable& table, const Table& new_rows,
                      JobStats* stats = nullptr) = 0;

  // Runs `query` end-to-end and fills `stats` (when non-null) with the
  // latency breakdown of this call.
  virtual ResultSet Execute(const Query& query, QueryStats* stats) = 0;

  // Prepared execution: runs `prepared` with `params` bound to its
  // placeholder slots. Every backend returns exactly the rows of
  // Execute(prepared.Bind(params)); backends with a translation step
  // (kSeabed, kShardedSeabed) additionally reuse the shape's cached plan and
  // only encrypt the bound literals per call. The base implementation binds
  // and delegates to Execute — correct for backends with no translation to
  // skip (kPlain) or none worth parameterizing (kPaillier re-encrypts the
  // whole plan anyway). All implementations set stats->prepared and
  // stats->bind_seconds.
  virtual ResultSet ExecutePrepared(const PreparedQuery& prepared,
                                    std::span<const Value> params, QueryStats* stats);

  // The translated-plan memo of the Seabed engine, which owns the only one
  // and consults it on every ad-hoc and prepared call. Null on kPlain and
  // kPaillier, which keep no translation to memoize. Read-only: exposed so
  // tests, benches and seabed::Service can count hits and misses.
  virtual const TranslatedPlanCache* plan_cache() const { return nullptr; }

  // Snapshot of the cumulative skew-rebalancing detail (all zeros on
  // kSeabed, whose single shard never migrates rows), or nullopt on the
  // non-Seabed backends. A copy taken under the backend's state lock, so it
  // is safe to call while appends run.
  virtual std::optional<RebalanceStats> rebalance_stats() const { return std::nullopt; }
};

// Appends `src`'s rows onto `dst`'s plaintext columns. Shared by the
// backends' Append implementations.
void GrowPlainTable(Table& dst, const Table& src);

// Deep copy of a plaintext table (fresh columns, no sharing).
// Sessions exercised with Append must each own their table — Append grows
// the attached table in place, so attaching one shared instance to several
// sessions would compound every batch. Used by benches and the equivalence
// suites.
std::shared_ptr<Table> CloneTable(const Table& src);

// Models one ingest job on the cluster fabric: `compute_seconds` of real
// measured work split into `num_tasks` row-range tasks round-robined over
// the modeled workers — the Cluster::RunJob accounting, applied to work that
// cannot be re-run as independent closures (encryption streams are
// sequential per destination column). Shared by the backends' Append
// implementations.
JobStats ModelIngestJob(const Cluster& cluster, double compute_seconds, size_t num_tasks);

// NoEnc: plaintext execution over the attached tables.
class PlainExecutorBackend : public Executor {
 public:
  explicit PlainExecutorBackend(const ExecutionContext* context) : context_(context) {}

  const char* name() const override { return "plain"; }
  void Prepare(AttachedTable& table) override;
  void Append(AttachedTable& table, const Table& new_rows,
              JobStats* stats = nullptr) override;
  ResultSet Execute(const Query& query, QueryStats* stats) override;

 private:
  const ExecutionContext* context_;
};

struct PaillierBackendOptions {
  int modulus_bits = 512;
  uint64_t seed = 1;
  // Construction-time randomness pool (see Paillier::MakeRandomnessPool).
  size_t randomness_pool_size = 64;
};

// CryptDB/Monomi baseline: Paillier measures, DET/ORE dimensions.
class PaillierBackend : public Executor {
 public:
  PaillierBackend(const ExecutionContext* context, const PaillierBackendOptions& options);

  const char* name() const override { return "paillier"; }
  void Prepare(AttachedTable& table) override;
  void Append(AttachedTable& table, const Table& new_rows,
              JobStats* stats = nullptr) override;
  ResultSet Execute(const Query& query, QueryStats* stats) override;

  const Paillier& paillier() const { return paillier_; }

 private:
  const ExecutionContext* context_;
  Rng rng_;
  Paillier paillier_;
  size_t randomness_pool_size_;
};

// Builds the backend for `kind`. `paillier_options` configures kPaillier;
// `shards` sets the fan-out width of kShardedSeabed; `result_cache_bytes`
// is the Seabed engine's result-cache budget (0: no result cache). Each knob
// is ignored by the kinds it does not concern.
std::unique_ptr<Executor> MakeExecutor(BackendKind kind, const ExecutionContext* context,
                                       const PaillierBackendOptions& paillier_options,
                                       size_t shards, size_t result_cache_bytes);

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_EXECUTOR_H_
