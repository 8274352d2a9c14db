// The seabed::Session facade — one object for the paper's whole pipeline.
//
// A Session owns everything the five-class dance used to thread by hand:
// the cluster model, client keys, planner output, encrypted databases, the
// join-table registry, and the execution backend. Typical use:
//
//   SessionOptions options;
//   options.backend = BackendKind::kSeabed;
//   Session session(options);
//   session.Attach(table, schema, sample_queries);   // plan + encrypt + upload
//   QueryStats stats;
//   ResultSet r = session.Execute(MustParseSql(sql), &stats);
//
// Swapping `options.backend` re-runs the same queries on the NoEnc or
// Paillier baseline — the evaluation's backend-for-backend comparison in one
// line. Joined tables are Attach()ed like any other table and resolved by
// name from the query's JOIN clause.
#ifndef SEABED_SRC_SEABED_SESSION_H_
#define SEABED_SRC_SEABED_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/seabed/executor.h"

namespace seabed {

struct SessionOptions {
  BackendKind backend = BackendKind::kSeabed;

  // Cluster model for this session. Ignored when `external_cluster` is set
  // (non-owning; must outlive the Session) — benches sweeping core counts
  // share one encrypted database across many cluster shapes that way.
  ClusterConfig cluster;
  const Cluster* external_cluster = nullptr;

  PlannerOptions planner;
  TranslatorOptions translator;
  PaillierBackendOptions paillier;

  // Two-round probe-and-prune execution (src/seabed/probe.h). On kSeabed
  // and kShardedSeabed (standalone or as a caching inner) round one consults
  // each shard's row-group summaries and round two scans only surviving
  // groups; with two or more shards kForced also extends the shard-level
  // count probe to every query. kPlain/kPaillier ignore it.
  ProbeOptions probe;

  // Fan-out width of the kShardedSeabed backend. Fixed at 1 for kSeabed —
  // the same engine at one shard — and ignored by the others. Each shard is
  // an independent Server holding a partition of every attached table;
  // queries fan out and merge at the coordinator.
  size_t shards = 4;

  // Row→shard placement of the kShardedSeabed backend (ignored by the
  // others). The default reproduces the PR-2 multiplicative hash bit-for-bit;
  // PlacementPolicy::kKeyRange places each table named in
  // `shards_placement.clustering_columns` by contiguous ranges of that
  // column, enabling round-zero shard routing of clustering-key range
  // predicates (see src/seabed/placement.h and QueryStats::shards_routed).
  ShardPlacementOptions shards_placement;

  // Skew-aware rebalancing of the kShardedSeabed backend (off by default;
  // ignored by the others). Appends place whole batches on one shard, so a
  // skewed stream unbalances the fleet; past the configured skew ratio,
  // Append migrates whole row-groups to underloaded shards (see
  // ShardRebalanceOptions in executor.h and Session::rebalance_stats()).
  ShardRebalanceOptions shards_rebalance;

  // kCachingSeabed configuration: the inner backend that executes misses
  // (kSeabed or kShardedSeabed — `shards` applies to the latter) and the
  // result-cache LRU budgets. Ignored by the other backends.
  CacheOptions cache;

  // Master-secret seed for the per-column key derivation.
  uint64_t key_seed = 0xC0FFEE;
};

class Session {
 public:
  explicit Session(SessionOptions options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Registers `table` under its name: runs the planner over `sample_queries`
  // and lets the backend encrypt/upload as needed. Joined tables are attached
  // the same way and resolved by name at query time.
  void Attach(std::shared_ptr<Table> table, const PlainSchema& schema,
              const std::vector<Query>& sample_queries);

  // Attach with a precomputed encryption plan (skips the planner) — used
  // when several sessions must share the exact plan.
  void AttachPlanned(std::shared_ptr<Table> table, const PlainSchema& schema,
                     EncryptionPlan plan);

  // Appends plaintext rows to an attached table (paper Section 4.1): the
  // attached plaintext table and the backend's encrypted state both grow.
  // `stats`, when non-null, receives the ingest job's modeled cluster cost
  // (same real-compute / synthetic-fabric contract as query execution).
  void Append(const std::string& table, const Table& new_rows,
              JobStats* stats = nullptr);

  // Runs one query end-to-end on the session's backend. `stats`, when
  // non-null, receives the per-call latency breakdown.
  ResultSet Execute(const Query& query, QueryStats* stats = nullptr);

  // --- prepared statements (src/seabed/prepared.h) ---------------------------
  // Validates `shape` (table attached, placeholder slots contiguous and
  // unique) and freezes its fingerprints into a reusable handle. The first
  // Execute of the handle translates the shape into the plan cache; every
  // later Execute binds and runs — no parser, no planner lookup, no
  // retranslation. Shapes whose placeholders land on SPLASHE-protected
  // columns are marked non-parameterized and transparently fall back to
  // bind-then-ad-hoc execution (same rows, no plan reuse).
  PreparedQuery Prepare(const Query& shape) const;

  // Executes the prepared shape with `params` bound to its slots. Returns
  // exactly the rows of Execute(prepared.Bind(params)).
  ResultSet Execute(const PreparedQuery& prepared, std::span<const Value> params,
                    QueryStats* stats = nullptr);

  // Concurrent prepared executions, one per parameter vector (the prepared
  // analogue of ExecuteBatch — same contract, same stats caveat).
  std::vector<ResultSet> ExecutePreparedBatch(const PreparedQuery& prepared,
                                              std::span<const std::vector<Value>> param_sets,
                                              std::vector<QueryStats>* stats = nullptr);

  // Runs a batch concurrently on the host pool, reusing the session's
  // prepared translation state. `stats`, when non-null, is resized to one
  // entry per query. Rows are identical to serial Execute calls; the timing
  // fields reflect contended host cores, so use serial Execute when
  // measuring latency and ExecuteBatch when measuring throughput.
  std::vector<ResultSet> ExecuteBatch(std::span<const Query> queries,
                                      std::vector<QueryStats>* stats = nullptr);

  // --- knobs benches sweep between Execute calls -----------------------------
  // Point the session at a different cluster model (nullptr = back to the
  // session-owned cluster). Non-owning.
  void UseCluster(const Cluster* cluster);
  void set_translator_options(const TranslatorOptions& options);
  const TranslatorOptions& translator_options() const { return context_.translator; }
  // Probe-mode sweeps (off vs. auto vs. forced) without re-encrypting
  // anything — the probe benches flip this between Execute calls.
  void set_probe_options(const ProbeOptions& options);
  const ProbeOptions& probe_options() const { return context_.probe; }

  // --- accessors --------------------------------------------------------------
  const Cluster& cluster() const { return *context_.cluster; }
  const ClientKeys& keys() const { return keys_; }
  BackendKind backend_kind() const { return options_.backend; }
  Executor& executor() { return *executor_; }

  // Snapshot of the cumulative shard-rebalancing moves: all zeros on
  // kSeabed (one shard never migrates rows), nullopt on kPlain/kPaillier (or
  // a caching wrapper over one of them). Safe to poll while appends run.
  std::optional<RebalanceStats> rebalance_stats() const { return executor_->rebalance_stats(); }

  const AttachedTable& attached(const std::string& table) const { return catalog_.Get(table); }
  const EncryptionPlan& plan(const std::string& table) const;
  // The encrypted database the backend built for `table` (aborts on the
  // plain backend, which has none). On kSeabed it is the table's whole
  // encrypted form; on a session with more than one shard it is the client
  // view, whose `table` holds only shard 0's part.
  const EncryptedDatabase& encrypted_database(const std::string& table) const;

 private:
  SessionOptions options_;
  ClientKeys keys_;
  std::unique_ptr<Cluster> own_cluster_;
  TableCatalog catalog_;
  ExecutionContext context_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SESSION_H_
