// The Seabed execution engine: N partitioned Server instances behind one
// Executor. BackendKind::kSeabed is this engine at one shard (reporting
// itself as "seabed"), kShardedSeabed at SessionOptions::shards.
//
// The paper's Figure 7 sweeps cluster cores inside ONE simulated Spark
// cluster; this backend adds the next axis — multiple servers. Attach
// partitions each table's rows into one encrypted database per shard under
// the session's placement policy (src/seabed/placement.h): multiplicative
// hash by default, or contiguous clustering-key ranges (kKeyRange), whose
// per-shard [lo, hi] boundaries ride in the published snapshot and let the
// coordinator route clustering-key range predicates to the owning shard
// subset before any fan-out (round-zero pruning, QueryStats::shards_routed);
// the first join that needs a table as its right side builds one full
// encrypted replica of it, broadcast to every shard. Execute translates the
// query once and fans the same server plan out to all shards concurrently,
// and a coordinator merge layer combines the partial encrypted responses
// before a single client decryption:
//
//   * ASHE sums add ciphertext-side (group elements add, ID-list blobs
//     concatenate — shards encrypt into disjoint identifier spaces, so the
//     multiset union never collides);
//   * COUNTs add;
//   * GROUP BY groups union-merge by serialized key;
//   * ORE MIN/MAX reduce by comparing the shards' winners.
//
// The paper's single server is the one-partition case of that algebra, and
// at one shard the engine does only the single server's work: the shard
// encrypts the attached table itself (ASHE identifiers from 1), a join's
// right side is the right table's own part (no replica), the client view is
// that part (no merged dictionaries), the lone response is the merged one,
// and placement is always hash (nothing to route).
//
// Queries flagged `needs_two_round_trips` probe the routed shards with a
// cheap row-count plan first when more than one shard is routed, and
// re-issue the full plan only to shards that matched — round two touches a
// subset of the fleet. When no shard matches, round two is skipped entirely
// (the empty merged response decrypts to the same rows a zero-match scan
// produces). Inside surviving shards, round two additionally consults each
// shard's row-group summary index (part of the published snapshot:
// VersionProbeIndex, src/seabed/snapshot.h) under the session's probe mode,
// so the pruned-scan Execute(scan_ranges) path runs *within* shards and
// QueryStats::row_groups_total/pruned aggregate the per-shard indexes.
//
// Ad-hoc and prepared queries share one sequence: pin the snapshot, resolve
// the fact and right-side versions, translate or hit the plan cache, bind,
// run. An ad-hoc query is the zero-parameter case and consults only an
// installed plan cache; a prepared one falls back to the backend's own.
//
// Concurrency: tables live in immutable published versions
// (ShardedTableVersion). Execute pins the current version through an epoch
// guard and never takes a lock; Prepare/Append/rebalance serialize on a
// writer mutex, build the successor version off to the side (copying only
// the shards they touch), and publish it with one atomic swap. Retired
// versions drain through epoch-based reclamation (src/common/epoch.h).
//
// Appends place whole batches on the shard that owns the batch's first
// global row (append locality — one encryption stream per batch, mirroring
// log-structured ingest), so a skewed append stream concentrates rows on few
// shards. SessionOptions::shards_rebalance (off by default) repairs that:
// past the configured skew ratio, Append migrates whole row-groups off the
// donor's tail — moved rows re-encrypt into the recipient's ASHE identifier
// space (the canonical append path) and the donor's remainder into a fresh
// disjoint slot, so identifiers are never reused across re-encryptions and
// coordinator merge semantics are untouched. Moves accumulate in
// RebalanceStats. Only a backend that can rebalance (enabled, two or more
// shards — both fixed at construction) keeps the per-shard plaintext
// partitions migration re-encrypts from.
//
// Latency model: the shards are independent clusters of the session's
// cluster shape running in parallel, so simulated server time is the slowest
// shard plus the measured merge; QueryStats reports the per-shard breakdown
// with probe-round and round-two time separated.
#ifndef SEABED_SRC_SEABED_SHARDED_BACKEND_H_
#define SEABED_SRC_SEABED_SHARDED_BACKEND_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/epoch.h"
#include "src/common/thread_pool.h"
#include "src/seabed/executor.h"
#include "src/seabed/server.h"
#include "src/seabed/snapshot.h"

namespace seabed {

class ShardedSeabedBackend : public Executor {
 public:
  // `name` is what name() and QueryStats::backend report: MakeExecutor passes
  // the BackendKindName of kSeabed (one shard) or kShardedSeabed.
  ShardedSeabedBackend(const ExecutionContext* context, size_t shards, const char* name);

  const char* name() const override { return name_; }
  void Prepare(AttachedTable& table) override;
  void Append(AttachedTable& table, const Table& new_rows,
              JobStats* stats = nullptr) override;
  ResultSet Execute(const Query& query, QueryStats* stats) override;
  ResultSet ExecutePrepared(const PreparedQuery& prepared, std::span<const Value> params,
                            QueryStats* stats) override;
  void SetPlanCache(std::shared_ptr<TranslatedPlanCache> cache) override {
    plan_cache_ = std::move(cache);
  }
  bool snapshot_isolated() const override { return true; }
  std::optional<RebalanceStats> rebalance_stats() const override;

  size_t num_shards() const { return shards_; }
  // The untrusted side of shard `shard`, exposed for tests.
  const Server& shard_server(size_t shard) const;
  // Shard `shard`'s partition of `table` in the currently published version
  // (aborts when not attached). The reference stays valid until the version
  // is retired AND drained, so don't hold it across a concurrent Append —
  // snapshot what you need before resuming mutation traffic.
  const EncryptedDatabase& shard_database(const std::string& table, size_t shard) const;
  // The full-table join replica of `table`'s current version, or nullptr
  // while no join query has needed one (always, at one shard: the right
  // side is the table's own part). Same lifetime caveat as shard_database.
  const EncryptedDatabase* replica_database(const std::string& table) const;

  // Per-shard row counts of `table`'s partitions, exposed so tests and
  // benches can observe skew and rebalancing.
  std::vector<size_t> ShardRowCounts(const std::string& table) const;

  // Deterministic HASH placement: which shard owns global row `row` at
  // Attach time, and which shard an append batch starting at global row
  // `row` lands on whole (append locality). Exposed so tests can pin — and
  // deliberately skew — the partitioning. Key-range tables place by value
  // instead (see ShardedTableVersion::boundaries).
  size_t ShardOfRow(size_t row) const;

 private:
  struct TableState {
    // Owning reference to the published version; written under writer_mu_.
    std::shared_ptr<const ShardedTableVersion> owner;
    // Lock-free read point. Readers must hold an epochs_ guard across the
    // load and every dereference of the result.
    std::atomic<const ShardedTableVersion*> current{nullptr};
  };

  TableState& StateFor(const std::string& table);
  // Pinned pointer to `table`'s published version (caller holds a guard), or
  // null when the table was never prepared.
  const ShardedTableVersion* CurrentVersion(const std::string& table) const;
  // Swaps `next` in as `state`'s published version and retires the old one
  // into the epoch domain. Requires writer_mu_.
  void Publish(TableState& state, std::shared_ptr<const ShardedTableVersion> next);

  // Guarantees `right`'s published version carries a join replica, building
  // one (as a new version) on first use. Once a version has a replica every
  // later version does — appends grow a copy — so a reader that pins after
  // this returns always finds one. Only called with two or more shards.
  void EnsureReplica(const AttachedTable& right);

  // Runs `plan` on every shard in `active` concurrently (skipped shards get
  // a default-constructed response), over `version`'s part tables. `right`
  // is the broadcast join table (nullptr for non-join plans).
  std::vector<EncryptedResponse> FanOut(const ShardedTableVersion& version,
                                        const ServerPlan& plan, const std::vector<bool>& active,
                                        const Table* right) const;

  // The one query sequence behind Execute and ExecutePrepared: pin, resolve
  // the fact and right-side versions, translate or hit the plan cache, bind,
  // RunTranslated. `prepared` is null for an ad-hoc query (then `shape` is
  // the query itself and `params` is empty), which consults only an
  // installed plan cache; a prepared call falls back to own_plan_cache_.
  ResultSet Run(const Query& shape, const PreparedQuery* prepared,
                std::span<const Value> params, QueryStats* stats);

  // Post-translation execution: shard count probe, intra-shard pruning,
  // round-two fan-out, coordinator merge, client decryption, stats fill
  // (except the translate/bind fields Run owns). `query` must be fully
  // bound; the caller holds the epoch guard that pins `ver` and `right_db`
  // (the join's right side, or nullptr).
  ResultSet RunTranslated(const Query& query, const AttachedTable& fact,
                          const ShardedTableVersion* ver, const EncryptedDatabase* right_db,
                          const TranslatedQuery& tq, QueryStats* stats);

  // Migrates whole row-groups between shards when an Append left the fleet
  // skewed past `context_->rebalance.max_skew_ratio`. Operates on the
  // unpublished successor version `next`; `rebuilt[s]` marks shards whose
  // part objects `next` already owns (copied or rebuilt — everything else
  // is still structurally shared with the published version and must be
  // copied before growing). Requires writer_mu_ (called from Append).
  void MaybeRebalance(const AttachedTable& table, ShardedTableVersion& next,
                      const Encryptor& encryptor, std::vector<char>& rebuilt);

  // The key-range arm of MaybeRebalance: policy-mediated boundary moves.
  // Instead of carving row-groups off the hottest shard's tail for an
  // arbitrary recipient, the donor sheds a boundary SEGMENT — its lowest or
  // highest clustering keys — to a key-space neighbor (shard index order ==
  // key order), so owning ranges stay contiguous and routable. Moved rows
  // re-encrypt into the recipient's identifier space via the canonical
  // append path and the donor's remainder into a fresh slot, exactly like
  // the hash arm; `next`'s boundary metadata is updated alongside the parts
  // it describes, so the published version is self-consistent. `counts`,
  // `ideal` and `trigger` are MaybeRebalance's per-shard row counts and skew
  // thresholds.
  void MaybeRebalanceKeyRange(const AttachedTable& table, ShardedTableVersion& next,
                              const Encryptor& encryptor, std::vector<char>& rebuilt,
                              std::vector<size_t> counts, double ideal, double trigger);

  const ExecutionContext* context_;
  const size_t shards_;
  const char* const name_;
  // Whether Append can ever migrate rows (rebalancing enabled over two or
  // more shards). Only then does a version keep `plain_parts`.
  const bool can_rebalance_;
  std::shared_ptr<TranslatedPlanCache> plan_cache_;
  // Shape-plan memo for the prepared path when no external cache was
  // installed: Prepare+bind never retranslates per call even on a bare
  // session. The ad-hoc path ignores it, so uncached Execute semantics (and
  // its translate cost) stay as they are.
  TranslatedPlanCache own_plan_cache_{256};
  std::vector<Server> servers_;
  RebalanceStats rebalance_stats_;  // guarded by writer_mu_

  mutable EpochDomain epochs_;
  // Serializes Prepare/Append/EnsureReplica (version builders). Never held
  // by the read path: Execute pins a version through `epochs_` and runs
  // lock-free, so appends and queries overlap freely.
  mutable std::mutex writer_mu_;
  mutable std::mutex states_mu_;  // guards the states_ map shape only
  std::map<std::string, std::unique_ptr<TableState>> states_;
  // Fan-out pool shared by all queries of this backend (shards run
  // concurrently; each shard's scan then parallelizes on the cluster model).
  mutable ThreadPool pool_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SHARDED_BACKEND_H_
