// Caching Seabed: a memoization layer over any inner execution backend.
//
// The paper's target workload (Section 5: BI dashboards) re-issues
// near-identical aggregate queries — the same handful of shapes, refreshed
// on every dashboard load. This decorator makes the warm path cheap twice
// over:
//
//   * a RESULT CACHE keyed by Query::Fingerprint() (filters
//     order-normalized, literals typed) memoizes the decrypted answer, so a
//     repeated query skips the untrusted server entirely. The cache itself
//     is a SharedResultCache (src/seabed/result_cache.h): LRU under entry +
//     byte budgets, per-table invalidation, epoch-fenced inserts. By default
//     each backend owns a private one; pass CacheOptions::shared to attach
//     many sessions (or a Service fleet) to one cross-session cache — warm
//     hits travel between sessions, and any session's Append invalidates
//     the table for all of them;
//   * the inner Seabed engine's own TRANSLATED-PLAN CACHE (forwarded by
//     plan_cache()) memoizes the translator's output per plan key, so even
//     a result-cache MISS skips rebuilding Translator state for a shape the
//     dashboard has issued before. Plans survive appends — translation reads
//     only the encryption plan and keys, never rows.
//
// The cache lives on the CLIENT side of the trust boundary: it stores final
// decrypted rows (the client is trusted; ciphertext re-decryption would only
// add latency), and the untrusted server learns nothing new — a hit means
// the server sees no query at all.
//
// QueryStats: hits report cache_hit=true, the result shape of the original
// cold run (result_rows / result_bytes / rows_touched), and only
// cache_lookup_seconds of latency; misses report the inner backend's full
// breakdown plus plan_cache_hit when translation was memoized. Prepared
// executions (ExecutePrepared) are cached too — the result cache keys on the
// BOUND query's exact fingerprint, so a prepared hit and an ad-hoc hit of
// the same literals share one entry.
//
// THREAD SAFETY: fully safe for multi-threaded fronts (seabed::Service).
// The result cache is internally synchronized, and the decorator takes no
// lock of its own: the inner Seabed engine pins a published table version
// per query, so appends run concurrently with in-flight misses. The cache's
// invalidation epoch fences each miss's insert: a miss whose lookup predates
// the append's invalidation is dropped instead of republishing a result
// computed over the old table. Over kPlain or kPaillier (which mutate in
// place) the caller must order Prepare/Append against Execute.
#ifndef SEABED_SRC_SEABED_CACHING_BACKEND_H_
#define SEABED_SRC_SEABED_CACHING_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/seabed/executor.h"
#include "src/seabed/result_cache.h"

namespace seabed {

class CachingSeabedBackend : public Executor {
 public:
  // Wraps `inner` (built by MakeExecutor from `options.inner`). Uses
  // `options.shared` as the result cache when set, else builds a private one
  // from the options' limits.
  CachingSeabedBackend(const CacheOptions& options, std::unique_ptr<Executor> inner);

  const char* name() const override { return "caching-seabed"; }
  void Prepare(AttachedTable& table) override;
  void Append(AttachedTable& table, const Table& new_rows,
              JobStats* stats = nullptr) override;
  ResultSet Execute(const Query& query, QueryStats* stats) override;
  ResultSet ExecutePrepared(const PreparedQuery& prepared, std::span<const Value> params,
                            QueryStats* stats) override;
  const TranslatedPlanCache* plan_cache() const override { return inner_->plan_cache(); }
  std::optional<RebalanceStats> rebalance_stats() const override {
    return inner_->rebalance_stats();
  }

  // Drops every cached result (plan cache untouched — plans never go stale).
  void InvalidateResults() { results_->InvalidateAll(); }
  // Drops cached results that read `table` as fact or join right side.
  void InvalidateTable(const std::string& table) { results_->InvalidateTable(table); }

  // --- observability, exposed for tests and benches --------------------------
  // Forwarded from the result cache — cache-global counters when `shared`
  // attaches several sessions to one cache.
  uint64_t hits() const { return results_->hits(); }
  uint64_t misses() const { return results_->misses(); }
  size_t entries() const { return results_->entries(); }
  size_t cached_bytes() const { return results_->bytes(); }
  const SharedResultCache& result_cache() const { return *results_; }
  Executor& inner() { return *inner_; }

 private:
  // The shared miss/hit protocol of Execute and ExecutePrepared: probes the
  // cache under `bound`'s exact fingerprint, else runs `run_inner` (outside
  // every cache lock) and publishes its result epoch-fenced.
  ResultSet ExecuteVia(const Query& bound, QueryStats* stats,
                       const std::function<ResultSet(QueryStats*)>& run_inner);

  std::unique_ptr<Executor> inner_;
  std::shared_ptr<SharedResultCache> results_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_CACHING_BACKEND_H_
