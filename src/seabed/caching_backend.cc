#include "src/seabed/caching_backend.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"

namespace seabed {

CachingSeabedBackend::CachingSeabedBackend(const CacheOptions& options,
                                           std::unique_ptr<Executor> inner)
    : inner_(std::move(inner)),
      results_(options.shared != nullptr
                   ? options.shared
                   : std::make_shared<SharedResultCache>(
                         SharedResultCache::Limits{options.max_entries, options.max_bytes})) {
  SEABED_CHECK_MSG(inner_ != nullptr, "caching backend needs an inner executor");
}

void CachingSeabedBackend::Prepare(AttachedTable& table) {
  inner_->Prepare(table);
  // A (re-)attach changes what queries over this table should see.
  InvalidateTable(table.name);
}

void CachingSeabedBackend::Append(AttachedTable& table, const Table& new_rows,
                                  JobStats* stats) {
  inner_->Append(table, new_rows, stats);
  // Invalidate AFTER the post-append version is published: a miss racing
  // this append either pinned the new version (its result is current) or
  // pinned the old one — and then its lookup epoch predates this bump, so
  // its insert is dropped. Cached PLANS are not invalidated: translation
  // depends on the encryption plan, keys and column schemes, all fixed at
  // Prepare — appends only add rows (and DET tokens derive deterministically
  // per value, so old literals still match).
  InvalidateTable(table.name);
}

ResultSet CachingSeabedBackend::Execute(const Query& query, QueryStats* stats) {
  return ExecuteVia(query, stats,
                    [&](QueryStats* inner_stats) { return inner_->Execute(query, inner_stats); });
}

ResultSet CachingSeabedBackend::ExecutePrepared(const PreparedQuery& prepared,
                                                std::span<const Value> params,
                                                QueryStats* stats) {
  // The result cache keys on the BOUND literals (a prepared hit and an
  // ad-hoc hit of the same values share one entry); the inner backend's
  // prepared path supplies the plan reuse on misses.
  Stopwatch bind_sw;
  const Query bound = prepared.Bind(params);
  const double bind_seconds = bind_sw.ElapsedSeconds();
  ResultSet result = ExecuteVia(bound, stats, [&](QueryStats* inner_stats) {
    return inner_->ExecutePrepared(prepared, params, inner_stats);
  });
  if (stats != nullptr) {
    stats->prepared = true;
    stats->bind_seconds += bind_seconds;  // a miss already billed the inner bind
  }
  return result;
}

ResultSet CachingSeabedBackend::ExecuteVia(
    const Query& bound, QueryStats* stats,
    const std::function<ResultSet(QueryStats*)>& run_inner) {
  const std::string key = bound.Fingerprint(Query::FingerprintMode::kExact);

  Stopwatch lookup_sw;
  const SharedResultCache::Lookup lookup = results_->Find(key);
  if (lookup.result != nullptr) {
    // The row copy happens outside every cache lock: concurrent warm hits
    // (ExecuteBatch) must not serialize on it.
    if (stats != nullptr) {
      *stats = QueryStats{};
      stats->backend = name();
      stats->cache_hit = true;
      stats->cache_lookup_seconds = lookup_sw.ElapsedSeconds();
      stats->result_rows = lookup.result->rows.size();
      stats->result_bytes = lookup.result_bytes;
      stats->rows_touched = lookup.rows_touched;
    }
    return *lookup.result;
  }
  const double lookup_seconds = lookup_sw.ElapsedSeconds();

  // Miss: run the inner backend outside the cache lock (concurrent queries
  // must keep overlapping). The inner engine pins its own immutable version,
  // so a concurrent Append proceeds unblocked.
  QueryStats local_stats;
  QueryStats* inner_stats = stats != nullptr ? stats : &local_stats;
  *inner_stats = QueryStats{};
  ResultSet result = run_inner(inner_stats);

  std::vector<std::string> tables;
  tables.push_back(bound.table);
  if (bound.join.has_value()) {
    tables.push_back(bound.join->right_table);
  }

  Stopwatch insert_sw;
  results_->Insert(key, std::make_shared<const ResultSet>(result), inner_stats->result_bytes,
                   inner_stats->rows_touched, std::move(tables), lookup.epoch);
  if (stats != nullptr) {
    stats->backend = name();
    stats->cache_hit = false;
    stats->cache_lookup_seconds = lookup_seconds + insert_sw.ElapsedSeconds();
  }
  return result;
}

}  // namespace seabed
