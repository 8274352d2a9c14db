// Query AST for the OLAP subset Seabed targets.
//
// Section 5 of the paper finds that BI workloads are dominated by filtered
// aggregations with group-by: SUM / COUNT / AVG / MIN / MAX plus quadratic
// aggregates (VARIANCE, STDDEV) that the client supports by pre-computing a
// squared column. That subset is exactly what this AST expresses. The same
// Query object is executed by the plaintext engine (NoEnc baseline), by the
// Paillier baseline, and — after rewriting by the Seabed translator — by the
// encrypted server.
#ifndef SEABED_SRC_QUERY_QUERY_H_
#define SEABED_SRC_QUERY_QUERY_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/engine/cluster.h"
#include "src/engine/value.h"

namespace seabed {

enum class AggFunc {
  kSum,
  kCount,
  kAvg,
  kMin,
  kMax,
  kVariance,  // needs the client-uploaded squared column on the server path
  kStddev,
};

const char* AggFuncName(AggFunc func);

enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

// Whether `op` accepts a three-way comparison result (`order` < 0, == 0 or
// > 0 as in strcmp). The single definition every predicate evaluator —
// plain executor, encrypted server, Paillier baseline, planner estimate,
// probe pruning — must share, so a CmpOp addition cannot diverge them.
// Header-inline: this sits in every scan's per-row hot loop.
constexpr bool CmpOpMatchesOrder(CmpOp op, int order) {
  switch (op) {
    case CmpOp::kEq:
      return order == 0;
    case CmpOp::kNe:
      return order != 0;
    case CmpOp::kLt:
      return order < 0;
    case CmpOp::kLe:
      return order <= 0;
    case CmpOp::kGt:
      return order > 0;
    case CmpOp::kGe:
      return order >= 0;
  }
  return false;
}

struct Aggregate {
  AggFunc func = AggFunc::kSum;
  std::string column;  // empty for COUNT(*)
  std::string alias;
};

struct Predicate {
  std::string column;
  CmpOp op = CmpOp::kEq;
  Value operand;
  // Placeholder slot for prepared statements: -1 means `operand` holds a
  // bound literal; >= 0 names the 0-based parameter this predicate binds at
  // execution time (`operand` is ignored until then). Slots are assigned in
  // order of appearance by the parser (`?`) and by WhereParam().
  int param = -1;
};

// Equi-join of the query's (fact) table against a second table. Columns of
// the joined table are referenced with a "right:" prefix in aggregates,
// filters and group-bys. On the encrypted path the join key must be DET
// encrypted (SPLASHE cannot support joins — paper Section 3.5).
struct Join {
  std::string right_table;
  std::string left_column;   // column of the fact table
  std::string right_column;  // column of the joined table
};

struct Query {
  std::string table;
  std::vector<Aggregate> aggregates;
  std::vector<Predicate> filters;
  std::vector<std::string> group_by;
  std::optional<Join> join;

  // Client hint: expected number of result groups, used by the group-by
  // inflation optimization (Section 4.5). 0 = unknown.
  size_t expected_groups = 0;

  // Markers used by the Section 5 classifier and the translator: a UDF means
  // the server returns raw aggregates and the client applies the function; a
  // two-round-trip query (e.g. iterative regression) re-encrypts an
  // intermediate result.
  bool has_udf = false;
  bool needs_two_round_trips = false;

  // Canonical query fingerprint for caching layers (result + translated-plan
  // caches). Two queries with the same fingerprint produce identical result
  // rows on every backend:
  //   * filters are ORDER-NORMALIZED (the WHERE clause is a conjunction, so
  //     `a=1 AND b=2` and `b=2 AND a=1` collapse to one key);
  //   * aggregates and group-by keys keep their declared order (it defines
  //     the result columns);
  //   * literals are typed, so WHERE x = 1 and WHERE x = '1' stay distinct;
  //   * execution hints that cannot change the rows (`expected_groups`,
  //     `needs_two_round_trips`) are EXCLUDED — plan caches that depend on
  //     them must mix them into their own key.
  // kShape elides filter literals (`ts>=?`), collapsing a dashboard's
  // parameter sweeps onto one key — the granularity plan/shape statistics
  // want, too coarse for a result cache. Unbound placeholder predicates
  // render as `?N` (slot index) in kExact mode: the slot is part of the
  // query's identity, and `?N` cannot collide with typed literals (which
  // always start with i/d/s).
  enum class FingerprintMode { kExact, kShape };
  std::string Fingerprint(FingerprintMode mode = FingerprintMode::kExact) const;

  // Placeholder support (prepared statements, src/seabed/prepared.h).
  // num_params() is 1 + the highest slot index (0 when fully bound);
  // BindParams substitutes `params[slot]` into every placeholder predicate
  // and returns the fully-bound copy. Slot-contiguity is validated by
  // Session::Prepare, not here.
  size_t num_params() const;
  bool has_params() const { return num_params() > 0; }
  Query BindParams(std::span<const Value> params) const;

  // Fluent builders for tests/examples.
  Query& Sum(const std::string& column, const std::string& alias = "");
  Query& Count(const std::string& alias = "");
  Query& Avg(const std::string& column, const std::string& alias = "");
  Query& Min(const std::string& column, const std::string& alias = "");
  Query& Max(const std::string& column, const std::string& alias = "");
  Query& Variance(const std::string& column, const std::string& alias = "");
  Query& Where(const std::string& column, CmpOp op, Value operand);
  // Adds a placeholder predicate on the next free slot (== num_params()).
  Query& WhereParam(const std::string& column, CmpOp op);
  Query& GroupBy(const std::string& column);
};

// A fully-processed query answer: just the data. The latency breakdown the
// paper reports lives in QueryStats, filled per call by every executor.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;  // sorted by group key

  // Pretty-printer for examples.
  std::string ToString(size_t max_rows = 20) const;
};

// Per-query metrics, populated by every execution backend (the Figure 6/7
// latency breakdown plus the Section 6.6 decryption-cost statistics). One
// QueryStats is produced per Execute call, so concurrent queries never share
// mutable counters.
struct QueryStats {
  std::string backend;          // name of the executing backend

  JobStats job;                 // simulated-cluster detail for the scan phase
  double server_seconds = 0;    // scan + driver merge + modeled shuffle
  double network_seconds = 0;   // driver -> client transfer (modeled)
  double client_seconds = 0;    // decryption + post-processing (measured)
  double translate_seconds = 0; // proxy-side query rewriting (measured)

  uint64_t prf_calls = 0;       // AES/PRF invocations during decryption
  size_t result_bytes = 0;      // payload shipped to the client
  size_t result_rows = 0;       // rows in the final ResultSet

  // Rows that survived the server-side predicates (each join match counts
  // once). Deterministic for a fixed table + query, so regression tests can
  // pin it across sessions.
  uint64_t rows_touched = 0;

  // Sharded fan-out detail (kSeabed and kShardedSeabed): simulated
  // round-two server latency per shard, the per-shard probe cost (round-one
  // count probe plus any intra-shard row-group probe) reported separately so
  // pruned shards — which run no round two — don't over-report, and the
  // coordinator's ciphertext-side merge time. kSeabed reports its one shard
  // and a zero merge; empty / zero on kPlain and kPaillier.
  std::vector<double> shard_server_seconds;
  std::vector<double> shard_probe_seconds;
  double merge_seconds = 0;

  // Round-zero shard routing (kShardedSeabed under key-range placement,
  // src/seabed/placement.h): how many of the fleet's shards the coordinator
  // routed this query to before any fan-out, and the fleet size. Equal when
  // the query is not routable (hash placement, or no clustering-key filter
  // — full fan-out); routed == 0 means no shard's key range intersects the
  // predicate and both rounds were skipped outright. kSeabed reports
  // shards_total == 1 (and routes its one shard); both zero on kPlain and
  // kPaillier.
  uint64_t shards_routed = 0;
  uint64_t shards_total = 0;

  // Caching detail (kCachingSeabed): whether this call was answered from the
  // result cache, whether the inner backend reused a cached translated plan,
  // and the time spent probing/updating the result cache. All zero/false on
  // non-caching backends.
  bool cache_hit = false;
  bool plan_cache_hit = false;
  double cache_lookup_seconds = 0;

  // Prepared-statement detail: whether this call went through the
  // Prepare+bind path, and the time spent binding parameters (Query
  // substitution plus per-slot DET/ORE encryption). Reported uniformly by
  // every backend; zero/false on ad-hoc Execute calls. translate_seconds on
  // a warm prepared call covers only the shape-plan cache lookup.
  bool prepared = false;
  double bind_seconds = 0;

  // Two-round probe detail (src/seabed/probe.h): whether round one ran, its
  // cost (also folded into server_seconds), and how much of the fleet it let
  // round two skip. The units are row groups of the summary index,
  // aggregated across the shards' per-server indexes when the intra-shard
  // prune ran, and falling back to shard granularity when only the
  // shard-level count probe did (it needs two or more routed shards, so
  // never on kSeabed). All zero/false when no probe ran — cache hits in
  // particular never probe.
  bool probe_used = false;
  double probe_seconds = 0;
  uint64_t row_groups_total = 0;
  uint64_t row_groups_pruned = 0;

  double TotalSeconds() const {
    return server_seconds + network_seconds + client_seconds;
  }
};

// Skew-aware shard-rebalancing detail (kShardedSeabed,
// src/seabed/sharded_backend.h). Appends place whole batches, so a skewed
// stream unbalances the fleet; when rebalancing is enabled the backend
// migrates whole row-groups off overloaded shards and accumulates the moves
// here (cumulative over the backend's lifetime — Append has no per-call
// stats object the way Execute does).
struct RebalanceStats {
  uint64_t rebalances = 0;         // Append calls that triggered a migration
  uint64_t row_groups_moved = 0;   // whole row-groups shipped between shards
  uint64_t rows_moved = 0;         // rows re-encrypted into recipient shards
  uint64_t rows_reencrypted = 0;   // donor remainders re-encrypted into fresh
                                   // identifier-space slots
  double seconds = 0;              // measured migration wall-clock
};

}  // namespace seabed

#endif  // SEABED_SRC_QUERY_QUERY_H_
