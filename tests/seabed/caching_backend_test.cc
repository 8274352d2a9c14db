// CachingSeabedBackend mechanics: hit/miss accounting, fingerprint
// normalization end-to-end, LRU + byte-budget eviction, append/attach
// invalidation (fact and join right side), and the translated-plan cache.
// Row-level correctness across backends is pinned by the fuzz equivalence
// suite; this file tests the cache machinery itself.
#include "src/seabed/caching_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/seabed/session.h"

namespace seabed {
namespace {

std::vector<std::string> RowsAsStrings(const ResultSet& r) {
  std::vector<std::string> rows;
  for (const auto& row : r.rows) {
    std::string s;
    for (const Value& v : row) {
      if (const auto* d = std::get_if<double>(&v)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f", *d);
        s += buf;
      } else {
        s += ValueToString(v);
      }
      s += "|";
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

SessionOptions TestOptions(BackendKind backend) {
  SessionOptions options;
  options.backend = backend;
  options.cluster.num_workers = 4;
  options.cluster.job_overhead_seconds = 0;
  options.cluster.task_overhead_seconds = 0;
  options.planner.expected_rows = 800;
  options.key_seed = 4321;
  return options;
}

std::shared_ptr<Table> MakeFactTable(size_t rows, uint64_t seed) {
  auto table = std::make_shared<Table>("sales");
  auto region = std::make_shared<StringColumn>();
  auto store = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto amount = std::make_shared<Int64Column>();
  auto fk = std::make_shared<Int64Column>();
  Rng rng(seed);
  const char* regions[] = {"na", "eu", "apac"};
  const char* stores[] = {"s1", "s2", "s3", "s4"};
  for (size_t i = 0; i < rows; ++i) {
    region->Append(regions[rng.Below(3)]);
    store->Append(stores[rng.Below(4)]);
    ts->Append(static_cast<int64_t>(rng.Below(100)));
    amount->Append(rng.Range(-100, 1000));
    fk->Append(static_cast<int64_t>(rng.Below(10)));
  }
  table->AddColumn("region", region);
  table->AddColumn("store", store);
  table->AddColumn("ts", ts);
  table->AddColumn("amount", amount);
  table->AddColumn("fk", fk);
  return table;
}

PlainSchema FactSchema() {
  PlainSchema schema;
  schema.table_name = "sales";
  ValueDistribution regions;
  regions.values = {"na", "eu", "apac"};
  regions.frequencies = {0.34, 0.33, 0.33};
  schema.columns.push_back({"region", ColumnType::kString, true, regions});
  schema.columns.push_back({"store", ColumnType::kString, true, std::nullopt});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"amount", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"fk", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

std::shared_ptr<Table> MakeDimTable(uint64_t seed) {
  auto table = std::make_shared<Table>("dim");
  auto key = std::make_shared<Int64Column>();
  auto weight = std::make_shared<Int64Column>();
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    key->Append(static_cast<int64_t>(rng.Below(10)));
    weight->Append(rng.Range(1, 50));
  }
  table->AddColumn("key", key);
  table->AddColumn("weight", weight);
  return table;
}

PlainSchema DimSchema() {
  PlainSchema schema;
  schema.table_name = "dim";
  schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"weight", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

std::vector<Query> SampleQueries() {
  std::vector<Query> samples;
  {
    Query q;
    q.table = "sales";
    q.Sum("amount").Count().Avg("amount");
    q.Where("region", CmpOp::kEq, std::string("na"));
    q.GroupBy("store");
    samples.push_back(q);
  }
  {
    Query q;
    q.table = "sales";
    q.Min("ts").Max("ts").Where("ts", CmpOp::kGe, int64_t{0});
    samples.push_back(q);
  }
  {
    Query q;
    q.table = "sales";
    q.Sum("amount");
    q.join = Join{"dim", "fk", "right:key"};
    samples.push_back(q);
  }
  return samples;
}

std::vector<Query> DimSamples() {
  std::vector<Query> samples;
  Query q;
  q.table = "dim";
  q.Sum("weight");
  q.join = Join{"sales", "key", "right:fk"};
  samples.push_back(q);
  return samples;
}

// One caching session (configurable inner) plus a plain reference session
// over the same tables.
class CachingBackendTest : public ::testing::Test {
 protected:
  void Build(const CacheOptions& cache, size_t shards = 2) {
    fact_ = MakeFactTable(800, 99);
    dim_ = MakeDimTable(7);

    SessionOptions options = TestOptions(BackendKind::kCachingSeabed);
    options.cache = cache;
    options.shards = shards;
    caching_ = std::make_unique<Session>(options);
    plain_ = std::make_unique<Session>(TestOptions(BackendKind::kPlain));
    for (Session* s : {caching_.get(), plain_.get()}) {
      s->Attach(CloneTable(*fact_), FactSchema(), SampleQueries());
      s->Attach(CloneTable(*dim_), DimSchema(), DimSamples());
    }
    backend_ = &dynamic_cast<CachingSeabedBackend&>(caching_->executor());
  }

  static Query RevenueByStore() {
    Query q;
    q.table = "sales";
    q.Sum("amount", "total").Count("n");
    q.Where("region", CmpOp::kEq, std::string("eu"));
    q.Where("ts", CmpOp::kGe, int64_t{20});
    q.GroupBy("store");
    return q;
  }

  std::shared_ptr<Table> fact_;
  std::shared_ptr<Table> dim_;
  std::unique_ptr<Session> caching_;
  std::unique_ptr<Session> plain_;
  CachingSeabedBackend* backend_ = nullptr;
};

TEST_F(CachingBackendTest, WarmRunHitsAndMatchesCold) {
  Build(CacheOptions{});
  const Query q = RevenueByStore();

  QueryStats cold;
  const std::vector<std::string> cold_rows = RowsAsStrings(caching_->Execute(q, &cold));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.backend, "caching-seabed");
  EXPECT_GT(cold.server_seconds, 0.0);
  EXPECT_EQ(backend_->hits(), 0u);
  EXPECT_EQ(backend_->misses(), 1u);

  QueryStats warm;
  const std::vector<std::string> warm_rows = RowsAsStrings(caching_->Execute(q, &warm));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.backend, "caching-seabed");
  EXPECT_EQ(warm.server_seconds, 0.0);
  EXPECT_EQ(warm.client_seconds, 0.0);
  EXPECT_GE(warm.cache_lookup_seconds, 0.0);
  EXPECT_EQ(warm.result_rows, cold.result_rows);
  EXPECT_EQ(warm.result_bytes, cold.result_bytes);
  EXPECT_EQ(warm.rows_touched, cold.rows_touched);
  EXPECT_EQ(backend_->hits(), 1u);
  EXPECT_EQ(backend_->misses(), 1u);

  EXPECT_EQ(warm_rows, cold_rows);
  EXPECT_EQ(warm_rows, RowsAsStrings(plain_->Execute(q, nullptr)));
}

TEST_F(CachingBackendTest, ReorderedFiltersHitTheSameEntry) {
  Build(CacheOptions{});
  Query a = RevenueByStore();
  caching_->Execute(a, nullptr);

  Query b;
  b.table = "sales";
  b.Sum("amount", "total").Count("n");
  b.Where("ts", CmpOp::kGe, int64_t{20});  // reordered conjunction
  b.Where("region", CmpOp::kEq, std::string("eu"));
  b.GroupBy("store");

  QueryStats stats;
  const ResultSet r = caching_->Execute(b, &stats);
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(RowsAsStrings(r), RowsAsStrings(plain_->Execute(b, nullptr)));
}

TEST_F(CachingBackendTest, PlanCacheServesRepeatedShapesAcrossInvalidation) {
  Build(CacheOptions{});
  const Query q = RevenueByStore();

  QueryStats first;
  caching_->Execute(q, &first);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_EQ(backend_->plan_cache()->size(), 1u);

  // Drop the results (as an append would) — the plan memo survives, so the
  // re-execution misses the result cache but skips translation.
  backend_->InvalidateResults();
  QueryStats second;
  caching_->Execute(q, &second);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(backend_->plan_cache()->hits(), 1u);
}

TEST_F(CachingBackendTest, AppendInvalidatesFactResultsButNotPlans) {
  Build(CacheOptions{});
  const Query q = RevenueByStore();
  caching_->Execute(q, nullptr);
  ASSERT_EQ(backend_->entries(), 1u);

  const auto new_rows = MakeFactTable(60, 1234);
  caching_->Append("sales", *new_rows);
  plain_->Append("sales", *new_rows);
  EXPECT_EQ(backend_->entries(), 0u);  // stale entry dropped

  QueryStats stats;
  const ResultSet r = caching_->Execute(q, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_TRUE(stats.plan_cache_hit);  // plans survive appends
  EXPECT_EQ(RowsAsStrings(r), RowsAsStrings(plain_->Execute(q, nullptr)));

  // And the refreshed entry serves hits again.
  QueryStats warm;
  caching_->Execute(q, &warm);
  EXPECT_TRUE(warm.cache_hit);
}

TEST_F(CachingBackendTest, AppendToJoinRightSideInvalidatesJoinResults) {
  Build(CacheOptions{});
  Query join_q;
  join_q.table = "sales";
  join_q.Sum("right:weight", "w").Count("n");
  join_q.join = Join{"dim", "fk", "right:key"};

  Query scan_q = RevenueByStore();
  caching_->Execute(join_q, nullptr);
  caching_->Execute(scan_q, nullptr);
  ASSERT_EQ(backend_->entries(), 2u);

  const auto new_dim = MakeDimTable(555);
  caching_->Append("dim", *new_dim);
  plain_->Append("dim", *new_dim);

  // Only the query reading `dim` was dropped.
  EXPECT_EQ(backend_->entries(), 1u);
  QueryStats join_stats;
  const ResultSet r = caching_->Execute(join_q, &join_stats);
  EXPECT_FALSE(join_stats.cache_hit);
  EXPECT_EQ(RowsAsStrings(r), RowsAsStrings(plain_->Execute(join_q, nullptr)));
  QueryStats scan_stats;
  caching_->Execute(scan_q, &scan_stats);
  EXPECT_TRUE(scan_stats.cache_hit);
}

TEST_F(CachingBackendTest, LruEvictsByEntryBudget) {
  CacheOptions cache;
  cache.max_entries = 2;
  Build(cache);

  auto query_with_bound = [](int64_t bound) {
    Query q;
    q.table = "sales";
    q.Sum("amount", "total");
    q.Where("ts", CmpOp::kGe, bound);
    return q;
  };

  caching_->Execute(query_with_bound(1), nullptr);
  caching_->Execute(query_with_bound(2), nullptr);
  caching_->Execute(query_with_bound(1), nullptr);  // refresh 1 → 2 is LRU
  caching_->Execute(query_with_bound(3), nullptr);  // evicts 2
  EXPECT_EQ(backend_->entries(), 2u);

  QueryStats stats;
  caching_->Execute(query_with_bound(2), &stats);
  EXPECT_FALSE(stats.cache_hit);  // was evicted; re-inserting it evicts 1
  caching_->Execute(query_with_bound(1), &stats);
  EXPECT_FALSE(stats.cache_hit);  // 1 was the LRU entry once 2 re-entered
  caching_->Execute(query_with_bound(2), &stats);
  EXPECT_TRUE(stats.cache_hit);   // still resident
  EXPECT_EQ(backend_->entries(), 2u);
}

TEST_F(CachingBackendTest, ByteBudgetBoundsTheCache) {
  CacheOptions cache;
  cache.max_bytes = 1;  // smaller than any entry: nothing sticks
  Build(cache);
  const Query q = RevenueByStore();

  const std::vector<std::string> first = RowsAsStrings(caching_->Execute(q, nullptr));
  EXPECT_EQ(backend_->entries(), 0u);
  EXPECT_EQ(backend_->cached_bytes(), 0u);

  QueryStats stats;
  const ResultSet r = caching_->Execute(q, &stats);
  EXPECT_FALSE(stats.cache_hit);  // never cached, still correct
  EXPECT_EQ(RowsAsStrings(r), first);
}

TEST_F(CachingBackendTest, ShardedInnerBackendWorks) {
  CacheOptions cache;
  cache.inner = BackendKind::kShardedSeabed;
  Build(cache, /*shards=*/3);
  const Query q = RevenueByStore();

  QueryStats cold;
  const std::vector<std::string> cold_rows = RowsAsStrings(caching_->Execute(q, &cold));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold_rows, RowsAsStrings(plain_->Execute(q, nullptr)));

  QueryStats warm;
  EXPECT_EQ(RowsAsStrings(caching_->Execute(q, &warm)), cold_rows);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.shard_server_seconds.empty());
}

TEST_F(CachingBackendTest, BatchedRepeatsShareOneColdRun) {
  Build(CacheOptions{});
  const Query q = RevenueByStore();
  const std::vector<Query> batch(16, q);

  std::vector<QueryStats> stats;
  const std::vector<ResultSet> results =
      caching_->ExecuteBatch(std::span<const Query>(batch), &stats);
  ASSERT_EQ(results.size(), batch.size());
  const std::vector<std::string> reference = RowsAsStrings(plain_->Execute(q, nullptr));
  size_t cache_hits = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(RowsAsStrings(results[i]), reference);
    cache_hits += stats[i].cache_hit ? 1 : 0;
  }
  // Concurrent misses may race before the first insert publishes, but the
  // entry is keyed identically, so at least the steady state must hit.
  QueryStats warm;
  caching_->Execute(q, &warm);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(backend_->hits(), cache_hits + 1);
}

// Satellite regression for the invalidation-epoch race: warm lookups and
// appends run concurrently (the decorator takes no lock of its own; the
// inner engine publishes versions), so the epoch fence is genuinely contended —
// epoch_ is atomic with acquire/release ordering, and a miss whose lookup
// predates an append's invalidation must drop its insert instead of
// republishing a pre-append result. Every answer observed mid-race must
// equal the table at SOME append boundary (prefix-consistent snapshots,
// never torn), and the steady state after the race must be the final table.
TEST_F(CachingBackendTest, WarmLookupsRacingAppendsStayPrefixConsistent) {
  Build(CacheOptions{});
  const Query q = RevenueByStore();
  constexpr int kAppends = 8;

  // Stage the batches and the reference answer after each append boundary.
  std::vector<std::shared_ptr<Table>> batches;
  std::vector<std::vector<std::string>> references;
  references.push_back(RowsAsStrings(plain_->Execute(q, nullptr)));
  for (int i = 0; i < kAppends; ++i) {
    batches.push_back(MakeFactTable(40, 5000 + static_cast<uint64_t>(i)));
    plain_->Append("sales", *batches.back());
    references.push_back(RowsAsStrings(plain_->Execute(q, nullptr)));
  }

  caching_->Execute(q, nullptr);  // seed the cache: the race starts warm
  std::atomic<bool> done{false};
  std::atomic<size_t> inconsistent{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<std::string> got = RowsAsStrings(caching_->Execute(q, nullptr));
        if (std::find(references.begin(), references.end(), got) == references.end()) {
          inconsistent.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kAppends; ++i) {
    caching_->Append("sales", *batches[static_cast<size_t>(i)]);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_EQ(inconsistent.load(), 0u);
  // The last invalidation must win: the steady state serves the final table,
  // not a stale entry a racing miss republished.
  EXPECT_EQ(RowsAsStrings(caching_->Execute(q, nullptr)), references.back());
  QueryStats warm;
  caching_->Execute(q, &warm);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(RowsAsStrings(caching_->Execute(q, nullptr)), references.back());
}

}  // namespace
}  // namespace seabed
