// The Seabed engine's result cache (SessionOptions::result_cache_bytes), on
// kSeabed and on kShardedSeabed: hit/miss accounting, fingerprint
// normalization end to end, appends to the fact table or a join's right side
// making the next run miss (while its plan still hits), byte-budget LRU
// eviction, batched repeats, version-id keys across many append rounds, and
// readers racing appends. Row-level correctness across backends is pinned by
// the fuzz equivalence suite; this file tests the cache machinery itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/seabed/session.h"
#include "src/seabed/sharded_backend.h"
#include "tests/seabed/test_util.h"

namespace seabed {
namespace {

constexpr size_t kBudget = 16u << 20;

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

Query RevenueByStore() {
  Query q;
  q.table = "sales";
  q.Sum("amount", "total").Count("n");
  q.Where("region", CmpOp::kEq, std::string("eu"));
  q.Where("ts", CmpOp::kGe, int64_t{20});
  q.GroupBy("store");
  return q;
}

Query SumAbove(int64_t bound) {
  Query q;
  q.table = "sales";
  q.Sum("amount", "total");
  q.Where("ts", CmpOp::kGe, bound);
  return q;
}

struct EngineConfig {
  BackendKind backend;
  size_t shards;
};

// One engine session with the result cache on (the parameter picks kSeabed
// or three-shard kShardedSeabed) plus a plain reference session over the
// same tables.
class ResultCacheTest : public ::testing::TestWithParam<EngineConfig> {
 protected:
  void Build(size_t budget = kBudget) {
    SessionOptions options = TestOptions(GetParam().backend);
    options.shards = GetParam().shards;
    options.result_cache_bytes = budget;
    engine_ = std::make_unique<Session>(options);
    plain_ = std::make_unique<Session>(TestOptions(BackendKind::kPlain));
    const auto fact = MakeFactTable(800, 99);
    const auto dim = MakeDimTable(7);
    for (Session* s : {engine_.get(), plain_.get()}) {
      s->Attach(CloneTable(*fact), FactSchema(), SampleQueries());
      s->Attach(CloneTable(*dim), DimSchema(), DimSamples());
    }
    cache_ = dynamic_cast<ShardedSeabedBackend&>(engine_->executor()).result_cache();
    ASSERT_NE(cache_, nullptr);
  }

  void Append(const std::string& table, const Table& rows) {
    engine_->Append(table, rows);
    plain_->Append(table, rows);
  }

  std::vector<std::string> Reference(const Query& q) {
    return RowsAsStrings(plain_->Execute(q, nullptr));
  }

  std::unique_ptr<Session> engine_;
  std::unique_ptr<Session> plain_;
  const ShardedSeabedBackend::ResultCache* cache_ = nullptr;
};

TEST_P(ResultCacheTest, WarmRunHitsAndMatchesCold) {
  Build();
  const Query q = RevenueByStore();

  QueryStats cold;
  const std::vector<std::string> cold_rows = RowsAsStrings(engine_->Execute(q, &cold));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.server_seconds, 0.0);
  EXPECT_EQ(cache_->hits(), 0u);
  EXPECT_EQ(cache_->misses(), 1u);

  QueryStats warm;
  const std::vector<std::string> warm_rows = RowsAsStrings(engine_->Execute(q, &warm));
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.backend, cold.backend);
  EXPECT_FALSE(warm.plan_cache_hit);  // a result hit never reaches the plan cache
  EXPECT_EQ(warm.server_seconds, 0.0);
  EXPECT_EQ(warm.client_seconds, 0.0);
  EXPECT_TRUE(warm.shard_server_seconds.empty());
  EXPECT_GE(warm.cache_lookup_seconds, 0.0);
  EXPECT_EQ(warm.result_rows, cold.result_rows);
  EXPECT_EQ(warm.result_bytes, cold.result_bytes);
  EXPECT_EQ(warm.rows_touched, cold.rows_touched);
  EXPECT_EQ(cache_->hits(), 1u);
  EXPECT_EQ(cache_->misses(), 1u);
  EXPECT_EQ(engine_->executor().plan_cache()->hits(), 0u);

  EXPECT_EQ(warm_rows, cold_rows);
  EXPECT_EQ(warm_rows, Reference(q));
}

TEST_P(ResultCacheTest, ReorderedFiltersHitTheSameEntry) {
  Build();
  engine_->Execute(RevenueByStore(), nullptr);

  Query b;
  b.table = "sales";
  b.Sum("amount", "total").Count("n");
  b.Where("ts", CmpOp::kGe, int64_t{20});  // reordered conjunction
  b.Where("region", CmpOp::kEq, std::string("eu"));
  b.GroupBy("store");

  QueryStats stats;
  const ResultSet r = engine_->Execute(b, &stats);
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(RowsAsStrings(r), Reference(b));
}

TEST_P(ResultCacheTest, AppendMissesTheResultButHitsThePlan) {
  Build();
  const Query q = RevenueByStore();
  QueryStats first;
  engine_->Execute(q, &first);
  EXPECT_FALSE(first.plan_cache_hit);

  Append("sales", *MakeFactTable(60, 1234));

  QueryStats stats;
  const ResultSet r = engine_->Execute(q, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_TRUE(stats.plan_cache_hit);  // plans survive appends
  EXPECT_EQ(RowsAsStrings(r), Reference(q));

  // The entry of the new version serves hits again.
  QueryStats warm;
  EXPECT_EQ(RowsAsStrings(engine_->Execute(q, &warm)), Reference(q));
  EXPECT_TRUE(warm.cache_hit);
}

TEST_P(ResultCacheTest, AppendToJoinRightSideMissesJoinResults) {
  Build();
  Query join_q;
  join_q.table = "sales";
  join_q.Sum("right:weight", "w").Count("n");
  join_q.join = Join{"dim", "fk", "right:key"};
  const Query scan_q = RevenueByStore();
  engine_->Execute(join_q, nullptr);
  engine_->Execute(scan_q, nullptr);

  QueryStats join_warm;
  engine_->Execute(join_q, &join_warm);
  EXPECT_TRUE(join_warm.cache_hit);

  Append("dim", *MakeDimTable(555));

  // Only the query reading `dim` misses.
  QueryStats join_stats;
  const ResultSet r = engine_->Execute(join_q, &join_stats);
  EXPECT_FALSE(join_stats.cache_hit);
  EXPECT_EQ(RowsAsStrings(r), Reference(join_q));
  QueryStats scan_stats;
  engine_->Execute(scan_q, &scan_stats);
  EXPECT_TRUE(scan_stats.cache_hit);
}

TEST_P(ResultCacheTest, ByteBudgetEvictsInLruOrder) {
  // Measure one entry's cost (every SumAbove(1..3) entry costs the same: one
  // row, one value, equal key lengths), then size a cache that holds two.
  Build();
  engine_->Execute(SumAbove(1), nullptr);
  const size_t entry_cost = cache_->cost();
  ASSERT_GT(entry_cost, 0u);
  Build(2 * entry_cost + entry_cost / 2);

  engine_->Execute(SumAbove(1), nullptr);
  engine_->Execute(SumAbove(2), nullptr);
  engine_->Execute(SumAbove(1), nullptr);  // refresh 1: 2 is now LRU
  engine_->Execute(SumAbove(3), nullptr);  // evicts 2
  EXPECT_EQ(cache_->size(), 2u);
  EXPECT_LE(cache_->cost(), 2 * entry_cost + entry_cost / 2);

  QueryStats stats;
  engine_->Execute(SumAbove(2), &stats);
  EXPECT_FALSE(stats.cache_hit);  // was evicted; re-inserting it evicts 1
  engine_->Execute(SumAbove(1), &stats);
  EXPECT_FALSE(stats.cache_hit);  // 1 was the LRU entry once 2 re-entered
  const ResultSet r = engine_->Execute(SumAbove(2), &stats);
  EXPECT_TRUE(stats.cache_hit);  // still resident
  EXPECT_EQ(RowsAsStrings(r), Reference(SumAbove(2)));
  EXPECT_EQ(cache_->size(), 2u);
}

TEST_P(ResultCacheTest, ByteBudgetSmallerThanAnEntryCachesNothing) {
  Build(/*budget=*/1);
  const Query q = RevenueByStore();
  const std::vector<std::string> first = RowsAsStrings(engine_->Execute(q, nullptr));
  EXPECT_EQ(cache_->size(), 0u);
  EXPECT_EQ(cache_->cost(), 0u);

  QueryStats stats;
  const ResultSet r = engine_->Execute(q, &stats);
  EXPECT_FALSE(stats.cache_hit);  // never cached, still correct
  EXPECT_EQ(RowsAsStrings(r), first);
  EXPECT_EQ(first, Reference(q));
}

TEST_P(ResultCacheTest, BatchedRepeatsShareOneColdRun) {
  Build();
  const Query q = RevenueByStore();
  const std::vector<Query> batch(16, q);

  std::vector<QueryStats> stats;
  const std::vector<ResultSet> results =
      engine_->ExecuteBatch(std::span<const Query>(batch), &stats);
  ASSERT_EQ(results.size(), batch.size());
  const std::vector<std::string> reference = Reference(q);
  size_t cache_hits = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(RowsAsStrings(results[i]), reference);
    cache_hits += stats[i].cache_hit ? 1 : 0;
  }
  // Concurrent misses may race before the first insert publishes, but the
  // entry is keyed identically, so at least the steady state must hit.
  QueryStats warm;
  engine_->Execute(q, &warm);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cache_->hits(), cache_hits + 1);
  EXPECT_EQ(cache_->size(), 1u);
}

// Readers race appends: no lock orders them, and nothing invalidates by hand.
// Every answer observed mid-race must equal the table at SOME append boundary
// (prefix-consistent snapshots, never torn and never a result of a version
// the reader did not pin), and the steady state after the race must be the
// final table, warm.
TEST_P(ResultCacheTest, WarmLookupsRacingAppendsStayPrefixConsistent) {
  Build();
  const Query q = RevenueByStore();
  constexpr int kAppends = 8;

  std::vector<std::shared_ptr<Table>> batches;
  std::vector<std::vector<std::string>> references;
  references.push_back(Reference(q));
  for (int i = 0; i < kAppends; ++i) {
    batches.push_back(MakeFactTable(40, 5000 + static_cast<uint64_t>(i)));
    plain_->Append("sales", *batches.back());
    references.push_back(Reference(q));
  }

  engine_->Execute(q, nullptr);  // seed the cache: the race starts warm
  std::atomic<bool> done{false};
  std::atomic<size_t> inconsistent{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<std::string> got = RowsAsStrings(engine_->Execute(q, nullptr));
        if (std::find(references.begin(), references.end(), got) == references.end()) {
          inconsistent.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kAppends; ++i) {
    engine_->Append("sales", *batches[static_cast<size_t>(i)]);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(RowsAsStrings(engine_->Execute(q, nullptr)), references.back());
  QueryStats warm;
  EXPECT_EQ(RowsAsStrings(engine_->Execute(q, &warm)), references.back());
  EXPECT_TRUE(warm.cache_hit);
}

INSTANTIATE_TEST_SUITE_P(Engines, ResultCacheTest,
                         ::testing::Values(EngineConfig{BackendKind::kSeabed, 1},
                                           EngineConfig{BackendKind::kShardedSeabed, 3}),
                         [](const ::testing::TestParamInfo<EngineConfig>& info) {
                           return info.param.backend == BackendKind::kSeabed ? "Seabed"
                                                                             : "Sharded3";
                         });

// Each append publishes a version whose predecessor the epoch domain
// reclaims, so the allocator may hand a later version the address of an
// earlier one. Keys name the engine-wide version id, never the address: no
// query right after an append may hit, across many rounds.
TEST(ResultCacheVersionTest, AppendThenQueryNeverHitsAcrossManyRounds) {
  SessionOptions options = TestOptions(BackendKind::kSeabed);
  options.result_cache_bytes = kBudget;
  Session engine(options);
  Session plain(TestOptions(BackendKind::kPlain));
  const auto fact = MakeFactTable(400, 17);
  for (Session* s : {&engine, &plain}) {
    s->Attach(CloneTable(*fact), FactSchema(), SampleQueries());
  }
  const Query q = RevenueByStore();
  engine.Execute(q, nullptr);

  size_t stale_hits = 0;
  size_t mismatches = 0;
  for (uint64_t round = 0; round < 200; ++round) {
    const auto batch = MakeFactTable(3, 7000 + round);
    engine.Append("sales", *batch);
    plain.Append("sales", *batch);
    QueryStats stats;
    const std::vector<std::string> got = RowsAsStrings(engine.Execute(q, &stats));
    stale_hits += stats.cache_hit ? 1 : 0;
    mismatches += got == RowsAsStrings(plain.Execute(q, nullptr)) ? 0 : 1;
  }
  EXPECT_EQ(stale_hits, 0u);
  EXPECT_EQ(mismatches, 0u);
  QueryStats warm;
  engine.Execute(q, &warm);
  EXPECT_TRUE(warm.cache_hit);  // the cache was on all along
}

TEST(ResultCacheVersionTest, OffByDefault) {
  Session engine(TestOptions(BackendKind::kSeabed));
  engine.Attach(MakeFactTable(200, 3), FactSchema(), SampleQueries());
  EXPECT_EQ(dynamic_cast<ShardedSeabedBackend&>(engine.executor()).result_cache(), nullptr);
  const Query q = RevenueByStore();
  engine.Execute(q, nullptr);
  QueryStats stats;
  engine.Execute(q, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_TRUE(stats.plan_cache_hit);
  EXPECT_EQ(stats.cache_lookup_seconds, 0.0);
}

}  // namespace
}  // namespace seabed
