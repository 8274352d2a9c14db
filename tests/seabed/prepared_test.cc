// Prepared-statement mechanics: `?` placeholders through the parser,
// placeholder-aware fingerprints, Prepare-time slot validation, the
// translate-once/bind-per-call contract on every backend (with the SPLASHE
// bind-then-ad-hoc fallback), the plan-cache churn regression the LRU
// rewrite fixes, and prepared submissions through seabed::Service.
// Row-level equivalence across random shapes is pinned by the prepared axis
// of the fuzz equivalence suite; this file tests the machinery itself.
#include "src/seabed/prepared.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/seabed/service.h"
#include "src/seabed/session.h"
#include "src/seabed/translator.h"
#include "tests/seabed/test_util.h"

namespace seabed {
namespace {

SessionOptions TestOptions(BackendKind backend) {
  SessionOptions options;
  options.backend = backend;
  options.shards = 3;
  options.cluster.num_workers = 4;
  options.cluster.job_overhead_seconds = 0;
  options.cluster.task_overhead_seconds = 0;
  options.planner.expected_rows = 600;
  options.paillier.modulus_bits = 256;
  options.key_seed = 777;
  return options;
}

std::shared_ptr<Table> MakeFactTable(size_t rows, uint64_t seed) {
  auto table = std::make_shared<Table>("sales");
  auto region = std::make_shared<StringColumn>();
  auto store = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto amount = std::make_shared<Int64Column>();
  Rng rng(seed);
  const char* regions[] = {"na", "eu", "apac"};
  const char* stores[] = {"s1", "s2", "s3", "s4"};
  for (size_t i = 0; i < rows; ++i) {
    region->Append(regions[rng.Below(3)]);
    store->Append(stores[rng.Below(4)]);
    ts->Append(static_cast<int64_t>(rng.Below(100)));
    amount->Append(rng.Range(-100, 1000));
  }
  table->AddColumn("region", region);
  table->AddColumn("store", store);
  table->AddColumn("ts", ts);
  table->AddColumn("amount", amount);
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
  return samples;
}

// DET equality + ORE range, both parameterized (`store` stays DET: only
// `region` is SPLASHE-planned via its value distribution).
Query TwoSlotShape() {
  Query q;
  q.table = "sales";
  q.Sum("amount", "total").Count("n");
  q.WhereParam("store", CmpOp::kEq);
  q.WhereParam("ts", CmpOp::kGe);
  return q;
}

// --- parser / fingerprint ----------------------------------------------------

TEST(PreparedParserTest, QuestionMarksBecomeContiguousSlots) {
  const Query q = MustParseSql(
      "SELECT SUM(amount) AS total FROM sales WHERE ts >= ? AND store = ? GROUP BY store");
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0].param, 0);
  EXPECT_EQ(q.filters[1].param, 1);
  EXPECT_EQ(q.num_params(), 2u);
  EXPECT_TRUE(q.has_params());
}

TEST(PreparedParserTest, BindParamsReproducesTheLiteralQuery) {
  const Query shape =
      MustParseSql("SELECT SUM(amount) AS total FROM sales WHERE ts >= ? AND store = ?");
  const Query literal =
      MustParseSql("SELECT SUM(amount) AS total FROM sales WHERE ts >= 42 AND store = 's2'");
  const std::vector<Value> params = {int64_t{42}, std::string("s2")};
  EXPECT_EQ(shape.BindParams(params).Fingerprint(Query::FingerprintMode::kExact),
            literal.Fingerprint(Query::FingerprintMode::kExact));
  // Unbound, the exact fingerprints must differ (the slot renders as `?0`,
  // never colliding with a typed literal)...
  EXPECT_NE(shape.Fingerprint(Query::FingerprintMode::kExact),
            literal.Fingerprint(Query::FingerprintMode::kExact));
  // ...while the shape fingerprints agree: a placeholder and a moving
  // literal are the same dashboard shape.
  EXPECT_EQ(shape.Fingerprint(Query::FingerprintMode::kShape),
            literal.Fingerprint(Query::FingerprintMode::kShape));
}

TEST(PreparedParserTest, TwoShapesDifferingInAFixedLiteralKeepDistinctPlanKeys) {
  const Query a = MustParseSql("SELECT SUM(amount) FROM sales WHERE store = 's1' AND ts >= ?");
  const Query b = MustParseSql("SELECT SUM(amount) FROM sales WHERE store = 's2' AND ts >= ?");
  // Same shape fingerprint (both literals erase), but the plan-key half must
  // differ: the fixed literal's DET token is baked into the translated plan.
  EXPECT_EQ(a.Fingerprint(Query::FingerprintMode::kShape),
            b.Fingerprint(Query::FingerprintMode::kShape));
  EXPECT_NE(a.Fingerprint(Query::FingerprintMode::kExact),
            b.Fingerprint(Query::FingerprintMode::kExact));
}

// --- Prepare validation ------------------------------------------------------

TEST(PreparedDeathTest, NonContiguousSlotsFailAtPrepare) {
  Session session(TestOptions(BackendKind::kPlain));
  session.Attach(MakeFactTable(50, 1), FactSchema(), SampleQueries());
  Query q;
  q.table = "sales";
  q.Sum("amount");
  q.Where("ts", CmpOp::kGe, int64_t{0});
  q.filters[0].param = 1;  // slot 0 unused
  EXPECT_DEATH(session.Prepare(q), "not contiguous");
}

TEST(PreparedDeathTest, DuplicateSlotsFailAtPrepare) {
  Session session(TestOptions(BackendKind::kPlain));
  session.Attach(MakeFactTable(50, 1), FactSchema(), SampleQueries());
  Query q;
  q.table = "sales";
  q.Sum("amount");
  q.WhereParam("ts", CmpOp::kGe);
  q.Where("ts", CmpOp::kLt, int64_t{50});
  q.filters[1].param = 0;  // reuses slot 0
  EXPECT_DEATH(session.Prepare(q), "used twice");
}

TEST(PreparedDeathTest, BindWithWrongArityFails) {
  const Query shape = MustParseSql("SELECT SUM(amount) FROM sales WHERE ts >= ?");
  EXPECT_DEATH(shape.BindParams(std::vector<Value>{}), "placeholder slot");
}

// --- backend matrix ----------------------------------------------------------

class PreparedBackendTest : public ::testing::Test {
 protected:
  void Build(BackendKind backend, size_t result_cache_bytes = 0) {
    SessionOptions options = TestOptions(backend);
    options.result_cache_bytes = result_cache_bytes;
    session_ = std::make_unique<Session>(options);
    plain_ = std::make_unique<Session>(TestOptions(BackendKind::kPlain));
    const auto fact = MakeFactTable(600, 99);
    session_->Attach(CloneTable(*fact), FactSchema(), SampleQueries());
    plain_->Attach(CloneTable(*fact), FactSchema(), SampleQueries());
  }

  void RunMatrix() {
    const Query shape = TwoSlotShape();
    const std::vector<Value> params = {std::string("s2"), int64_t{30}};
    const auto reference = RowsAsStrings(plain_->Execute(shape.BindParams(params)));
    ExpectPreparedStatsInvariants(*session_, shape, params, reference);

    // Fresh literals through the same handle keep matching the plaintext
    // reference (the fuzz suite covers random shapes; this pins the re-bind).
    const PreparedQuery prepared = session_->Prepare(shape);
    EXPECT_TRUE(prepared.parameterized());
    for (int64_t bound = 0; bound < 4; ++bound) {
      const std::vector<Value> p = {std::string("s1"), bound * 25};
      EXPECT_EQ(RowsAsStrings(session_->Execute(prepared, p)),
                RowsAsStrings(plain_->Execute(shape.BindParams(p))))
          << "bound=" << bound;
    }
  }

  std::unique_ptr<Session> session_;
  std::unique_ptr<Session> plain_;
};

TEST_F(PreparedBackendTest, Plain) {
  Build(BackendKind::kPlain);
  RunMatrix();
}

TEST_F(PreparedBackendTest, Seabed) {
  Build(BackendKind::kSeabed);
  RunMatrix();
}

TEST_F(PreparedBackendTest, Paillier) {
  Build(BackendKind::kPaillier);
  RunMatrix();
}

TEST_F(PreparedBackendTest, ShardedSeabed) {
  Build(BackendKind::kShardedSeabed);
  RunMatrix();
}

TEST_F(PreparedBackendTest, SeabedWithResultCache) {
  Build(BackendKind::kSeabed, 16u << 20);
  RunMatrix();

  // The result cache keys on the BOUND query, so a prepared call and an
  // ad-hoc call with the same literals share one entry.
  const Query shape = TwoSlotShape();
  const std::vector<Value> params = {std::string("s4"), int64_t{60}};
  const PreparedQuery prepared = session_->Prepare(shape);
  QueryStats adhoc;
  session_->Execute(shape.BindParams(params), &adhoc);
  EXPECT_FALSE(adhoc.cache_hit);
  QueryStats hit;
  EXPECT_EQ(RowsAsStrings(session_->Execute(prepared, params, &hit)),
            RowsAsStrings(plain_->Execute(shape.BindParams(params))));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.prepared);
  EXPECT_FALSE(hit.plan_cache_hit);  // a result hit never reaches the plan cache
}

TEST_F(PreparedBackendTest, SplasheSlotsFallBackAndStayCorrect) {
  Build(BackendKind::kSeabed);
  Query shape;
  shape.table = "sales";
  shape.Sum("amount", "total").Count("n");
  shape.WhereParam("region", CmpOp::kEq);  // SPLASHE-protected dimension
  const PreparedQuery prepared = session_->Prepare(shape);
  EXPECT_FALSE(prepared.parameterized());
  for (const char* region : {"na", "eu", "apac"}) {
    const std::vector<Value> params = {std::string(region)};
    QueryStats stats;
    EXPECT_EQ(RowsAsStrings(session_->Execute(prepared, params, &stats)),
              RowsAsStrings(plain_->Execute(shape.BindParams(params))))
        << "region=" << region;
    EXPECT_TRUE(stats.prepared);  // the fallback still reports prepared stats
  }
}

TEST_F(PreparedBackendTest, SweepTranslatesExactlyOncePerShape) {
  Build(BackendKind::kSeabed);
  const TranslatedPlanCache& cache = *session_->executor().plan_cache();
  const size_t size_before = cache.size();
  const uint64_t misses_before = cache.misses();
  const uint64_t hits_before = cache.hits();

  const Query shape = TwoSlotShape();
  const PreparedQuery prepared = session_->Prepare(shape);
  constexpr int kSweep = 40;
  for (int i = 0; i < kSweep; ++i) {
    QueryStats stats;
    const std::vector<Value> p = {std::string("s3"), int64_t{i}};
    session_->Execute(prepared, p, &stats);
    EXPECT_EQ(stats.plan_cache_hit, i > 0);
  }
  // One shape, one translation — the moving literal never mints a plan key.
  EXPECT_EQ(cache.size() - size_before, 1u);
  EXPECT_EQ(cache.misses() - misses_before, 1u);
  EXPECT_EQ(cache.hits() - hits_before, static_cast<uint64_t>(kSweep - 1));

  // The same sweep ad-hoc pays one plan entry (and one miss) per literal.
  const uint64_t misses_before_adhoc = cache.misses();
  for (int i = 0; i < kSweep; ++i) {
    const std::vector<Value> p = {std::string("s3"), int64_t{i}};
    session_->Execute(shape.BindParams(p));
  }
  EXPECT_EQ(cache.misses() - misses_before_adhoc, static_cast<uint64_t>(kSweep));
}

// --- plan-cache churn regression ---------------------------------------------
// The pre-LRU cache kept a FIFO insertion_order_ deque that (a) grew by one
// entry per Insert even for keys already resident, and (b) evicted the
// OLDEST insertion regardless of use — so a moving-literal dashboard's
// one-shot plans flushed the hot shape entries prepared statements live on.
// A 10k-literal sweep of one shape must leave the cache at its budget with
// the hot entry resident, and re-inserting one key 10k times must not grow
// anything.

TEST(TranslatedPlanCacheChurnTest, RepeatedInsertsOfOneKeyDoNotGrow) {
  TranslatedPlanCache cache(8);
  const auto plan = std::make_shared<const TranslatedQuery>();
  for (int i = 0; i < 10000; ++i) {
    cache.Insert("hot-shape", plan);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Find("hot-shape"), nullptr);
}

TEST(TranslatedPlanCacheChurnTest, HotShapeSurvivesTenThousandLiteralChurn) {
  TranslatedPlanCache cache(8);
  const auto plan = std::make_shared<const TranslatedQuery>();
  cache.Insert("hot-shape", plan);
  // One shape swept across 10k literals: each bound query mints a one-shot
  // exact-keyed plan. The hot entry is touched between insertions (as a
  // prepared dashboard would) and must never be evicted by the churn.
  for (int i = 0; i < 10000; ++i) {
    cache.Insert("literal-" + std::to_string(i), plan);
    ASSERT_NE(cache.Find("hot-shape"), nullptr) << "evicted at literal " << i;
    ASSERT_LE(cache.size(), 8u);
  }
  EXPECT_EQ(cache.size(), 8u);
  // FIFO would have kept the earliest insertions; LRU keeps the latest churn
  // keys plus the hot entry.
  EXPECT_NE(cache.Find("literal-9999"), nullptr);
  EXPECT_EQ(cache.Find("literal-0"), nullptr);
}

// --- service -----------------------------------------------------------------

TEST(PreparedServiceTest, SubmitPreparedBatchesOnTheHandleAndCoalescesDuplicates) {
  ServiceOptions options;
  options.session = TestOptions(BackendKind::kSeabed);
  options.num_workers = 2;
  options.max_batch = 8;
  options.autostart = false;
  Service service(options);
  const auto fact = MakeFactTable(600, 7);
  service.Attach(CloneTable(*fact), FactSchema(), SampleQueries());

  Session plain(TestOptions(BackendKind::kPlain));
  plain.Attach(CloneTable(*fact), FactSchema(), SampleQueries());

  Query shape;
  shape.table = "sales";
  shape.Sum("amount", "total").Count("n");
  shape.WhereParam("ts", CmpOp::kGe);
  const PreparedQuery prepared = service.Prepare(shape);

  // Queue before Start so the whole burst is poppable as shape groups; the
  // duplicate parameter vector must coalesce onto one execution.
  constexpr int kDistinct = 6;
  std::vector<std::future<ServiceResult>> futures;
  std::vector<int64_t> bounds;
  for (int i = 0; i < kDistinct; ++i) {
    bounds.push_back(i * 10);
    futures.push_back(service.SubmitPrepared(prepared, {int64_t{i * 10}}));
  }
  bounds.push_back(0);
  futures.push_back(service.SubmitPrepared(prepared, {int64_t{0}}));  // duplicate
  service.Start();

  for (size_t i = 0; i < futures.size(); ++i) {
    ServiceResult r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.stats.query.prepared);
    Query bound = shape;
    bound.filters[0].param = -1;
    bound.filters[0].operand = bounds[i];
    EXPECT_EQ(RowsAsStrings(r.rows), RowsAsStrings(plain.Execute(bound)))
        << "bound=" << bounds[i];
  }
  service.Shutdown();

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.executed, static_cast<uint64_t>(kDistinct) + 1);
  EXPECT_GE(counters.coalesced, 1u);
  EXPECT_GE(counters.max_group, 2u);  // prepared submissions grouped on the handle
  // Every execution reused the one translated shape plan.
  EXPECT_EQ(service.plan_cache().size(), 1u);
}

}  // namespace
}  // namespace seabed
