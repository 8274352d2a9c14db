// Cross-backend equivalence through the Session facade: the same parsed
// Query objects must return identical rows from PlainExecutorBackend,
// PaillierBackend and SeabedBackend, and every backend must populate
// QueryStats. This is the contract the paper's whole evaluation rests on —
// three systems, one query set.
#include "src/seabed/session.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/workload/bdb.h"
#include "tests/seabed/test_util.h"

namespace seabed {
namespace {
// RowsAsStrings and the ExpectProbeStatsInvariants probe tier come from
// tests/seabed/test_util.h — the sharded-backend suite applies the same
// invariants to the fan-out path.

ClusterConfig TestClusterConfig() {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.job_overhead_seconds = 0;
  cfg.task_overhead_seconds = 0;
  return cfg;
}

SessionOptions TestOptions(BackendKind backend) {
  SessionOptions options;
  options.backend = backend;
  options.cluster = TestClusterConfig();
  options.planner.expected_rows = 3000;
  options.paillier.modulus_bits = 256;
  options.key_seed = 1234;
  return options;
}

// One shared "emp" data set attached to a session per backend.
class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : plain_(TestOptions(BackendKind::kPlain)),
        seabed_(TestOptions(BackendKind::kSeabed)),
        paillier_(TestOptions(BackendKind::kPaillier)) {
    schema_.table_name = "emp";
    ValueDistribution country;
    country.values = {"usa", "canada", "india", "chile", "iraq"};
    country.frequencies = {0.42, 0.38, 0.08, 0.07, 0.05};
    schema_.columns.push_back({"country", ColumnType::kString, true, country});
    schema_.columns.push_back({"store", ColumnType::kString, true, std::nullopt});
    schema_.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
    schema_.columns.push_back({"salary", ColumnType::kInt64, true, std::nullopt});
    schema_.columns.push_back({"dept", ColumnType::kString, false, std::nullopt});

    table_ = std::make_shared<Table>("emp");
    auto country_col = std::make_shared<StringColumn>();
    auto store_col = std::make_shared<StringColumn>();
    auto ts_col = std::make_shared<Int64Column>();
    auto salary_col = std::make_shared<Int64Column>();
    auto dept_col = std::make_shared<StringColumn>();
    Rng rng(77);
    const char* countries[] = {"usa", "canada", "india", "chile", "iraq"};
    const double cdf[] = {0.42, 0.80, 0.88, 0.95, 1.0};
    const char* stores[] = {"s1", "s2", "s3"};
    const char* depts[] = {"eng", "sales"};
    for (int i = 0; i < 3000; ++i) {
      const double u = rng.NextDouble();
      int pick = 0;
      while (u > cdf[pick]) {
        ++pick;
      }
      country_col->Append(countries[pick]);
      store_col->Append(stores[rng.Below(3)]);
      ts_col->Append(static_cast<int64_t>(rng.Below(1000)));
      salary_col->Append(rng.Range(-1000, 100000));
      dept_col->Append(depts[rng.Below(2)]);
    }
    table_->AddColumn("country", country_col);
    table_->AddColumn("store", store_col);
    table_->AddColumn("ts", ts_col);
    table_->AddColumn("salary", salary_col);
    table_->AddColumn("dept", dept_col);

    for (Session* s : AllSessions()) {
      s->Attach(table_, schema_, SampleQueries());
    }
  }

  static std::vector<Query> SampleQueries() {
    std::vector<Query> queries;
    {
      Query q;
      q.table = "emp";
      q.Sum("salary").Count().Where("country", CmpOp::kEq, std::string("india"));
      queries.push_back(q);
    }
    {
      Query q;
      q.table = "emp";
      q.Avg("salary").Min("ts").Max("ts").Where("ts", CmpOp::kGe, int64_t{500});
      queries.push_back(q);
    }
    {
      Query q;
      q.table = "emp";
      q.Sum("salary").GroupBy("store");
      queries.push_back(q);
    }
    return queries;
  }

  std::vector<Session*> AllSessions() { return {&plain_, &seabed_, &paillier_}; }

  // The queries every backend must agree on.
  static std::vector<Query> EquivalenceQueries() {
    std::vector<Query> queries;
    queries.push_back(MustParseSql(
        "SELECT SUM(salary) AS total, COUNT(*) AS n FROM emp WHERE country = 'india'"));
    queries.push_back(MustParseSql(
        "SELECT SUM(salary) AS total, COUNT(*) AS n FROM emp WHERE ts >= 500"));
    queries.push_back(MustParseSql(
        "SELECT AVG(salary) AS mean FROM emp WHERE dept = 'eng'"));
    queries.push_back(MustParseSql(
        "SELECT SUM(salary) AS total, COUNT(*) AS n FROM emp GROUP BY store"));
    queries.push_back(MustParseSql(
        "SELECT MIN(ts) AS lo, MAX(ts) AS hi FROM emp WHERE dept = 'sales'"));
    return queries;
  }

  Session plain_;
  Session seabed_;
  Session paillier_;
  PlainSchema schema_;
  std::shared_ptr<Table> table_;
};

TEST_F(SessionTest, AllBackendsReturnIdenticalRows) {
  for (const Query& q : EquivalenceQueries()) {
    const ResultSet reference = plain_.Execute(q);
    const ResultSet seabed = seabed_.Execute(q);
    const ResultSet paillier = paillier_.Execute(q);
    EXPECT_EQ(RowsAsStrings(seabed), RowsAsStrings(reference));
    // A bare session memoizes ad-hoc plans: the repeat skips translation.
    QueryStats repeat;
    EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &repeat)), RowsAsStrings(reference));
    EXPECT_TRUE(repeat.plan_cache_hit);
    EXPECT_EQ(RowsAsStrings(paillier), RowsAsStrings(reference));
    // Probe tier: the same queries at probe off vs. forced, on every backend
    // (kSeabed prunes row groups; kPlain/kPaillier must ignore the knob).
    for (Session* s : AllSessions()) {
      ExpectProbeStatsInvariants(*s, q, RowsAsStrings(reference));
    }
  }
}

TEST_F(SessionTest, QueryStatsArePopulatedByEveryBackend) {
  const Query q = MustParseSql("SELECT SUM(salary) AS total FROM emp");
  for (Session* s : AllSessions()) {
    QueryStats stats;
    const ResultSet r = s->Execute(q, &stats);
    EXPECT_EQ(stats.backend, BackendKindName(s->backend_kind()));
    EXPECT_EQ(stats.result_rows, r.rows.size());
    EXPECT_GT(stats.result_bytes, 0u);
    EXPECT_GT(stats.network_seconds, 0.0);
    EXPECT_GE(stats.client_seconds, 0.0);
    EXPECT_GE(stats.server_seconds, 0.0);
    EXPECT_GT(stats.job.num_tasks, 0u);
  }
}

TEST_F(SessionTest, SeabedStatsCountPrfCalls) {
  QueryStats stats;
  seabed_.Execute(MustParseSql("SELECT SUM(salary) AS total FROM emp"), &stats);
  // Selectivity 100% with 4 partitions and worker-side compression: at most
  // 2 PRF calls per partition blob (Section 6.6).
  EXPECT_GT(stats.prf_calls, 0u);
  EXPECT_LE(stats.prf_calls, 8u);
  EXPECT_GT(stats.translate_seconds, 0.0);
}

TEST_F(SessionTest, ExecuteBatchMatchesSerialExecution) {
  const std::vector<Query> queries = EquivalenceQueries();
  std::vector<QueryStats> stats;
  const std::vector<ResultSet> batch = seabed_.ExecuteBatch(queries, &stats);
  ASSERT_EQ(batch.size(), queries.size());
  ASSERT_EQ(stats.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(RowsAsStrings(batch[i]), RowsAsStrings(seabed_.Execute(queries[i]))) << i;
    EXPECT_EQ(stats[i].backend, "seabed");
    EXPECT_EQ(stats[i].result_rows, batch[i].rows.size());
  }
}

TEST_F(SessionTest, TranslatorKnobsSweepWithoutRewiring) {
  const Query q = MustParseSql("SELECT SUM(salary) AS total FROM emp WHERE ts < 300");
  const auto reference = RowsAsStrings(plain_.Execute(q));
  for (bool worker_side : {true, false}) {
    TranslatorOptions topts;
    topts.worker_side_compression = worker_side;
    seabed_.set_translator_options(topts);
    EXPECT_EQ(RowsAsStrings(seabed_.Execute(q)), reference);
  }
  seabed_.set_translator_options(TranslatorOptions());
}

TEST_F(SessionTest, UseClusterSweepsCoreCounts) {
  const Query q = MustParseSql("SELECT SUM(salary) AS total FROM emp");
  const auto reference = RowsAsStrings(seabed_.Execute(q));
  ClusterConfig cfg = TestClusterConfig();
  cfg.num_workers = 7;
  const Cluster wide(cfg);
  seabed_.UseCluster(&wide);
  QueryStats stats;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &stats)), reference);
  EXPECT_EQ(stats.job.worker_seconds.size(), 7u);
  seabed_.UseCluster(nullptr);
}

TEST_F(SessionTest, AppendGrowsPlainAndEncryptedState) {
  auto batch = std::make_shared<Table>("emp");
  auto country_col = std::make_shared<StringColumn>();
  auto store_col = std::make_shared<StringColumn>();
  auto ts_col = std::make_shared<Int64Column>();
  auto salary_col = std::make_shared<Int64Column>();
  auto dept_col = std::make_shared<StringColumn>();
  Rng rng(99);
  const char* countries[] = {"usa", "canada", "india", "chile", "iraq"};
  for (int i = 0; i < 200; ++i) {
    country_col->Append(countries[rng.Below(5)]);
    store_col->Append("s1");
    ts_col->Append(static_cast<int64_t>(rng.Below(1000)));
    salary_col->Append(rng.Range(0, 1000));
    dept_col->Append("eng");
  }
  batch->AddColumn("country", country_col);
  batch->AddColumn("store", store_col);
  batch->AddColumn("ts", ts_col);
  batch->AddColumn("salary", salary_col);
  batch->AddColumn("dept", dept_col);

  // NOTE: sessions share `table_` via shared_ptr, so append through exactly
  // one session and compare against a plain session attached separately.
  const size_t before = table_->NumRows();
  seabed_.Append("emp", *batch);
  EXPECT_EQ(table_->NumRows(), before + 200);
  EXPECT_EQ(seabed_.encrypted_database("emp").table->NumRows(), before + 200);

  const Query q = MustParseSql("SELECT SUM(salary) AS total, COUNT(*) AS n FROM emp");
  // plain_ executes over the shared (already grown) plaintext table.
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q)), RowsAsStrings(plain_.Execute(q)));
}

// --- joined tables across backends -------------------------------------------

class SessionJoinTest : public ::testing::Test {
 protected:
  SessionJoinTest()
      : plain_(JoinOptions(BackendKind::kPlain)),
        seabed_(JoinOptions(BackendKind::kSeabed)),
        paillier_(JoinOptions(BackendKind::kPaillier)) {
    spec_.rankings_rows = 400;
    spec_.uservisits_rows = 1500;
    spec_.num_urls = 250;
    const auto rankings = MakeRankingsTable(spec_);
    const auto uservisits = MakeUserVisitsTable(spec_);
    for (Session* s : {&plain_, &seabed_, &paillier_}) {
      s->Attach(rankings, RankingsSchema(), RankingsSampleQueries());
      s->Attach(uservisits, UserVisitsSchema(), UserVisitsSampleQueries());
    }
  }

  static SessionOptions JoinOptions(BackendKind backend) {
    SessionOptions options;
    options.backend = backend;
    options.cluster = TestClusterConfig();
    options.paillier.modulus_bits = 256;
    options.key_seed = 3;
    return options;
  }

  BdbSpec spec_;
  Session plain_;
  Session seabed_;
  Session paillier_;
};

TEST_F(SessionJoinTest, JoinQueriesAgreeAcrossBackends) {
  for (const BdbQuery& bq : BdbQuerySet()) {
    if (!bq.query.join.has_value()) {
      continue;
    }
    SCOPED_TRACE(bq.label);
    const auto reference = RowsAsStrings(plain_.Execute(bq.query));
    EXPECT_EQ(RowsAsStrings(seabed_.Execute(bq.query)), reference);
    EXPECT_EQ(RowsAsStrings(paillier_.Execute(bq.query)), reference);
    // A forced probe may prune on the fact-side predicates only; the join
    // and right-table filters must still see every surviving row.
    ExpectProbeStatsInvariants(seabed_, bq.query, reference);
  }
}

TEST_F(SessionJoinTest, CacheHitsNeverProbe) {
  SessionOptions options = JoinOptions(BackendKind::kSeabed);
  options.result_cache_bytes = 16u << 20;
  options.probe.mode = ProbeMode::kForced;
  options.probe.row_group_size = 256;
  Session caching(std::move(options));
  caching.Attach(MakeRankingsTable(spec_), RankingsSchema(), RankingsSampleQueries());

  Query q = MustParseSql(
      "SELECT SUM(pageRank) AS total, COUNT(*) AS n FROM rankings WHERE pageRank >= 4000");
  QueryStats cold;
  const auto cold_rows = RowsAsStrings(caching.Execute(q, &cold));
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cold.probe_used);  // forced mode reaches the scan on a miss

  QueryStats warm;
  EXPECT_EQ(RowsAsStrings(caching.Execute(q, &warm)), cold_rows);
  // The stats-invariant the probe docs promise: a result served from the
  // client-side cache never ran a probe round.
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.probe_used);
  EXPECT_EQ(warm.probe_seconds, 0.0);
  EXPECT_EQ(warm.row_groups_total, 0u);
}

// --- joins on the columnar scan kernels ----------------------------------------
//
// Both sides of a joined scan cross 4096-row kernel groups: with 3 workers
// and the probe off, each kSeabed scan task is one ~9k-row partition (two full
// groups plus a tail, none starting on a group edge), and the right table is
// larger than one group, so its build-side filter crosses an edge too. The
// right table repeats join keys and holds keys no fact row carries.

constexpr size_t kJoinFactRows = 27000;
constexpr size_t kJoinDimRows = 5000;

SessionOptions KernelJoinOptions(BackendKind backend, size_t shards) {
  SessionOptions options;
  options.backend = backend;
  options.shards = shards;
  options.cluster = TestClusterConfig();
  options.cluster.num_workers = 3;
  options.probe.mode = ProbeMode::kOff;  // keep every scan range whole
  options.planner.expected_rows = kJoinFactRows;
  options.key_seed = 4242;
  return options;
}

TEST(SessionKernelJoinTest, FilteredJoinsMatchPlainAcrossRowGroups) {
  PlainSchema fact_schema;
  fact_schema.table_name = "facts";
  fact_schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  fact_schema.columns.push_back({"kind", ColumnType::kString, true, std::nullopt});
  fact_schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  fact_schema.columns.push_back({"m", ColumnType::kInt64, true, std::nullopt});
  PlainSchema dim_schema;
  dim_schema.table_name = "dims";
  dim_schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  dim_schema.columns.push_back({"w", ColumnType::kInt64, false, std::nullopt});
  dim_schema.columns.push_back({"cat", ColumnType::kString, false, std::nullopt});

  auto facts = std::make_shared<Table>("facts");
  {
    auto key = std::make_shared<Int64Column>();
    auto kind = std::make_shared<StringColumn>();
    auto ts = std::make_shared<Int64Column>();
    auto m = std::make_shared<Int64Column>();
    Rng rng(31);
    const char* kinds[] = {"k0", "k1", "k2"};
    for (size_t i = 0; i < kJoinFactRows; ++i) {
      key->Append(static_cast<int64_t>(rng.Below(2000)));
      kind->Append(kinds[rng.Below(3)]);
      ts->Append(static_cast<int64_t>(rng.Below(1000)));
      m->Append(rng.Range(-50, 500));
    }
    facts->AddColumn("key", key);
    facts->AddColumn("kind", kind);
    facts->AddColumn("ts", ts);
    facts->AddColumn("m", m);
  }
  auto dims = std::make_shared<Table>("dims");
  {
    // Keys 0..2499 over 5000 rows: most keys repeat, 2000..2499 match nothing.
    auto key = std::make_shared<Int64Column>();
    auto w = std::make_shared<Int64Column>();
    auto cat = std::make_shared<StringColumn>();
    Rng rng(32);
    const char* cats[] = {"c0", "c1", "c2", "c3"};
    for (size_t i = 0; i < kJoinDimRows; ++i) {
      key->Append(static_cast<int64_t>(rng.Below(2500)));
      w->Append(static_cast<int64_t>(rng.Below(100)));
      cat->Append(cats[rng.Below(4)]);
    }
    dims->AddColumn("key", key);
    dims->AddColumn("w", w);
    dims->AddColumn("cat", cat);
  }

  // Fact side: a DET kNe and an ORE window; right side: a plain-int kLt and
  // a plain-string kNe, grouped by a right column.
  Query by_cat;
  by_cat.table = "facts";
  by_cat.join = Join{"dims", "key", "right:key"};
  by_cat.Sum("m", "total").Count("n").Min("ts", "lo").Max("ts", "hi");
  by_cat.Where("kind", CmpOp::kNe, std::string("k0"));
  by_cat.Where("ts", CmpOp::kGe, int64_t{200});
  by_cat.Where("ts", CmpOp::kLt, int64_t{800});
  by_cat.Where("right:w", CmpOp::kLt, int64_t{60});
  by_cat.Where("right:cat", CmpOp::kNe, std::string("c1"));
  by_cat.GroupBy("right:cat");
  Query by_w = by_cat;
  by_w.aggregates.clear();
  by_w.group_by.clear();
  by_w.Sum("m", "total").GroupBy("right:w");
  Query dim_sample;
  dim_sample.table = "dims";
  dim_sample.join = Join{"facts", "key", "right:key"};
  dim_sample.Count("n");

  Session plain(KernelJoinOptions(BackendKind::kPlain, 1));
  Session seabed(KernelJoinOptions(BackendKind::kSeabed, 1));
  Session sharded(KernelJoinOptions(BackendKind::kShardedSeabed, 3));
  for (Session* s : {&plain, &seabed, &sharded}) {
    s->Attach(facts, fact_schema, {by_cat, by_w});
    s->Attach(dims, dim_schema, {dim_sample});
  }

  for (const Query* q : {&by_cat, &by_w}) {
    QueryStats reference_stats;
    const auto reference = RowsAsStrings(plain.Execute(*q, &reference_stats));
    ASSERT_GT(reference.size(), 1u);
    ASSERT_GT(reference_stats.rows_touched, 0u);
    for (Session* s : {&seabed, &sharded}) {
      SCOPED_TRACE(BackendKindName(s->backend_kind()));
      QueryStats stats;
      EXPECT_EQ(RowsAsStrings(s->Execute(*q, &stats)), reference);
      EXPECT_EQ(stats.rows_touched, reference_stats.rows_touched);
    }
  }
}

// A "right:" column needs a joined table. Without a join the translator
// rejects the query with a message instead of handing the server a plan that
// resolves the column against a null table.
TEST(SessionDeathTest, RightColumnWithoutJoinIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlainSchema schema;
  schema.table_name = "t";
  schema.columns.push_back({"m", ColumnType::kInt64, true, std::nullopt});
  auto table = std::make_shared<Table>("t");
  auto m = std::make_shared<Int64Column>();
  for (int64_t i = 0; i < 100; ++i) {
    m->Append(i);
  }
  table->AddColumn("m", m);
  Query sample;
  sample.table = "t";
  sample.Sum("m");

  Query filtered = sample;
  filtered.Where("right:cat", CmpOp::kEq, std::string("a"));
  Query aggregated = sample;
  aggregated.Sum("right:m");
  Query grouped = sample;
  grouped.GroupBy("right:cat");
  for (const BackendKind backend : {BackendKind::kSeabed, BackendKind::kShardedSeabed}) {
    SCOPED_TRACE(BackendKindName(backend));
    Session session(KernelJoinOptions(backend, backend == BackendKind::kSeabed ? 1 : 3));
    session.Attach(table, schema, {sample});
    EXPECT_DEATH(session.Execute(filtered), "right:cat without a join");
    EXPECT_DEATH(session.Execute(aggregated), "right:m without a join");
    EXPECT_DEATH(session.Execute(grouped), "right:cat without a join");
  }
}

}  // namespace
}  // namespace seabed
