// End-to-end equivalence: for every supported query shape, the Seabed
// pipeline (plan → encrypt → translate → encrypted execution → decrypt) and
// the Paillier baseline must produce exactly the answers of the plaintext
// executor. This is the correctness contract of the whole system. Everything
// runs through the Session facade; the few tests that inspect translator or
// server internals drop down to the component APIs on the session's state.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/query/plain_executor.h"
#include "src/seabed/client.h"
#include "src/seabed/planner.h"
#include "src/seabed/server.h"
#include "src/seabed/session.h"
#include "src/seabed/sharded_backend.h"

namespace seabed {
namespace {

ClusterConfig TestClusterConfig() {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.job_overhead_seconds = 0;
  cfg.task_overhead_seconds = 0;
  return cfg;
}

// Canonicalization: the full row as one string; compare sorted sets.
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

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() : session_(SeabedOptions()) {
    // Schema: one SPLASHE dimension (country), one DET group dimension
    // (store), one OPE dimension (ts), measures salary & bonus.
    schema_.table_name = "emp";
    ValueDistribution country;
    country.values = {"usa", "canada", "india", "chile", "iraq"};
    country.frequencies = {0.42, 0.38, 0.08, 0.07, 0.05};
    schema_.columns.push_back({"country", ColumnType::kString, true, country});
    schema_.columns.push_back({"store", ColumnType::kString, true, std::nullopt});
    schema_.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
    schema_.columns.push_back({"salary", ColumnType::kInt64, true, std::nullopt});
    schema_.columns.push_back({"bonus", ColumnType::kInt64, true, std::nullopt});
    schema_.columns.push_back({"dept", ColumnType::kString, false, std::nullopt});

    table_ = std::make_shared<Table>("emp");
    auto country_col = std::make_shared<StringColumn>();
    auto store_col = std::make_shared<StringColumn>();
    auto ts_col = std::make_shared<Int64Column>();
    auto salary_col = std::make_shared<Int64Column>();
    auto bonus_col = std::make_shared<Int64Column>();
    auto dept_col = std::make_shared<StringColumn>();
    Rng rng(77);
    const char* countries[] = {"usa", "canada", "india", "chile", "iraq"};
    const double cdf[] = {0.42, 0.80, 0.88, 0.95, 1.0};
    const char* stores[] = {"s1", "s2", "s3"};
    const char* depts[] = {"eng", "sales"};
    for (int i = 0; i < 4000; ++i) {
      const double u = rng.NextDouble();
      int pick = 0;
      while (u > cdf[pick]) {
        ++pick;
      }
      country_col->Append(countries[pick]);
      store_col->Append(stores[rng.Below(3)]);
      ts_col->Append(static_cast<int64_t>(rng.Below(1000)));
      salary_col->Append(rng.Range(-1000, 100000));  // negatives exercised too
      bonus_col->Append(rng.Range(0, 5000));
      dept_col->Append(depts[rng.Below(2)]);
    }
    table_->AddColumn("country", country_col);
    table_->AddColumn("store", store_col);
    table_->AddColumn("ts", ts_col);
    table_->AddColumn("salary", salary_col);
    table_->AddColumn("bonus", bonus_col);
    table_->AddColumn("dept", dept_col);

    session_.Attach(table_, schema_, SampleQueries());
  }

  static SessionOptions SeabedOptions() {
    SessionOptions options;
    options.backend = BackendKind::kSeabed;
    options.cluster = TestClusterConfig();
    options.planner.expected_rows = 4000;
    options.key_seed = 1234;
    return options;
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
      q.Avg("salary").Variance("bonus").Where("ts", CmpOp::kGe, int64_t{500});
      queries.push_back(q);
    }
    {
      Query q;
      q.table = "emp";
      q.Sum("bonus").Min("ts").Max("ts").GroupBy("store");
      queries.push_back(q);
    }
    return queries;
  }

  ResultSet RunSeabed(const Query& q, TranslatorOptions topts = {},
                      QueryStats* stats = nullptr) {
    session_.set_translator_options(topts);
    return session_.Execute(q, stats);
  }

  void ExpectMatchesPlain(const Query& q, TranslatorOptions topts = {}) {
    const ResultSet plain = ExecutePlain(*table_, q, session_.cluster(), nullptr, nullptr);
    const ResultSet enc = RunSeabed(q, topts);
    EXPECT_EQ(RowsAsStrings(enc), RowsAsStrings(plain));
  }

  Session session_;
  PlainSchema schema_;
  std::shared_ptr<Table> table_;
};

TEST_F(EndToEndTest, GlobalSum) {
  Query q;
  q.table = "emp";
  q.Sum("salary");
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, GlobalCount) {
  Query q;
  q.table = "emp";
  q.Count();
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, SumWithPlainFilter) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Where("dept", CmpOp::kEq, std::string("eng"));
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, SplasheFrequentValueFilter) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Count().Where("country", CmpOp::kEq, std::string("usa"));
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, SplasheInfrequentValueFilter) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Count().Where("country", CmpOp::kEq, std::string("chile"));
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, SplasheAvg) {
  Query q;
  q.table = "emp";
  q.Avg("salary").Where("country", CmpOp::kEq, std::string("iraq"));
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, OreRangeFilter) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Count().Where("ts", CmpOp::kGe, int64_t{500});
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, OreRangeWindow) {
  Query q;
  q.table = "emp";
  q.Sum("bonus").Where("ts", CmpOp::kGe, int64_t{250}).Where("ts", CmpOp::kLt, int64_t{750});
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, DetGroupBy) {
  Query q;
  q.table = "emp";
  q.Sum("bonus").Count().GroupBy("store");
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, GroupByWithInflation) {
  Query q;
  q.table = "emp";
  q.Sum("bonus").Count().GroupBy("store");
  q.expected_groups = 3;  // fewer than the 4 workers -> inflation kicks in
  TranslatorOptions topts;
  topts.enable_group_inflation = true;
  ExpectMatchesPlain(q, topts);
}

TEST_F(EndToEndTest, InflationPlanActuallyInflates) {
  // Inspects the translated plan and raw server response, so this test talks
  // to the components directly, over the session's encrypted state.
  Query q;
  q.table = "emp";
  q.Sum("bonus").GroupBy("store");
  q.expected_groups = 3;
  TranslatorOptions topts;
  topts.cluster_workers = 4;
  const EncryptedDatabase& db = session_.encrypted_database("emp");
  const Translator translator(db, session_.keys());
  const TranslatedQuery tq = translator.Translate(q, topts);
  EXPECT_GT(tq.server.inflation, 1u);
  const Server& server = static_cast<ShardedSeabedBackend&>(session_.executor()).shard_server(0);
  const EncryptedResponse response =
      server.Execute(tq.server, session_.cluster(), db.table.get(), nullptr);
  EXPECT_GT(response.groups.size(), 3u);  // inflated on the wire
  const Client client(db, session_.keys());
  const ResultSet r = client.Decrypt(response, tq, session_.cluster(), nullptr, nullptr);
  EXPECT_EQ(r.rows.size(), 3u);  // deflated at the client
}

TEST_F(EndToEndTest, VarianceAndStddev) {
  Query q;
  q.table = "emp";
  q.Variance("bonus");
  q.aggregates.push_back({AggFunc::kStddev, "bonus", "sd_bonus"});
  q.Where("ts", CmpOp::kGe, int64_t{500});
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, MinMaxViaOre) {
  Query q;
  q.table = "emp";
  q.Min("ts").Max("ts").Where("dept", CmpOp::kEq, std::string("sales"));
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, CombinedSplasheAndPlainFilter) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Count();
  q.Where("country", CmpOp::kEq, std::string("usa"));
  q.Where("dept", CmpOp::kEq, std::string("eng"));
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, SplasheFilterWithGroupBy) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Count();
  q.Where("country", CmpOp::kEq, std::string("india"));
  q.GroupBy("store");
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, MultipleAggregatesOneQuery) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Sum("bonus").Count().Avg("bonus");
  q.GroupBy("store");
  ExpectMatchesPlain(q);
}

TEST_F(EndToEndTest, EmptyResult) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Where("ts", CmpOp::kGt, int64_t{99999});
  // Plain yields one row (sum over nothing = 0); Seabed's server finds no
  // matching rows and returns an all-zero aggregate as well.
  const ResultSet plain = ExecutePlain(*table_, q, session_.cluster(), nullptr, nullptr);
  const ResultSet enc = RunSeabed(q);
  ASSERT_EQ(plain.rows.size(), 1u);
  ASSERT_EQ(enc.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(enc.rows[0][0]), std::get<int64_t>(plain.rows[0][0]));
}

TEST_F(EndToEndTest, DriverSideCompressionMatches) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Where("ts", CmpOp::kLt, int64_t{300});
  TranslatorOptions topts;
  topts.worker_side_compression = false;
  ExpectMatchesPlain(q, topts);
}

TEST_F(EndToEndTest, AllCodecOptionsMatch) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Where("ts", CmpOp::kGe, int64_t{100});
  for (bool range : {false, true}) {
    for (auto compression : {IdListCompression::kNone, IdListCompression::kFast,
                             IdListCompression::kCompact}) {
      TranslatorOptions topts;
      topts.idlist.use_range = range;
      topts.idlist.compression = compression;
      ExpectMatchesPlain(q, topts);
    }
  }
}

TEST_F(EndToEndTest, StatsCarryLatencyBreakdown) {
  Query q;
  q.table = "emp";
  q.Sum("salary");
  QueryStats stats;
  RunSeabed(q, {}, &stats);
  EXPECT_GT(stats.result_bytes, 0u);
  EXPECT_GT(stats.network_seconds, 0.0);
  EXPECT_GE(stats.client_seconds, 0.0);
  EXPECT_EQ(stats.backend, "seabed");
}

TEST_F(EndToEndTest, PrfCallCountIsTracked) {
  Query q;
  q.table = "emp";
  q.Sum("salary");
  QueryStats stats;
  RunSeabed(q, {}, &stats);
  // Selectivity 100% with 4 partitions: one contiguous run per partition and
  // worker-side compression -> at most 2 PRF calls per partition blob.
  EXPECT_GT(stats.prf_calls, 0u);
  EXPECT_LE(stats.prf_calls, 8u);
}

// --- Paillier baseline equivalence ------------------------------------------

class PaillierEndToEndTest : public EndToEndTest {
 protected:
  PaillierEndToEndTest() : baseline_(PaillierOptions()) {
    baseline_.Attach(table_, schema_, SampleQueries());
  }

  static SessionOptions PaillierOptions() {
    SessionOptions options = SeabedOptions();
    options.backend = BackendKind::kPaillier;
    options.paillier.modulus_bits = 256;
    options.paillier.seed = 55;
    return options;
  }

  ResultSet RunPaillier(const Query& q) { return baseline_.Execute(q); }

  Session baseline_;
};

TEST_F(PaillierEndToEndTest, GlobalSumMatchesPlain) {
  Query q;
  q.table = "emp";
  q.Sum("salary");
  const ResultSet plain = ExecutePlain(*table_, q, session_.cluster(), nullptr, nullptr);
  const ResultSet enc = RunPaillier(q);
  EXPECT_EQ(RowsAsStrings(enc), RowsAsStrings(plain));
}

TEST_F(PaillierEndToEndTest, DetFilterMatchesPlain) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Count().Where("country", CmpOp::kEq, std::string("india"));
  const ResultSet plain = ExecutePlain(*table_, q, session_.cluster(), nullptr, nullptr);
  const ResultSet enc = RunPaillier(q);
  EXPECT_EQ(RowsAsStrings(enc), RowsAsStrings(plain));
}

TEST_F(PaillierEndToEndTest, GroupByMatchesPlain) {
  Query q;
  q.table = "emp";
  q.Sum("bonus").Count().GroupBy("store");
  const ResultSet plain = ExecutePlain(*table_, q, session_.cluster(), nullptr, nullptr);
  const ResultSet enc = RunPaillier(q);
  EXPECT_EQ(RowsAsStrings(enc), RowsAsStrings(plain));
}

TEST_F(PaillierEndToEndTest, OreFilterMatchesPlain) {
  Query q;
  q.table = "emp";
  q.Sum("salary").Where("ts", CmpOp::kGe, int64_t{800});
  const ResultSet plain = ExecutePlain(*table_, q, session_.cluster(), nullptr, nullptr);
  const ResultSet enc = RunPaillier(q);
  EXPECT_EQ(RowsAsStrings(enc), RowsAsStrings(plain));
}

}  // namespace
}  // namespace seabed
