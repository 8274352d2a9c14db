// Direct tests on the Server: response shapes, inflation on the wire,
// worker/driver compression, shuffle accounting, joins.
#include "src/seabed/server.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/seabed/client.h"
#include "src/seabed/planner.h"

namespace seabed {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : cluster_(Config()), keys_(ClientKeys::FromSeed(61)) {
    schema_.table_name = "s";
    schema_.columns.push_back({"g", ColumnType::kString, true, std::nullopt});
    schema_.columns.push_back({"m", ColumnType::kInt64, true, std::nullopt});

    auto table = std::make_shared<Table>("s");
    auto g = std::make_shared<StringColumn>();
    auto m = std::make_shared<Int64Column>();
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
      g->Append(i % 2 ? "odd" : "even");
      m->Append(i);
    }
    table->AddColumn("g", g);
    table->AddColumn("m", m);

    Query sample;
    sample.table = "s";
    sample.Sum("m").GroupBy("g");
    PlannerOptions popts;
    popts.expected_rows = 1000;
    plan_ = PlanEncryption(schema_, {sample}, popts);
    const Encryptor encryptor(keys_);
    db_ = encryptor.Encrypt(*table, schema_, plan_);
  }

  static ClusterConfig Config() {
    ClusterConfig cfg;
    cfg.num_workers = 4;
    cfg.job_overhead_seconds = 0;
    cfg.task_overhead_seconds = 0;
    return cfg;
  }

  TranslatedQuery Translate(const Query& q, TranslatorOptions topts = {}) {
    topts.cluster_workers = cluster_.num_workers();
    const Translator translator(db_, keys_);
    return translator.Translate(q, topts);
  }

  Cluster cluster_;
  ClientKeys keys_;
  PlainSchema schema_;
  EncryptionPlan plan_;
  EncryptedDatabase db_;
  Server server_;
};

TEST_F(ServerTest, GlobalSumProducesOneGroupWithBlobs) {
  Query q;
  q.table = "s";
  q.Sum("m");
  const TranslatedQuery tq = Translate(q);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  ASSERT_EQ(r.groups.size(), 1u);
  ASSERT_EQ(r.groups[0].aggs.size(), 1u);
  // Worker-side compression: one blob per partition that saw rows.
  EXPECT_EQ(r.groups[0].aggs[0].id_blobs.size(), 4u);
  EXPECT_GT(r.response_bytes, 0u);
  EXPECT_EQ(r.shuffle_bytes, 0u);  // no group-by: no shuffle accounting
}

TEST_F(ServerTest, DriverSideCompressionYieldsSingleBlob) {
  Query q;
  q.table = "s";
  q.Sum("m");
  TranslatorOptions topts;
  topts.worker_side_compression = false;
  const TranslatedQuery tq = Translate(q, topts);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].aggs[0].id_blobs.size(), 1u);
  EXPECT_GT(r.driver_seconds, 0.0);
}

TEST_F(ServerTest, GroupByCountsShuffleBytes) {
  Query q;
  q.table = "s";
  q.Sum("m").GroupBy("g");
  const TranslatedQuery tq = Translate(q);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  EXPECT_EQ(r.groups.size(), 2u);
  EXPECT_GT(r.shuffle_bytes, 0u);
  EXPECT_GT(r.shuffle_seconds, 0.0);
}

TEST_F(ServerTest, InflationMultipliesWireGroups) {
  Query q;
  q.table = "s";
  q.Sum("m").GroupBy("g");
  q.expected_groups = 2;  // 2 < 4 workers -> inflation 2
  const TranslatedQuery tq = Translate(q);
  EXPECT_EQ(tq.server.inflation, 2u);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  EXPECT_EQ(r.groups.size(), 4u);  // 2 groups x 2 suffixes
  // Suffixes recorded for client deflation.
  bool saw_nonzero_suffix = false;
  for (const auto& g : r.groups) {
    saw_nonzero_suffix |= g.inflation_suffix != 0;
  }
  EXPECT_TRUE(saw_nonzero_suffix);
}

TEST_F(ServerTest, ServerSeesOnlyCiphertext) {
  // Structural check on the trust boundary: no plaintext column of the
  // sensitive schema survives in the encrypted table.
  EXPECT_FALSE(db_.table->HasColumn("g"));
  EXPECT_FALSE(db_.table->HasColumn("m"));
  for (const auto& name : db_.table->column_names()) {
    const ColumnType type = db_.table->GetColumn(name)->type();
    EXPECT_TRUE(type == ColumnType::kAshe || type == ColumnType::kDet ||
                type == ColumnType::kOre)
        << name;
  }
}

TEST_F(ServerTest, UnknownTableAborts) {
  ServerPlan plan;
  plan.table = "missing";
  EXPECT_DEATH(server_.Execute(plan, cluster_, nullptr, nullptr), "no table named");
}

TEST_F(ServerTest, ResponseBytesGrowWithSelectivityFragmentation) {
  // An all-rows sum has one contiguous run; a fragmented DET-filtered one
  // (every other row) ships many runs.
  Query all;
  all.table = "s";
  all.Sum("m");
  Query odd;
  odd.table = "s";
  odd.Sum("m").Where("g", CmpOp::kEq, std::string("odd"));
  TranslatorOptions topts;
  topts.idlist.compression = IdListCompression::kNone;  // isolate run counts
  const EncryptedResponse r_all =
      server_.Execute(Translate(all, topts).server, cluster_, db_.table.get(), nullptr);
  const EncryptedResponse r_odd =
      server_.Execute(Translate(odd, topts).server, cluster_, db_.table.get(), nullptr);
  EXPECT_GT(r_odd.response_bytes, r_all.response_bytes);
}

TEST(ServerGroupKeyTest, AdjacentStringPartsNeverAlias) {
  // Regression for the group-key encoding: keys used to be raw
  // '\x1f'-separated concatenation, so the distinct tuples ("a\x1f", "b")
  // and ("a", "\x1fb") serialized identically and their aggregates merged
  // into one group. Length-prefixed parts keep them distinct.
  PlainSchema schema;
  schema.table_name = "t";
  schema.columns.push_back({"g1", ColumnType::kString, false, std::nullopt});
  schema.columns.push_back({"g2", ColumnType::kString, false, std::nullopt});

  auto table = std::make_shared<Table>("t");
  auto g1 = std::make_shared<StringColumn>();
  auto g2 = std::make_shared<StringColumn>();
  g1->Append("a\x1f");
  g2->Append("b");
  g1->Append("a");
  g2->Append("\x1f" "b");
  table->AddColumn("g1", g1);
  table->AddColumn("g2", g2);

  Query sample;
  sample.table = "t";
  sample.Count().GroupBy("g1").GroupBy("g2");
  PlannerOptions popts;
  popts.expected_rows = 2;
  const EncryptionPlan plan = PlanEncryption(schema, {sample}, popts);
  const ClientKeys keys = ClientKeys::FromSeed(17);
  const Encryptor encryptor(keys);
  const EncryptedDatabase db = encryptor.Encrypt(*table, schema, plan);

  ClusterConfig cfg;
  cfg.num_workers = 1;
  const Cluster cluster(cfg);
  TranslatorOptions topts;
  topts.cluster_workers = 1;
  const Translator translator(db, keys);
  const TranslatedQuery tq = translator.Translate(sample, topts);

  const Server server;
  const EncryptedResponse r = server.Execute(tq.server, cluster, db.table.get(), nullptr);
  // Two distinct key tuples -> two groups, one row each. The old encoding
  // collapsed them into a single group of count 2.
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0].aggs[0].row_count, 1u);
  EXPECT_EQ(r.groups[1].aggs[0].row_count, 1u);
}

}  // namespace
}  // namespace seabed
