// Direct tests on the Server: response shapes, inflation on the wire,
// worker/driver compression, shuffle accounting, and the aggregation edge
// cases (multi-part keys, inflation, row-group boundaries, joins with
// repeated matches) checked row for row against kPlain.
#include "src/seabed/server.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/query/plain_executor.h"
#include "src/seabed/client.h"
#include "src/seabed/planner.h"
#include "tests/seabed/test_util.h"

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

TEST_F(ServerTest, GlobalSumShipsOneSectionPerTask) {
  Query q;
  q.table = "s";
  q.Sum("m");
  const TranslatedQuery tq = Translate(q);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  ASSERT_EQ(r.groups.size(), 1u);
  ASSERT_EQ(r.groups[0].aggs.size(), 1u);
  // Worker-side compression: one section per partition that saw rows, each
  // holding the one group's list (so its group mapping is the identity and
  // ships empty).
  ASSERT_EQ(r.id_sections.size(), 4u);
  for (const IdListSection& section : r.id_sections) {
    EXPECT_TRUE(section.groups.empty());
  }
  EXPECT_GT(r.response_bytes, 0u);
  EXPECT_EQ(r.shuffle_bytes, 0u);  // no group-by: no shuffle accounting
}

TEST_F(ServerTest, DriverSideCompressionYieldsOneSection) {
  Query q;
  q.table = "s";
  q.Sum("m");
  TranslatorOptions topts;
  topts.worker_side_compression = false;
  const TranslatedQuery tq = Translate(q, topts);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.id_sections.size(), 1u);
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
  ASSERT_EQ(r.groups.size(), 4u);  // 2 groups x 2 suffixes
  // Each key ends in its suffix, an 8-byte part the client strips to
  // deflate: 4 distinct keys over 2 distinct prefixes.
  std::set<std::string> keys, prefixes;
  for (const auto& g : r.groups) {
    keys.insert(g.key);
    prefixes.insert(g.key.substr(0, g.key.size() - 9));
  }
  EXPECT_EQ(keys.size(), 4u);
  EXPECT_EQ(prefixes.size(), 2u);
}

TEST_F(ServerTest, TaskSeamsCostTwoPrfCallsEach) {
  // The client streams each task's section on its own, so a run cut by a
  // task boundary is not coalesced: each of the tasks - 1 seams costs one
  // more run, 2 PRF calls, per group and sum. All 1000 rows pass: one run
  // on one worker, four runs on four.
  Query q;
  q.table = "s";
  q.Sum("m");
  ClusterConfig one_cfg = Config();
  one_cfg.num_workers = 1;
  const Cluster one(one_cfg);
  uint64_t prf_calls[2] = {0, 0};
  for (const Cluster* cluster : {&one, static_cast<const Cluster*>(&cluster_)}) {
    TranslatorOptions topts;
    topts.cluster_workers = cluster->num_workers();
    const TranslatedQuery tq = Translator(db_, keys_).Translate(q, topts);
    const EncryptedResponse r = server_.Execute(tq.server, *cluster, db_.table.get(), nullptr);
    QueryStats stats;
    const ResultSet rows = Client(db_, keys_).Decrypt(r, tq, *cluster, nullptr, &stats);
    EXPECT_EQ(std::get<int64_t>(rows.rows.at(0).at(0)), 999 * 1000 / 2);
    prf_calls[cluster == &one ? 0 : 1] = stats.prf_calls;
  }
  EXPECT_EQ(prf_calls[0], 2u);
  EXPECT_EQ(prf_calls[1], prf_calls[0] + 2 * (4 - 1));
}

TEST_F(ServerTest, CountOnlyQueryShipsNoSection) {
  Query q;
  q.table = "s";
  q.Count().GroupBy("g");
  const TranslatedQuery tq = Translate(q);
  const EncryptedResponse r = server_.Execute(tq.server, cluster_, db_.table.get(), nullptr);
  EXPECT_EQ(r.groups.size(), 2u);
  EXPECT_TRUE(r.id_sections.empty());
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

TEST(ServerSectionTest, SumsOfOneTableShareOneList) {
  // Every ASHE column of a table shares its base id, so SUM(a), SUM(b),
  // SUM(c) of one group carry one multiset: the response ships exactly the
  // section bytes of SUM(a) alone, and still decrypts like kPlain.
  PlainSchema schema;
  schema.table_name = "t";
  schema.columns.push_back({"g", ColumnType::kString, true, std::nullopt});
  for (const char* name : {"a", "b", "c"}) {
    schema.columns.push_back({name, ColumnType::kInt64, true, std::nullopt});
  }
  auto table = std::make_shared<Table>("t");
  auto g = std::make_shared<StringColumn>();
  std::shared_ptr<Int64Column> measures[3] = {std::make_shared<Int64Column>(),
                                              std::make_shared<Int64Column>(),
                                              std::make_shared<Int64Column>()};
  Rng rng(44);
  for (int i = 0; i < 6000; ++i) {
    g->Append("g" + std::to_string(rng.Below(7)));
    for (auto& m : measures) {
      m->Append(rng.Range(-50, 500));
    }
  }
  table->AddColumn("g", g);
  table->AddColumn("a", measures[0]);
  table->AddColumn("b", measures[1]);
  table->AddColumn("c", measures[2]);

  Query three;
  three.table = "t";
  three.Sum("a").Sum("b").Sum("c").GroupBy("g");
  Query one;
  one.table = "t";
  one.Sum("a").GroupBy("g");
  PlannerOptions popts;
  popts.expected_rows = 6000;
  const ClientKeys keys = ClientKeys::FromSeed(45);
  const EncryptedDatabase db =
      Encryptor(keys).Encrypt(*table, schema, PlanEncryption(schema, {three}, popts));
  ClusterConfig cfg;
  cfg.num_workers = 4;
  const Cluster cluster(cfg);
  TranslatorOptions topts;
  topts.cluster_workers = 4;
  for (const bool at_workers : {true, false}) {
    topts.worker_side_compression = at_workers;
    const Translator translator(db, keys);
    const TranslatedQuery tq3 = translator.Translate(three, topts);
    const TranslatedQuery tq1 = translator.Translate(one, topts);
    const EncryptedResponse r3 = Server().Execute(tq3.server, cluster, db.table.get(), nullptr);
    const EncryptedResponse r1 = Server().Execute(tq1.server, cluster, db.table.get(), nullptr);
    EXPECT_EQ(NumIdLists(tq3.server), 1u);
    ASSERT_EQ(r3.id_sections.size(), at_workers ? 4u : 1u);
    ASSERT_EQ(r3.id_sections.size(), r1.id_sections.size());
    for (size_t i = 0; i < r3.id_sections.size(); ++i) {
      EXPECT_EQ(r3.id_sections[i].bytes, r1.id_sections[i].bytes);
      EXPECT_EQ(r3.id_sections[i].groups, r1.id_sections[i].groups);
    }
    QueryStats stats;
    const ResultSet got = Client(db, keys).Decrypt(r3, tq3, cluster, nullptr, &stats);
    const ResultSet want = ExecutePlain(*table, three, cluster, nullptr, nullptr);
    EXPECT_EQ(RowsAsStrings(got), RowsAsStrings(want));
    // Each run of the shared list is decoded once and evaluated per sum.
    QueryStats one_stats;
    Client(db, keys).Decrypt(r1, tq1, cluster, nullptr, &one_stats);
    EXPECT_EQ(stats.prf_calls, 3 * one_stats.prf_calls);
  }
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

// Aggregation edge cases against kPlain. The fact table has a DET-encrypted
// string `d`, a plain int `pi`, a plain string `ps`, an ORE `ts` equal to the
// row index (so a range predicate selects an exact row span), an ASHE `m`
// and a DET join key `fk`. Every key of the right table occurs 3 or 4
// times, so each matching fact row joins k >= 3 right rows.
constexpr size_t kAggRows = 9000;
constexpr int64_t kRightKeys = 200;

std::shared_ptr<Table> AggFactTable() {
  auto table = std::make_shared<Table>("f");
  auto d = std::make_shared<StringColumn>();
  auto pi = std::make_shared<Int64Column>();
  auto ps = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto m = std::make_shared<Int64Column>();
  auto fk = std::make_shared<Int64Column>();
  Rng rng(91);
  const char* const plain_strings[] = {"x", "yy", "z"};
  for (size_t i = 0; i < kAggRows; ++i) {
    d->Append("d" + std::to_string(rng.Below(5)));
    pi->Append(static_cast<int64_t>(rng.Below(3)) - 1);
    ps->Append(plain_strings[rng.Below(3)]);
    ts->Append(static_cast<int64_t>(i));
    m->Append(rng.Range(-100, 1000));
    fk->Append(static_cast<int64_t>(rng.Below(kRightKeys + 20)));  // some dangle
  }
  table->AddColumn("d", d);
  table->AddColumn("pi", pi);
  table->AddColumn("ps", ps);
  table->AddColumn("ts", ts);
  table->AddColumn("m", m);
  table->AddColumn("fk", fk);
  return table;
}

PlainSchema AggFactSchema() {
  PlainSchema schema;
  schema.table_name = "f";
  schema.columns.push_back({"d", ColumnType::kString, true, std::nullopt});
  schema.columns.push_back({"pi", ColumnType::kInt64, false, std::nullopt});
  schema.columns.push_back({"ps", ColumnType::kString, false, std::nullopt});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"m", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"fk", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

std::shared_ptr<Table> AggRightTable() {
  auto table = std::make_shared<Table>("r");
  auto key = std::make_shared<Int64Column>();
  auto w = std::make_shared<Int64Column>();
  Rng rng(92);
  for (int64_t k = 0; k < kRightKeys; ++k) {
    const int copies = 3 + static_cast<int>(k % 2);
    for (int c = 0; c < copies; ++c) {
      key->Append(k);
      w->Append(rng.Range(0, 500));
    }
  }
  table->AddColumn("key", key);
  table->AddColumn("w", w);
  return table;
}

PlainSchema AggRightSchema() {
  PlainSchema schema;
  schema.table_name = "r";
  schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"w", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

Query JoinedQuery() {
  Query q;
  q.table = "f";
  q.join = Join{"r", "fk", "right:key"};
  q.Sum("m", "fact_sum").Sum("right:w", "right_sum").Count("n");
  q.Where("ts", CmpOp::kLt, int64_t{7000});
  return q;
}

std::vector<Query> AggFactSamples() {
  Query grouped;
  grouped.table = "f";
  grouped.Sum("m").Count().GroupBy("d").GroupBy("pi").GroupBy("ps");
  grouped.Where("ts", CmpOp::kLt, int64_t{100});
  Query joined = JoinedQuery();
  joined.GroupBy("d");
  return {grouped, joined};
}

std::vector<Query> AggRightSamples() {
  Query q;
  q.table = "r";
  q.join = Join{"f", "key", "right:fk"};
  q.Sum("w");
  return {q};
}

// Runs `q` on a kSeabed and a kPlain session over the same tables and
// expects the same rows in the same order, and the same rows touched.
void ExpectSeabedMatchesPlain(const Query& q, size_t workers) {
  std::vector<std::string> answers[2];
  uint64_t touched[2] = {0, 0};
  const BackendKind backends[2] = {BackendKind::kSeabed, BackendKind::kPlain};
  for (int b = 0; b < 2; ++b) {
    SessionOptions options;
    options.backend = backends[b];
    options.cluster.num_workers = workers;
    options.planner.expected_rows = kAggRows;
    options.probe.mode = ProbeMode::kOff;
    Session session(options);
    session.Attach(AggFactTable(), AggFactSchema(), AggFactSamples());
    session.Attach(AggRightTable(), AggRightSchema(), AggRightSamples());
    QueryStats stats;
    answers[b] = RowsAsStrings(session.Execute(q, &stats));
    touched[b] = stats.rows_touched;
  }
  EXPECT_FALSE(answers[1].empty());
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(touched[0], touched[1]);
}

TEST(ServerAggregationTest, JoinWithRepeatedMatchesMatchesPlain) {
  // A fact row joined to k >= 3 right rows repeats its id in the fact-side
  // sum's ID list (multiplicity k); the right-side sum collects right ids in
  // probe order. Both must decrypt exactly, grouped and ungrouped.
  Query grouped = JoinedQuery();
  grouped.GroupBy("d");
  for (const size_t workers : {1, 4}) {
    ExpectSeabedMatchesPlain(JoinedQuery(), workers);
    ExpectSeabedMatchesPlain(grouped, workers);
  }
}

class ServerAggregationDirectTest : public ::testing::Test {
 protected:
  ServerAggregationDirectTest()
      : table_(AggFactTable()), keys_(ClientKeys::FromSeed(93)) {
    PlannerOptions popts;
    popts.expected_rows = kAggRows;
    const EncryptionPlan plan = PlanEncryption(AggFactSchema(), AggFactSamples(), popts);
    db_ = Encryptor(keys_).Encrypt(*table_, AggFactSchema(), plan);
  }

  // Runs `q` through Translate -> Server::Execute -> Client::Decrypt on
  // `workers` workers, expects kPlain's rows in kPlain's order, and returns
  // the translated plan.
  TranslatedQuery ExpectMatchesPlain(const Query& q, size_t workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    const Cluster cluster(cfg);
    TranslatorOptions topts;
    topts.cluster_workers = workers;
    const TranslatedQuery tq = Translator(db_, keys_).Translate(q, topts);
    const EncryptedResponse response =
        Server().Execute(tq.server, cluster, db_.table.get(), nullptr);
    const ResultSet got = Client(db_, keys_).Decrypt(response, tq, cluster, nullptr, nullptr);
    QueryStats plain_stats;
    const ResultSet want = ExecutePlain(*table_, q, cluster, nullptr, &plain_stats);
    EXPECT_FALSE(want.rows.empty());
    EXPECT_EQ(RowsAsStrings(got), RowsAsStrings(want));
    EXPECT_EQ(response.rows_touched, plain_stats.rows_touched);
    return tq;
  }

  std::shared_ptr<Table> table_;
  ClientKeys keys_;
  EncryptedDatabase db_;
};

TEST_F(ServerAggregationDirectTest, MultiPartGroupByMatchesPlain) {
  // A DET column, a plain int (negative values included) and a plain string
  // (dictionary codes on the server, rendered back to strings in the key).
  Query q;
  q.table = "f";
  q.Sum("m").Count().GroupBy("d").GroupBy("pi").GroupBy("ps");
  q.Where("ts", CmpOp::kLt, int64_t{7500});
  for (const size_t workers : {1, 4}) {
    const TranslatedQuery tq = ExpectMatchesPlain(q, workers);
    EXPECT_EQ(tq.server.inflation, 1u);
  }
}

TEST_F(ServerAggregationDirectTest, MultiPartGroupByWithInflationMatchesPlain) {
  Query q;
  q.table = "f";
  q.Sum("m").Count().GroupBy("d").GroupBy("pi").GroupBy("ps");
  q.Where("ts", CmpOp::kLt, int64_t{7500});
  q.expected_groups = 1;  // fewer than the 4 workers: inflate to 4
  const TranslatedQuery tq = ExpectMatchesPlain(q, 4);
  EXPECT_EQ(tq.server.inflation, 4u);
}

TEST_F(ServerAggregationDirectTest, UngroupedSelectionAcrossRowGroupBoundary) {
  // Rows [4013, 4237): starts and ends mid-word and crosses the 4096-row
  // kernel row group of a single-worker scan, so the masked sum, the popcount
  // and the set-bit runs of the ID list each span two bitmaps.
  Query q;
  q.table = "f";
  q.Sum("m").Count();
  q.Where("ts", CmpOp::kGe, int64_t{4013});
  q.Where("ts", CmpOp::kLt, int64_t{4237});
  for (const size_t workers : {1, 4}) {
    ExpectMatchesPlain(q, workers);
  }
  Query all;  // every row: one run per task, full words throughout
  all.table = "f";
  all.Sum("m").Count();
  all.Where("ts", CmpOp::kGe, int64_t{0});
  ExpectMatchesPlain(all, 1);
}

}  // namespace
}  // namespace seabed
