// Adversarial edges of the two-round probe-and-prune path
// (src/seabed/probe.h):
//
//   * zero-match queries short-circuit round two entirely,
//   * all-match queries prune nothing (and still answer correctly),
//   * row-group summaries stay correct across Append — the stale-summary
//     trap: a probe that trusted pre-append summaries would prune groups
//     that now contain matches,
//   * the probe_used / row_groups_pruned stats invariants hold across
//     off/auto/forced, and kAuto's selectivity gate fires only when the
//     planner's estimate predicts a win.
//
// The ProbeForcedMiniFuzz suite at the bottom is the probe-forced subset of
// the cross-backend equivalence argument sized for the sanitizer CI job: it
// lives in the fast test tier (unlike the full `slow`-labeled fuzz suite),
// with the query count capped so ASan/UBSan runs stay cheap.
#include "src/seabed/probe.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/seabed/session.h"
#include "src/seabed/snapshot.h"

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

ClusterConfig TestClusterConfig() {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.job_overhead_seconds = 0;
  cfg.task_overhead_seconds = 0;
  return cfg;
}

// Clustered test data: 4000 rows in contiguous runs per segment value (the
// layout row-group pruning exists for — time- or tenant-partitioned data),
// with a monotone ts column so ORE range summaries prune too.
constexpr struct {
  const char* seg;
  size_t rows;
} kRuns[] = {{"a", 2000}, {"b", 1500}, {"c", 400}, {"d", 100}};

std::shared_ptr<Table> MakeClusteredTable() {
  auto table = std::make_shared<Table>("pt");
  auto seg = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto value = std::make_shared<Int64Column>();
  Rng rng(7);
  int64_t t = 0;
  for (const auto& run : kRuns) {
    for (size_t i = 0; i < run.rows; ++i) {
      seg->Append(run.seg);
      ts->Append(t++);
      value->Append(rng.Range(-50, 500));
    }
  }
  table->AddColumn("seg", seg);
  table->AddColumn("ts", ts);
  table->AddColumn("value", value);
  return table;
}

PlainSchema ClusteredSchema() {
  PlainSchema schema;
  schema.table_name = "pt";
  ValueDistribution dist;
  dist.values = {"a", "b", "c", "d"};
  dist.frequencies = {0.5, 0.375, 0.1, 0.025};
  schema.columns.push_back({"seg", ColumnType::kString, true, dist});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"value", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

std::vector<Query> ClusteredSamples() {
  std::vector<Query> samples;
  {
    // seg appears in GROUP BY too, so the planner gives it DET (SPLASHE
    // would swallow the filter into splayed columns — nothing to probe).
    Query q;
    q.table = "pt";
    q.Sum("value").Count();
    q.Where("seg", CmpOp::kEq, std::string("a"));
    q.GroupBy("seg");
    samples.push_back(q);
  }
  {
    Query q;
    q.table = "pt";
    q.Min("ts").Max("ts");
    q.Where("ts", CmpOp::kGe, int64_t{0});
    samples.push_back(q);
  }
  return samples;
}

SessionOptions ProbeSessionOptions(BackendKind backend, ProbeMode mode) {
  SessionOptions options;
  options.backend = backend;
  options.cluster = TestClusterConfig();
  options.planner.expected_rows = 4000;
  options.key_seed = 99;
  options.probe.mode = mode;
  options.probe.row_group_size = 256;
  return options;
}

std::shared_ptr<Table> MakeBatch(const std::string& seg_value, size_t rows, uint64_t seed) {
  auto batch = std::make_shared<Table>("pt");
  auto seg = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto value = std::make_shared<Int64Column>();
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    seg->Append(seg_value);
    ts->Append(static_cast<int64_t>(4000 + i));
    value->Append(rng.Range(0, 100));
  }
  batch->AddColumn("seg", seg);
  batch->AddColumn("ts", ts);
  batch->AddColumn("value", value);
  return batch;
}

// Satellite regression for the append-resync path: Refresh must re-compute
// the trailing *partial* group when an append lands inside it rather than
// only appending full new groups — a stale partial summary would keep
// pruning a group that now holds matches and silently drop rows.
TEST(RowGroupIndexTest, RefreshRecomputesThePartialLastGroupAfterMidGroupAppend) {
  auto v = std::make_shared<Int64Column>();
  for (int i = 0; i < 10; ++i) {
    v->Append(1);
  }
  Table table("t");
  table.AddColumn("v", v);

  RowGroupIndex index(8);  // groups [0,8) and the partial [8,10)
  index.Refresh(table);
  EXPECT_EQ(index.num_groups(), 2u);
  EXPECT_EQ(index.rows_summarized(), 10u);

  ServerPredicate pred;
  pred.kind = ServerPredicate::Kind::kPlainInt;
  pred.column = "v";
  pred.op = CmpOp::kEq;
  pred.int_operand = 5;
  ProbeSection probe;
  probe.predicates.push_back(pred);
  probe.prunable = true;
  EXPECT_TRUE(index.Prune(probe).surviving.empty());

  // Mid-group append: the new rows extend the partial group [8,10) to
  // [8,13) without starting a new one.
  for (int i = 0; i < 3; ++i) {
    v->Append(5);
  }
  index.Refresh(table);
  EXPECT_EQ(index.num_groups(), 2u);
  EXPECT_EQ(index.rows_summarized(), 13u);

  const RowGroupIndex::PruneResult pruned = index.Prune(probe);
  ASSERT_EQ(pruned.surviving.size(), 1u);
  EXPECT_EQ(pruned.surviving.front().begin, 8u);
  EXPECT_EQ(pruned.surviving.front().end, 13u);
  EXPECT_EQ(pruned.total_groups, 2u);
  EXPECT_EQ(pruned.pruned_groups, 1u);
}

std::shared_ptr<Table> MakeValueTable(size_t rows, int64_t value) {
  auto v = std::make_shared<Int64Column>();
  for (size_t i = 0; i < rows; ++i) {
    v->Append(value);
  }
  auto t = std::make_shared<Table>("t#enc");
  t->AddColumn("v", v);
  return t;
}

ProbeSection MakeEqProbe(int64_t operand) {
  ServerPredicate pred;
  pred.kind = ServerPredicate::Kind::kPlainInt;
  pred.column = "v";
  pred.op = CmpOp::kEq;
  pred.int_operand = operand;
  ProbeSection probe;
  probe.predicates.push_back(pred);
  probe.prunable = true;
  return probe;
}

// Regression for the table-swap staleness hole (formerly a server-registry
// reset): shard rebalancing re-encrypts a donor's remainder into a fresh,
// smaller table, and summaries built over the OLD object must not survive
// onto the replacement — if the replacement regrows PAST the old summarized
// count, stale summaries would keep pruning groups that now hold matches.
// With versioned snapshots the fix is structural: each fresh table object
// ships with a fresh VersionProbeIndex, so the old index (and its
// summaries) retires with the old version instead of being reset in place.
TEST(VersionProbeIndexTest, FreshIndexPerRebuiltTableDropsStaleSummaries) {
  const ProbeSection probe = MakeEqProbe(5);

  // Summaries built at 12 rows of value 1: everything prunes.
  const auto old_table = MakeValueTable(12, 1);
  VersionProbeIndex old_index;
  EXPECT_TRUE(old_index.Probe(*old_table, probe, 8).surviving.empty());
  EXPECT_EQ(old_index.builds(), 1u);

  // The rebalance shape: a 4-row replacement object with its own fresh
  // index, later grown past the old 12-row count with rows that DO match.
  const auto replacement = MakeValueTable(4, 1);
  VersionProbeIndex fresh_index;
  auto* v = static_cast<Int64Column*>(replacement->GetColumn("v").get());
  for (size_t i = 0; i < 8; ++i) {
    v->Append(5);
  }

  // The old index would report 12 rows summarized over the wrong object and
  // prune every group; the fresh one summarizes the replacement itself.
  const ServerProbeResult result = fresh_index.Probe(*replacement, probe, 8);
  EXPECT_EQ(result.total_groups, 2u);
  ASSERT_FALSE(result.surviving.empty());
  EXPECT_EQ(result.surviving.front().begin, 0u);
  EXPECT_EQ(result.surviving.back().end, 12u);
}

// Regression for the first-touch double-build race: two queries probing a
// freshly published version at the same group size used to both find the
// summaries missing and both pay the full summarization scan. The index
// builds under its own mutex now — whoever wins builds once, the racers
// find the summaries current and only prune. builds() is the witness.
TEST(VersionProbeIndexTest, ConcurrentFirstTouchProbesBuildExactlyOnce) {
  const auto table = MakeValueTable(4096, 1);
  const ProbeSection probe = MakeEqProbe(1);
  VersionProbeIndex index;

  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const ServerProbeResult result = index.Probe(*table, probe, 256);
      if (result.total_groups != 16 || result.surviving.size() != 1) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  // The version is immutable, so exactly one probe may pay the build; a
  // double build is the regression.
  EXPECT_EQ(index.builds(), 1u);

  // A second group size is a separate lazy build on the same version.
  index.Probe(*table, probe, 512);
  EXPECT_EQ(index.builds(), 2u);
  index.Probe(*table, probe, 512);
  EXPECT_EQ(index.builds(), 2u);
}

class ProbeTest : public ::testing::Test {
 protected:
  ProbeTest()
      : plain_(ProbeSessionOptions(BackendKind::kPlain, ProbeMode::kOff)),
        seabed_(ProbeSessionOptions(BackendKind::kSeabed, ProbeMode::kForced)) {
    const auto table = MakeClusteredTable();
    plain_.Attach(CloneTable(*table), ClusteredSchema(), ClusteredSamples());
    seabed_.Attach(CloneTable(*table), ClusteredSchema(), ClusteredSamples());
  }

  std::vector<std::string> Reference(const Query& q) {
    return RowsAsStrings(plain_.Execute(q));
  }

  Session plain_;
  Session seabed_;  // probe forced, 256-row groups (4000 rows -> 16 groups)
};

TEST_F(ProbeTest, ZeroMatchQueriesShortCircuitRoundTwo) {
  Query q;
  q.table = "pt";
  q.Sum("value", "total").Count("n");
  q.Where("seg", CmpOp::kEq, std::string("nope"));

  QueryStats stats;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &stats)), Reference(q));
  EXPECT_TRUE(stats.probe_used);
  EXPECT_GT(stats.row_groups_total, 0u);
  EXPECT_EQ(stats.row_groups_pruned, stats.row_groups_total);
  // Round two never ran: no scan job, no touched rows — only the probe.
  EXPECT_EQ(stats.job.num_tasks, 0u);
  EXPECT_EQ(stats.rows_touched, 0u);
  EXPECT_GT(stats.probe_seconds, 0.0);
}

TEST_F(ProbeTest, AllMatchQueriesPruneNothing) {
  Query q;
  q.table = "pt";
  q.Sum("value", "total");
  q.Where("ts", CmpOp::kGe, int64_t{0});

  QueryStats stats;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &stats)), Reference(q));
  EXPECT_TRUE(stats.probe_used);
  EXPECT_EQ(stats.row_groups_pruned, 0u);
  EXPECT_EQ(stats.row_groups_total, 16u);
  EXPECT_EQ(stats.rows_touched, 4000u);
  EXPECT_GT(stats.job.num_tasks, 0u);
}

TEST_F(ProbeTest, SelectiveQueriesPruneMostGroupsAndStillMatch) {
  // seg='d' is the last 100 rows: at most two 256-row groups straddle it.
  Query q;
  q.table = "pt";
  q.Sum("value", "total").Count("n");
  q.Where("seg", CmpOp::kEq, std::string("d"));

  QueryStats stats;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &stats)), Reference(q));
  EXPECT_TRUE(stats.probe_used);
  EXPECT_EQ(stats.row_groups_total, 16u);
  EXPECT_GE(stats.row_groups_pruned, 14u);
  EXPECT_EQ(stats.rows_touched, 100u);

  // An ORE range over the monotone ts column prunes via ciphertext min/max.
  Query range;
  range.table = "pt";
  range.Sum("value", "total");
  range.Where("ts", CmpOp::kLt, int64_t{300});
  QueryStats range_stats;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(range, &range_stats)), Reference(range));
  EXPECT_TRUE(range_stats.probe_used);
  EXPECT_GE(range_stats.row_groups_pruned, 13u);
  EXPECT_EQ(range_stats.rows_touched, 300u);

  // Pruned scans agree on GROUP BY too (group keys live outside the probe).
  Query grouped = q;
  grouped.GroupBy("seg");
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(grouped)), Reference(grouped));
}

TEST_F(ProbeTest, SummariesStayCorrectAcrossAppend) {
  Query q;
  q.table = "pt";
  q.Sum("value", "total").Count("n");
  q.Where("seg", CmpOp::kEq, std::string("e"));

  // Before the append 'e' matches nothing and every group prunes.
  QueryStats before;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &before)), Reference(q));
  EXPECT_EQ(before.row_groups_pruned, before.row_groups_total);

  // Two odd-sized appends: the first leaves a partial trailing group, which
  // the second must re-summarize — a summary that went stale here would
  // keep pruning groups that now hold 'e' rows and silently drop them.
  for (uint64_t round = 0; round < 2; ++round) {
    const auto batch = MakeBatch("e", 90, 1000 + round);
    plain_.Append("pt", *batch);
    seabed_.Append("pt", *batch);
  }

  QueryStats after;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &after)), Reference(q));
  EXPECT_TRUE(after.probe_used);
  EXPECT_EQ(after.rows_touched, 180u);
  EXPECT_GT(after.row_groups_total, before.row_groups_total);
  EXPECT_LT(after.row_groups_pruned, after.row_groups_total);

  // Pre-append segments still answer correctly over the grown index.
  Query old_seg;
  old_seg.table = "pt";
  old_seg.Sum("value", "total");
  old_seg.Where("seg", CmpOp::kEq, std::string("d"));
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(old_seg)), Reference(old_seg));
}

TEST_F(ProbeTest, StatsInvariantsAcrossModes) {
  Query q;
  q.table = "pt";
  q.Sum("value", "total");
  q.Where("seg", CmpOp::kEq, std::string("c"));

  ProbeOptions popts = seabed_.probe_options();

  popts.mode = ProbeMode::kOff;
  seabed_.set_probe_options(popts);
  QueryStats off;
  const auto off_rows = RowsAsStrings(seabed_.Execute(q, &off));
  EXPECT_FALSE(off.probe_used);
  EXPECT_EQ(off.probe_seconds, 0.0);
  EXPECT_EQ(off.row_groups_total, 0u);
  EXPECT_EQ(off.row_groups_pruned, 0u);

  popts.mode = ProbeMode::kForced;
  seabed_.set_probe_options(popts);
  QueryStats forced;
  EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &forced)), off_rows);
  EXPECT_TRUE(forced.probe_used);
  EXPECT_LE(forced.row_groups_pruned, forced.row_groups_total);
  // Pruning only skips groups with no match, so the predicate-surviving row
  // count is identical with and without the probe.
  EXPECT_EQ(forced.rows_touched, off.rows_touched);

  // A query with nothing to prune never probes, even when forced.
  Query unfiltered;
  unfiltered.table = "pt";
  unfiltered.Sum("value", "total");
  QueryStats none;
  seabed_.Execute(unfiltered, &none);
  EXPECT_FALSE(none.probe_used);
}

TEST_F(ProbeTest, AutoModeGatesOnSelectivityEstimate) {
  ProbeOptions popts = seabed_.probe_options();
  popts.mode = ProbeMode::kAuto;
  popts.auto_selectivity_threshold = 0.25;
  seabed_.set_probe_options(popts);

  auto run = [&](const Query& q) {
    QueryStats stats;
    EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &stats)), Reference(q));
    return stats;
  };

  // seg='d' has distribution frequency 0.025 <= 0.25: probe.
  Query selective;
  selective.table = "pt";
  selective.Sum("value", "total");
  selective.Where("seg", CmpOp::kEq, std::string("d"));
  EXPECT_TRUE(run(selective).probe_used);

  // seg='a' has frequency 0.5: the estimate predicts no win, decline.
  Query broad = selective;
  broad.filters[0].operand = std::string("a");
  EXPECT_FALSE(run(broad).probe_used);

  // ts has no distribution, so the range default (0.5) declines too...
  Query range;
  range.table = "pt";
  range.Sum("value", "total");
  range.Where("ts", CmpOp::kGe, int64_t{3900});
  EXPECT_FALSE(run(range).probe_used);

  // ...unless the client hints the two-round path explicitly.
  range.needs_two_round_trips = true;
  EXPECT_TRUE(run(range).probe_used);
}

// A client two-round hint on kSeabed — the sharded engine at one shard —
// must leave the probe decision to the row-group index, exactly as a single
// server decides it: a shard-level count round over the one shard would
// report probe_used with a "row group" per shard, even under kOff and on
// plans with nothing to prune. Expected values were captured from the
// dedicated single-server backend before kSeabed became the one-shard engine.
TEST_F(ProbeTest, TwoRoundHintOnOneServerKeepsRowGroupDecision) {
  Query selective;
  selective.table = "pt";
  selective.Sum("value", "total").Count("n");
  selective.Where("seg", CmpOp::kEq, std::string("d"));
  Query zero = selective;
  zero.filters[0].operand = std::string("nope");
  Query unfiltered;
  unfiltered.table = "pt";
  unfiltered.Sum("value", "total");

  struct Case {
    ProbeMode mode;
    const Query* query;
    bool probe_used;
    uint64_t row_groups_total;
    uint64_t row_groups_pruned;
  };
  const Case cases[] = {
      {ProbeMode::kOff, &selective, false, 0, 0},
      {ProbeMode::kOff, &zero, false, 0, 0},
      {ProbeMode::kOff, &unfiltered, false, 0, 0},
      {ProbeMode::kAuto, &selective, true, 16, 15},
      {ProbeMode::kAuto, &zero, true, 16, 16},
      {ProbeMode::kAuto, &unfiltered, false, 0, 0},
      {ProbeMode::kForced, &selective, true, 16, 15},
      {ProbeMode::kForced, &zero, true, 16, 16},
      {ProbeMode::kForced, &unfiltered, false, 0, 0},
  };
  ProbeOptions popts = seabed_.probe_options();
  for (const Case& c : cases) {
    Query q = *c.query;
    q.needs_two_round_trips = true;
    SCOPED_TRACE(std::string(ProbeModeName(c.mode)) + " " + q.Fingerprint());
    popts.mode = c.mode;
    seabed_.set_probe_options(popts);
    QueryStats stats;
    EXPECT_EQ(RowsAsStrings(seabed_.Execute(q, &stats)), Reference(q));
    EXPECT_EQ(stats.probe_used, c.probe_used);
    EXPECT_EQ(stats.row_groups_total, c.row_groups_total);
    EXPECT_EQ(stats.row_groups_pruned, c.row_groups_pruned);
  }
}

// --- probe-forced mini-fuzz (the sanitize job's cross-backend subset) --------

class ProbeForcedMiniFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProbeForcedMiniFuzz, ProbedBackendsMatchPlainWithAppendsInterleaved) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  const auto table = MakeClusteredTable();
  const PlainSchema schema = ClusteredSchema();
  const std::vector<Query> samples = ClusteredSamples();

  struct Backend {
    std::string label;
    std::unique_ptr<Session> session;
  };
  std::vector<Backend> backends;
  backends.push_back(
      {"plain", std::make_unique<Session>(ProbeSessionOptions(BackendKind::kPlain,
                                                              ProbeMode::kOff))});
  for (const ProbeMode mode : {ProbeMode::kOff, ProbeMode::kAuto, ProbeMode::kForced}) {
    backends.push_back(
        {std::string("seabed-") + ProbeModeName(mode),
         std::make_unique<Session>(ProbeSessionOptions(BackendKind::kSeabed, mode))});
  }
  {
    SessionOptions options = ProbeSessionOptions(BackendKind::kShardedSeabed, ProbeMode::kForced);
    options.shards = 3;
    backends.push_back({"sharded-forced", std::make_unique<Session>(std::move(options))});
  }
  {
    // Rebalancing in the fast tier, so the sanitizer job covers row-group
    // migration: a tight ratio + small groups makes the interleaved appends
    // below actually trigger moves.
    SessionOptions options = ProbeSessionOptions(BackendKind::kShardedSeabed, ProbeMode::kForced);
    options.shards = 3;
    options.shards_rebalance.enabled = true;
    options.shards_rebalance.max_skew_ratio = 1.2;
    options.shards_rebalance.row_group_size = 64;
    backends.push_back({"sharded-rebal", std::make_unique<Session>(std::move(options))});
  }
  for (Backend& b : backends) {
    b.session->Attach(CloneTable(*table), schema, samples);
  }

  const char* segs[] = {"a", "b", "c", "d", "e"};
  for (int trial = 0; trial < 10; ++trial) {
    // The Execute API gives appends no seam between round one and round two
    // of a single query, so the adversarial interleaving is append-between-
    // queries: stale summaries from the pre-append probes must not leak
    // into post-append answers.
    if (trial == 4 || trial == 7) {
      const auto batch = MakeBatch(segs[rng.Below(5)], 30 + rng.Below(80), seed * 10 + trial);
      for (Backend& b : backends) {
        b.session->Append("pt", *batch);
      }
    }

    Query q;
    q.table = "pt";
    const size_t num_aggs = 1 + rng.Below(2);
    for (size_t a = 0; a < num_aggs; ++a) {
      const std::string alias = "agg" + std::to_string(a);
      switch (rng.Below(3)) {
        case 0:
          q.Sum("value", alias);
          break;
        case 1:
          q.Count(alias);
          break;
        default:
          q.Avg("value", alias);
          break;
      }
    }
    if (rng.Chance(0.7)) {
      q.Where("seg", CmpOp::kEq, std::string(segs[rng.Below(5)]));
    }
    if (rng.Chance(0.5)) {
      const int64_t bound = static_cast<int64_t>(rng.Below(4200));
      q.Where("ts", rng.Chance(0.5) ? CmpOp::kGe : CmpOp::kLt, bound);
    }
    if (rng.Chance(0.3)) {
      q.GroupBy("seg");
    }
    q.needs_two_round_trips = rng.Chance(0.2);

    SCOPED_TRACE("seed=" + std::to_string(seed) + " trial=" + std::to_string(trial));
    const std::vector<std::string> reference =
        RowsAsStrings(backends.front().session->Execute(q, nullptr));
    for (size_t b = 1; b < backends.size(); ++b) {
      SCOPED_TRACE("backend=" + backends[b].label);
      EXPECT_EQ(RowsAsStrings(backends[b].session->Execute(q, nullptr)), reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeForcedMiniFuzz, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace seabed
