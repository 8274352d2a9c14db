// "Figure 13" (beyond the paper): skew-aware shard rebalancing and
// intra-shard row-group pruning on the scale-out backend.
//
// Appends place whole batches on the shard owning the batch's first global
// row (append locality), so a skewed stream concentrates rows on one shard
// and the fan-out's critical path degrades toward a single hot server. This
// bench drives a 10x-skewed stream — every batch steered onto one placement
// bucket — into two sharded sessions, rebalancing off vs. on
// (SessionOptions::shards_rebalance), and gates two claims:
//
//   * REBALANCE: after the stream, the rebalanced fleet's median
//     server_seconds on a full-scan aggregate must be >= 2x better than the
//     unbalanced fleet's — the hot shard holds most of the table, so its
//     scan dominates the unbalanced critical path;
//   * INTRA-SHARD PRUNING: at <= 1% selectivity a forced probe must prune
//     row groups *inside* surviving shards (row_groups_pruned > 0 with
//     row-group, not shard, granularity) and return rows identical to the
//     plaintext reference.
//
// Cluster job/task overheads and the client link latency are zeroed as in
// bench_fig12_probe: both sessions pay identical constants, and at smoke
// scale those constants would swamp the scan-time ratio the gate measures.
//
// The stream is append-encrypted batch by batch and every rebalance
// re-encrypts the donor remainder, so table construction — not the measured
// queries — dominates the runtime: about 1.2 s per million rows and 180 MB
// peak RSS per million rows (4-vCPU Xeon, RelWithDebInfo).
//
// Exit status is the CI gate: nonzero when either claim fails.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/seabed/sharded_backend.h"

namespace seabed {
namespace {

constexpr size_t kShards = 4;

// Segment frequencies (also the planner's ValueDistribution): contiguous
// runs, so the 0.1% segment occupies one short stretch of row groups.
constexpr struct {
  const char* seg;
  double frequency;
} kSegments[] = {
    {"s0", 0.001}, {"s1", 0.009}, {"s2", 0.04}, {"s3", 0.25}, {"s4", 0.70},
};

std::shared_ptr<Table> MakeClusteredTable(uint64_t rows) {
  auto table = std::make_shared<Table>("sweep");
  auto seg = std::make_shared<StringColumn>();
  auto value = std::make_shared<Int64Column>();
  Rng rng(1337);
  size_t emitted = 0;
  for (const auto& s : kSegments) {
    const size_t run = &s == &kSegments[std::size(kSegments) - 1]
                           ? rows - emitted
                           : static_cast<size_t>(static_cast<double>(rows) * s.frequency);
    for (size_t i = 0; i < run; ++i) {
      seg->Append(s.seg);
      value->Append(rng.Range(0, 1000));
    }
    emitted += run;
  }
  table->AddColumn("seg", seg);
  table->AddColumn("value", value);
  return table;
}

// Copies rows [begin, end) of the clustered table into a fresh batch.
std::shared_ptr<Table> Slice(const Table& src, size_t begin, size_t end) {
  auto out = std::make_shared<Table>("sweep");
  const auto* seg = static_cast<const StringColumn*>(src.GetColumn("seg").get());
  const auto* value = static_cast<const Int64Column*>(src.GetColumn("value").get());
  auto seg_out = std::make_shared<StringColumn>();
  auto value_out = std::make_shared<Int64Column>();
  for (size_t row = begin; row < end; ++row) {
    seg_out->Append(seg->Get(row));
    value_out->Append(value->Get(row));
  }
  out->AddColumn("seg", seg_out);
  out->AddColumn("value", value_out);
  return out;
}

PlainSchema SweepSchema() {
  PlainSchema schema;
  schema.table_name = "sweep";
  ValueDistribution dist;
  for (const auto& s : kSegments) {
    dist.values.push_back(s.seg);
    dist.frequencies.push_back(s.frequency);
  }
  schema.columns.push_back({"seg", ColumnType::kString, true, dist});
  schema.columns.push_back({"value", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

std::vector<Query> SweepSamples() {
  std::vector<Query> samples;
  // seg appears in a GROUP BY so the planner realizes it with DET rather
  // than SPLASHE — a splayed filter leaves no server predicate to probe.
  Query q;
  q.table = "sweep";
  q.Sum("value").Count();
  q.Where("seg", CmpOp::kEq, std::string("s0"));
  q.GroupBy("seg");
  samples.push_back(q);
  return samples;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Order-insensitive row digest (doubles rounded), so encrypted pipelines
// compare equal to the plaintext reference regardless of group order.
std::vector<std::string> RowsKey(const ResultSet& r) {
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

SessionOptions MakeOptions(BackendKind backend, uint64_t rows, bool rebalance,
                           size_t row_group_size) {
  SessionOptions options;
  options.backend = backend;
  options.shards = kShards;
  options.cluster.num_workers = 4;
  options.cluster.job_overhead_seconds = 0;
  options.cluster.task_overhead_seconds = 0;
  options.cluster.client_link.latency_seconds = 0;
  options.planner.expected_rows = rows;
  options.probe.row_group_size = row_group_size;
  if (rebalance) {
    options.shards_rebalance.enabled = true;
    options.shards_rebalance.max_skew_ratio = 1.25;
    options.shards_rebalance.row_group_size = row_group_size;
  }
  return options;
}

int Main() {
  // Floor of 4M rows: the unbalanced fleet's full scan must take
  // milliseconds, or the 2x gate measures host-timer noise. At the old 50k
  // floor the compared scans took 7-35 us and the gate read 0.2-1.7x; at 2M
  // the unbalanced scan took ~0.6 ms; at 4M (hot shard 3.7M rows) it takes
  // ~1.5-3 ms. The smoke run's 20k is raised too; the bench then takes ~5 s
  // and ~730 MB.
  const uint64_t rows = std::max<uint64_t>(4000000, EnvU64("SEABED_BENCH_ROWS", 4000000));
  // Nine turns per fleet: the rebalanced scan takes ~0.4 ms, so one host
  // hiccup moves a single sample by 2x; the median of nine rides it out.
  const uint64_t repeat = std::max<uint64_t>(3, EnvU64("SEABED_BENCH_REPEAT", 9));
  const size_t row_group_size = 1024;
  BenchRecorder recorder("fig13_rebalance");

  const auto data = MakeClusteredTable(rows);
  const PlainSchema schema = SweepSchema();
  const std::vector<Query> samples = SweepSamples();

  Session plain(MakeOptions(BackendKind::kPlain, rows, false, row_group_size));
  Session unbalanced(MakeOptions(BackendKind::kShardedSeabed, rows, false, row_group_size));
  Session rebalanced(MakeOptions(BackendKind::kShardedSeabed, rows, true, row_group_size));
  std::vector<Session*> sessions = {&plain, &unbalanced, &rebalanced};

  // ~10% of the table attaches (hash-partitioned, balanced); the rest
  // arrives as an append stream steered onto one placement bucket. Fillers
  // are 1-row slices of the same stream, so the final logical table equals
  // the clustered table no matter how placement chopped it.
  const size_t seed_rows = rows / 10;
  for (Session* s : sessions) {
    s->Attach(Slice(*data, 0, seed_rows), schema, samples);
  }
  const auto& placement = static_cast<const ShardedSeabedBackend&>(unbalanced.executor());
  const size_t hot = placement.ShardOfRow(seed_rows);
  const size_t batch_rows = std::max<size_t>(1, rows / 16);
  size_t cursor = seed_rows;
  while (cursor < rows) {
    size_t take = 1;  // a filler: advance placement toward the hot bucket
    if (placement.ShardOfRow(cursor) == hot) {
      take = std::min<size_t>(batch_rows, rows - cursor);
    }
    const auto batch = Slice(*data, cursor, cursor + take);
    for (Session* s : sessions) {
      s->Append("sweep", *batch);
    }
    cursor += take;
  }

  auto& unbalanced_backend = static_cast<ShardedSeabedBackend&>(unbalanced.executor());
  auto& rebalanced_backend = static_cast<ShardedSeabedBackend&>(rebalanced.executor());
  const std::vector<size_t> skewed = unbalanced_backend.ShardRowCounts("sweep");
  const std::vector<size_t> balanced = rebalanced_backend.ShardRowCounts("sweep");
  const RebalanceStats moves = *rebalanced.rebalance_stats();

  std::printf("=== Figure 13: skew-aware rebalancing + intra-shard pruning "
              "(rows=%llu, shards=%zu, repeat=%llu, row groups of %zu) ===\n",
              static_cast<unsigned long long>(rows), kShards,
              static_cast<unsigned long long>(repeat), row_group_size);
  std::printf("%-12s", "unbalanced:");
  for (const size_t c : skewed) {
    std::printf(" %9zu", c);
  }
  std::printf("\n%-12s", "rebalanced:");
  for (const size_t c : balanced) {
    std::printf(" %9zu", c);
  }
  std::printf("\nrebalances=%llu row_groups_moved=%llu rows_moved=%llu "
              "rows_reencrypted=%llu migrate_seconds=%.3f\n",
              static_cast<unsigned long long>(moves.rebalances),
              static_cast<unsigned long long>(moves.row_groups_moved),
              static_cast<unsigned long long>(moves.rows_moved),
              static_cast<unsigned long long>(moves.rows_reencrypted), moves.seconds);

  bool gate_failed = false;

  // --- claim 1: the rebalanced fan-out is >= 2x faster on a full scan ---------
  Query scan;
  scan.table = "sweep";
  scan.Sum("value", "total").Count("n");
  const std::vector<std::string> reference = RowsKey(plain.Execute(scan, nullptr));
  struct Fleet {
    const char* label;
    Session* session;
  };
  const Fleet fleets[] = {{"unbalanced", &unbalanced}, {"rebalanced", &rebalanced}};
  for (const Fleet& fleet : fleets) {
    fleet.session->Execute(scan, nullptr);  // untimed warm-up (pool spin-up)
  }
  // The fleets take turns within each repetition, so host load that drifts
  // during the runs lands on both alike.
  std::vector<double> seconds[std::size(fleets)];
  for (uint64_t r = 0; r < repeat; ++r) {
    for (size_t f = 0; f < std::size(fleets); ++f) {
      QueryStats stats;
      const ResultSet result = fleets[f].session->Execute(scan, &stats);
      if (RowsKey(result) != reference) {
        std::printf("REGRESSION: %s full scan diverged from kPlain\n", fleets[f].label);
        gate_failed = true;
      }
      seconds[f].push_back(stats.server_seconds);
      if (EnvU64("SEABED_BENCH_DEBUG", 0) != 0) {
        double max_shard = 0;
        for (const double s : stats.shard_server_seconds) {
          max_shard = std::max(max_shard, s);
        }
        std::printf("  [%s] server=%.6f job=%.6f merge=%.6f max_shard=%.6f tasks=%zu shards=[",
                    fleets[f].label, stats.server_seconds, stats.job.server_seconds,
                    stats.merge_seconds, max_shard, stats.job.num_tasks);
        for (const double s : stats.shard_server_seconds) {
          std::printf(" %.6f", s);
        }
        std::printf(" ]\n");
      }
      recorder.AddStats(fleets[f].label, {{"skew", 10.0}}, stats);
    }
  }
  const double medians[] = {Median(std::move(seconds[0])), Median(std::move(seconds[1]))};
  const double speedup = medians[1] > 0 ? medians[0] / medians[1] : 0;
  std::printf("full scan server_seconds: unbalanced=%.6f rebalanced=%.6f (%.1fx)\n",
              medians[0], medians[1], speedup);
  if (speedup < 2.0) {
    std::printf("REGRESSION: rebalanced fan-out is only %.2fx faster than unbalanced "
                "(>= 2x required)\n", speedup);
    gate_failed = true;
  }

  // --- claim 2: intra-shard pruning at <= 1% selectivity ----------------------
  const struct {
    const char* seg;
    double selectivity;
  } kSelective[] = {{"s0", 0.001}, {"s1", 0.009}};
  for (const auto& point : kSelective) {
    Query q;
    q.table = "sweep";
    q.Sum("value", "total").Count("n");
    q.Where("seg", CmpOp::kEq, std::string(point.seg));
    const std::vector<std::string> expect = RowsKey(plain.Execute(q, nullptr));

    ProbeOptions popts = rebalanced.probe_options();
    popts.mode = ProbeMode::kForced;
    rebalanced.set_probe_options(popts);
    QueryStats stats;
    const ResultSet result = rebalanced.Execute(q, &stats);
    popts.mode = ProbeMode::kOff;
    rebalanced.set_probe_options(popts);

    recorder.AddStats("pruning-forced",
                      {{"selectivity", point.selectivity},
                       {"row_groups_pruned", static_cast<double>(stats.row_groups_pruned)},
                       {"row_groups_total", static_cast<double>(stats.row_groups_total)}},
                      stats);
    std::printf("seg=%s forced probe: pruned %llu/%llu row groups, rows_touched=%llu\n",
                point.seg, static_cast<unsigned long long>(stats.row_groups_pruned),
                static_cast<unsigned long long>(stats.row_groups_total),
                static_cast<unsigned long long>(stats.rows_touched));
    if (RowsKey(result) != expect) {
      std::printf("REGRESSION: seg=%s pruned scan diverged from kPlain\n", point.seg);
      gate_failed = true;
    }
    if (!stats.probe_used || stats.row_groups_pruned == 0 ||
        stats.row_groups_total <= kShards) {
      std::printf("REGRESSION: seg=%s did not prune row groups inside shards "
                  "(probed=%d, %llu/%llu)\n", point.seg, stats.probe_used ? 1 : 0,
                  static_cast<unsigned long long>(stats.row_groups_pruned),
                  static_cast<unsigned long long>(stats.row_groups_total));
      gate_failed = true;
    }
  }
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace seabed

int main() { return seabed::Main(); }
