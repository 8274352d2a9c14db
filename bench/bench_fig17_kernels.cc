// "Figure 17" (beyond the paper): the server's vectorized scan kernels.
//
// Server::Execute evaluates encrypted predicates a row group at a time
// (src/seabed/scan_kernels.h): each predicate fills a selection bitmap with
// SIMD compares over the contiguous ciphertext columns — DET tokens and plain
// int64s 2-4 rows per compare, ORE via one 16-byte equality that finds the
// first differing u-slot byte in a single instruction instead of a byte walk.
// A join runs on the same kernels: the right table's predicates filter its
// rows before they enter the DET hash index, and the fact scan probes that
// index with the rows that survive the fact-side predicates.
//
// This bench runs filter queries single-threaded and records each point's
// server time as a regression record (scripts/compare_bench.py gates it
// against bench/baseline/). Points: a DET equality, an ORE range, the two
// combined, an ASHE sum over the DET selection, and a DET join under a
// selective fact-side ORE window with one plain right-table filter — all
// low-selectivity (0.1-3%), so they time the filter. Then the aggregation
// half, under one 50% ORE window: COUNT, SUM and SUM ... GROUP BY a DET
// column; and a join whose fact rows meet several right rows each, with a
// fact-side and a right-side SUM.
//
// Single worker and zeroed cluster/link overheads: the kernels set per-row
// scan cost, and fixed dispatch constants would only dilute it.
//
// Exit status is the correctness gate: every point's answer and rows_touched
// must equal a kPlain session's over the same tables.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/seabed/scan_kernels.h"

namespace seabed {
namespace {

// ts values cluster in a narrow band above this pivot (like timestamps in
// one epoch): ORE ciphertexts of nearby plaintexts share long prefixes,
// which is exactly where the scalar byte-walk comparison is slowest.
constexpr int64_t kTsPivot = 1'600'000'000;
constexpr int64_t kTsSpan = 1 << 20;

// seg frequencies, published to the planner as the ValueDistribution.
constexpr struct {
  const char* seg;
  double frequency;
} kSegments[] = {
    {"rare", 0.001}, {"s1", 0.049}, {"s2", 0.15}, {"s3", 0.30}, {"s4", 0.50},
};

// Join keys of the fact table are drawn from [0, kFactKeys); the right table
// repeats keys and also holds keys in [kFactKeys, kDimKeys) that match nothing.
constexpr int64_t kFactKeys = 10000;
constexpr int64_t kDimKeys = 12000;
constexpr size_t kDimRows = 20000;

std::shared_ptr<Table> MakeTable(uint64_t rows) {
  auto table = std::make_shared<Table>("scan");
  auto seg = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto value = std::make_shared<Int64Column>();
  auto key = std::make_shared<Int64Column>();
  Rng rng(1717);
  Rng key_rng(1718);  // own stream: the other columns match earlier records
  for (uint64_t i = 0; i < rows; ++i) {
    double draw = rng.NextDouble();
    const char* chosen = kSegments[std::size(kSegments) - 1].seg;
    for (const auto& s : kSegments) {
      if (draw < s.frequency) {
        chosen = s.seg;
        break;
      }
      draw -= s.frequency;
    }
    seg->Append(chosen);
    ts->Append(kTsPivot + rng.Range(0, kTsSpan - 1));
    value->Append(rng.Range(0, 1000));
    key->Append(static_cast<int64_t>(key_rng.Below(kFactKeys)));
  }
  table->AddColumn("seg", seg);
  table->AddColumn("ts", ts);
  table->AddColumn("value", value);
  table->AddColumn("key", key);
  return table;
}

std::shared_ptr<Table> MakeDimTable() {
  auto table = std::make_shared<Table>("dims");
  auto key = std::make_shared<Int64Column>();
  auto w = std::make_shared<Int64Column>();
  auto score = std::make_shared<Int64Column>();
  Rng rng(1719);
  Rng score_rng(1720);  // own stream: key and w match earlier records
  for (size_t i = 0; i < kDimRows; ++i) {
    key->Append(static_cast<int64_t>(rng.Below(kDimKeys)));
    w->Append(static_cast<int64_t>(rng.Below(100)));
    score->Append(static_cast<int64_t>(score_rng.Below(1000)));
  }
  table->AddColumn("key", key);
  table->AddColumn("w", w);
  table->AddColumn("score", score);
  return table;
}

PlainSchema ScanSchema() {
  PlainSchema schema;
  schema.table_name = "scan";
  ValueDistribution dist;
  for (const auto& s : kSegments) {
    dist.values.push_back(s.seg);
    dist.frequencies.push_back(s.frequency);
  }
  schema.columns.push_back({"seg", ColumnType::kString, true, dist});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"value", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

PlainSchema DimSchema() {
  PlainSchema schema;
  schema.table_name = "dims";
  schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"w", ColumnType::kInt64, false, std::nullopt});
  schema.columns.push_back({"score", ColumnType::kInt64, true, std::nullopt});
  return schema;
}

// The join point: a DET join under a selective (~0.1%) fact-side ORE window,
// with one plain filter on the right table.
Query JoinQuery() {
  Query q;
  q.table = "scan";
  q.join = Join{"dims", "key", "right:key"};
  q.Sum("value", "total").Count("n");
  q.Where("ts", CmpOp::kLt, kTsPivot + kTsSpan / 1024);
  q.Where("right:w", CmpOp::kLt, int64_t{50});
  return q;
}

// The join-multiplicity point: the same ORE window, no right-side filter,
// so every fact key meets all of its right rows (1.67 on average, up to ~8):
// the fact-side sum's ids repeat per match, and the right-side sum's ids
// arrive in probe order.
Query JoinMultiplicityQuery() {
  Query q;
  q.table = "scan";
  q.join = Join{"dims", "key", "right:key"};
  q.Sum("value", "total").Sum("right:score", "score").Count("n");
  q.Where("ts", CmpOp::kLt, kTsPivot + kTsSpan / 1024);
  return q;
}

// The 50% ORE window of the aggregation-half points.
constexpr int64_t kTsHalf = kTsPivot + kTsSpan / 2;

std::vector<Query> ScanSamples() {
  // seg in a GROUP BY -> DET (a SPLASHE-splayed filter leaves no server
  // predicate to vectorize); a range filter on ts -> ORE; Sum(value) -> ASHE;
  // the join key -> DET under the join's shared key.
  std::vector<Query> samples;
  Query q;
  q.table = "scan";
  q.Sum("value").Count();
  q.Where("seg", CmpOp::kEq, std::string("rare"));
  q.Where("ts", CmpOp::kLt, kTsPivot + 1000);
  q.GroupBy("seg");
  samples.push_back(q);
  samples.push_back(JoinQuery());
  samples.push_back(JoinMultiplicityQuery());
  return samples;
}

std::vector<Query> DimSamples() {
  Query q;
  q.table = "dims";
  q.join = Join{"scan", "key", "right:key"};
  q.Count("n").Sum("score");
  return {q};
}

struct Point {
  const char* label;
  Query query;
};

std::vector<Point> Points() {
  std::vector<Point> points;
  {
    // Selective DET equality (~0.1%): the pure 64-bit token compare kernel.
    Query q;
    q.table = "scan";
    q.Count("n");
    q.Where("seg", CmpOp::kEq, std::string("rare"));
    points.push_back({"det_eq", std::move(q)});
  }
  {
    // Selective ORE range (~0.1%): the 16-byte first-differing-slot kernel.
    Query q;
    q.table = "scan";
    q.Count("n");
    q.Where("ts", CmpOp::kLt, kTsPivot + kTsSpan / 1024);
    points.push_back({"ore_lt", std::move(q)});
  }
  {
    // Compound: DET kills ~99.9% of each row group first, the ORE kernel
    // then skips the dead words entirely.
    Query q;
    q.table = "scan";
    q.Count("n");
    q.Where("seg", CmpOp::kEq, std::string("rare"));
    q.Where("ts", CmpOp::kLt, kTsPivot + kTsSpan / 4);
    points.push_back({"det+ore", std::move(q)});
  }
  {
    // End-to-end ASHE sum over the DET selection (adds ID-list encoding and
    // client decryption to the scan).
    Query q;
    q.table = "scan";
    q.Sum("value", "total");
    q.Where("seg", CmpOp::kEq, std::string("rare"));
    points.push_back({"sum", std::move(q)});
  }
  points.push_back({"join", JoinQuery()});
  // The aggregation half: one 50% ORE window, then COUNT (a popcount per
  // bitmap word), SUM (a masked sum plus the bitmap's set-bit runs as the ID
  // list) and SUM ... GROUP BY a DET column (group ordinals per row).
  {
    Query q;
    q.table = "scan";
    q.Count("n");
    q.Where("ts", CmpOp::kLt, kTsHalf);
    points.push_back({"half_cnt", std::move(q)});
  }
  {
    Query q;
    q.table = "scan";
    q.Sum("value", "total");
    q.Where("ts", CmpOp::kLt, kTsHalf);
    points.push_back({"half_sum", std::move(q)});
  }
  {
    Query q;
    q.table = "scan";
    q.Sum("value", "total");
    q.Where("ts", CmpOp::kLt, kTsHalf);
    q.GroupBy("seg");
    points.push_back({"half_grp", std::move(q)});
  }
  points.push_back({"join_k", JoinMultiplicityQuery()});
  return points;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

SessionOptions ScanSessionOptions(BackendKind backend, uint64_t rows) {
  SessionOptions options;
  options.backend = backend;
  // Single worker: the record measures single-thread scan throughput; more
  // workers would divide it by a constant and add dispatch jitter.
  options.cluster.num_workers = 1;
  options.cluster.job_overhead_seconds = 0;
  options.cluster.task_overhead_seconds = 0;
  options.cluster.client_link.latency_seconds = 0;
  options.planner.expected_rows = rows;
  // Probe pruning would shrink the very scan under test.
  options.probe.mode = ProbeMode::kOff;
  return options;
}

int Main() {
  // Floor of 200k rows: the scan of a smoke-sized 20k-row table finishes in
  // single-digit microseconds, below timer noise.
  const uint64_t rows = std::max<uint64_t>(200000, EnvU64("SEABED_BENCH_ROWS", 2000000));
  const uint64_t repeat = std::max<uint64_t>(5, EnvU64("SEABED_BENCH_REPEAT", 5));
  BenchRecorder recorder("fig17_kernels");

  Session session(ScanSessionOptions(BackendKind::kSeabed, rows));
  Session plain(ScanSessionOptions(BackendKind::kPlain, rows));
  const auto table = MakeTable(rows);
  const auto dims = MakeDimTable();
  for (Session* s : {&session, &plain}) {
    s->Attach(table, ScanSchema(), ScanSamples());
    s->Attach(dims, DimSchema(), DimSamples());
  }

  std::printf("=== Figure 17: vectorized scan kernels "
              "(rows=%llu, repeat=%llu, isa=%s, 1 worker) ===\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(repeat), ScanKernelIsaName());
  std::printf("%-8s %14s %12s %8s\n", "point", "server(s)", "touched", "check");

  bool failed = false;
  const std::vector<Point> points = Points();
  for (const Point& point : points) {
    QueryStats reference_stats;
    const ResultSet reference = plain.Execute(point.query, &reference_stats);
    const ResultSet answer = session.Execute(point.query, nullptr);  // untimed warm-up
    std::vector<double> server;
    uint64_t touched = 0;
    for (uint64_t r = 0; r < repeat; ++r) {
      QueryStats stats;
      session.Execute(point.query, &stats);
      server.push_back(stats.server_seconds);
      touched = stats.rows_touched;
      recorder.AddStats("vectorized", {{"point", static_cast<double>(&point - points.data())}},
                        stats);
    }
    const bool correct = answer.rows == reference.rows && touched == reference_stats.rows_touched;
    std::printf("%-8s %14.6f %12llu %8s\n", point.label, Median(std::move(server)),
                static_cast<unsigned long long>(touched), correct ? "ok" : "FAIL");
    if (!correct) {
      std::printf("REGRESSION: %s touched %llu rows vs %llu on kPlain%s\n", point.label,
                  static_cast<unsigned long long>(touched),
                  static_cast<unsigned long long>(reference_stats.rows_touched),
                  answer.rows == reference.rows ? "" : " (answers differ)");
      failed = true;
    }
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace seabed

int main() { return seabed::Main(); }
