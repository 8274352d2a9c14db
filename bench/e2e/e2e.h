// Shared pieces of the end-to-end benchmark driver: run options, metric
// output, wall-clock helpers, nearest-rank percentiles, answer checks, and the
// in-memory span recorder behind a traced run.
//
// Every time the driver reports is std::chrono::steady_clock wall time taken
// around a public call. The modeled cluster quantities (QueryStats::
// server_seconds / network_seconds / job / TotalSeconds(), JobStats,
// ServiceOptions::pace_modeled_latency) are never read or enabled.
#ifndef SEABED_BENCH_E2E_E2E_H_
#define SEABED_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/table.h"
#include "src/query/query.h"
#include "src/seabed/encryptor.h"

namespace seabed::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured window
  double warmup = 2;    // verified but unrecorded traffic before the window
  bool trace = false;
  double scale = 1.0;      // row-count multiplier (smoke runs use 0.05)
  std::string trace_out;   // Chrome trace-event JSON path; empty = none
};

// Thread pool width of the modeled cluster and of the Service, and the cap on
// load-generating threads: the benchmark is sized for a four-core host.
constexpr size_t kCores = 4;

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t samples = 0;  // latency samples behind p50_ms / p95_ms
  std::vector<std::string> notes;

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Logs one set-up phase's wall time to stderr (budgeting the run length).
void LogPhase(const RunOptions& options, const char* phase, Clock::time_point since);

// Logs the latency sample of each query class to stderr (where the mixture's
// median and p95 fall).
void LogClassLatencies(const RunOptions& options, const std::vector<std::string>& names,
                       const std::vector<std::vector<double>>& latencies_ms);

// Nearest-rank percentile: the smallest sample with at least p of all samples
// at or below it (p in (0, 1]). 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

// Order-insensitive canonical form of a result: one string per row (doubles
// at 4 places, as the equivalence suites compare them), sorted.
std::vector<std::string> CanonicalRows(const ResultSet& rows);

// Peak resident set size (VmHWM) of this process, in MB.
double PeakRssMb();

// Serialized bytes of `enc`, plus the explicit 8-byte ASHE id column the
// paper stores when the table has ASHE cells (bench_table5_storage's
// accounting).
double SerializedEncryptedBytes(const Table& enc);

// num / den, or 0 when nothing was measured (den == 0).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- dashboard_ingest answer oracle ------------------------------------------
// The events table is its initial rows plus a prefix of the append batches,
// with ts equal to the global row index (monotone across batches). Window
// answers depend only on [lo, hi]; a full-table answer must match the initial
// rows plus exactly k whole batches for some k the caller bounds.
class EventsOracle {
 public:
  EventsOracle(std::vector<int64_t> seg, std::vector<int64_t> value, size_t initial_rows,
               size_t batch_rows, int64_t num_segments);

  size_t max_batches() const { return (seg_.size() - initial_rows_) / batch_rows_; }

  // Canonical rows of SUM(value), COUNT(*) over ts in [lo, hi], optionally
  // GROUP BY seg (groups with no rows are absent, as in SQL).
  std::vector<std::string> Window(size_t lo, size_t hi, bool group_by_seg) const;

  // Canonical rows of the full-table GROUP BY seg answer after k batches.
  std::vector<std::string> Full(size_t k) const;

  // Checks a full-table GROUP BY seg answer (columns seg, sum, count). The
  // total count names k, the number of batches the answer reflects; the
  // answer is correct iff min_batches <= k <= submitted_batches and every
  // group equals the initial rows plus the first k batches. Returns k, or -1.
  int64_t CheckFull(const ResultSet& rows, size_t min_batches, size_t submitted_batches) const;

 private:
  std::vector<int64_t> seg_;
  std::vector<int64_t> value_;
  size_t initial_rows_;
  size_t batch_rows_;
  int64_t num_segments_;
  // prefix_[k][s] = {sum, count} of segment s over the initial rows plus the
  // first k batches.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> prefix_;
};

// Proves the checks catch what they must: a corrupted aggregate, an answer
// missing an acknowledged batch, and nearest-rank percentiles on a fixed
// vector. Prints one line per case; returns the number of failed cases.
int SelfTest();

// --- traced runs -----------------------------------------------------------------
// Spans are kept in memory and written once, at exit, as Chrome trace-event
// JSON (loads in Perfetto / chrome://tracing).
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point begin;
    Clock::time_point end;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // spans of one request share it
    uint64_t lane = 0;     // client thread (Chrome "tid")
  };

  // Records a span and returns its id (thread-safe).
  uint64_t Record(const std::string& name, Clock::time_point begin, Clock::time_point end,
                  uint64_t parent, uint64_t request, uint64_t lane);
  uint64_t NewRequest();

  // Writes every span; returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_request_ = 1;
  Clock::time_point origin_ = Clock::now();
};

// Workload entry points (single_server.cc, ingest.cc).
RunResult RunSyntheticScan(const RunOptions& options);
RunResult RunAdtechDashboard(const RunOptions& options);
RunResult RunBdbJoin(const RunOptions& options);
RunResult RunDashboardIngest(const RunOptions& options);

}  // namespace seabed::e2e

#endif  // SEABED_BENCH_E2E_E2E_H_
