// Shared experiment harness for the paper-reproduction benchmarks.
//
// Builds the three systems under test over the synthetic workload — one
// seabed::Session per backend:
//   NoEnc   : plaintext Spark-style execution,
//   Seabed  : ASHE/SPLASHE/DET/ORE pipeline,
//   Paillier: CryptDB/Monomi-style baseline —
// and runs queries end-to-end, returning the latency breakdown the paper
// plots (server / network / client) as QueryStats.
//
// Environment knobs (all optional):
//   SEABED_BENCH_ROWS          synthetic row count       (default 2,000,000)
//   SEABED_BENCH_PAILLIER_ROWS baseline row count        (default rows / 8)
//   SEABED_BENCH_PAILLIER_BITS Paillier modulus bits     (default 512)
//   SEABED_BENCH_REPEAT        repetitions per point     (default 3)
//   SEABED_BENCH_JSON_DIR      output dir for BENCH_*.json (default ".")
#ifndef SEABED_BENCH_HARNESS_H_
#define SEABED_BENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/query/parser.h"
#include "src/seabed/session.h"
#include "src/workload/synthetic.h"

namespace seabed {

// Reads a uint64 environment knob with a default.
uint64_t EnvU64(const char* name, uint64_t fallback);

// Paper-style cluster config with `workers` logical cores.
ClusterConfig BenchClusterConfig(size_t workers);

// A built set of backend sessions over one synthetic table.
class SyntheticHarness {
 public:
  struct Options {
    uint64_t rows = 2000000;
    uint64_t paillier_rows = 0;      // 0 = rows / 8
    uint64_t group_cardinality = 0;  // adds the grp column
    int paillier_bits = 512;
    bool build_paillier = true;
    uint64_t seed = 42;
  };

  // Reads row counts from the environment, then applies `options` overrides.
  static Options FromEnv(Options options);
  static Options FromEnv();

  explicit SyntheticHarness(const Options& options);

  ResultSet RunNoEnc(const Query& q, const Cluster& cluster, QueryStats* stats = nullptr);
  ResultSet RunSeabed(const Query& q, const Cluster& cluster, TranslatorOptions topts = {},
                      QueryStats* stats = nullptr);
  // Runs on the (possibly smaller) baseline table; latencies are scaled by
  // rows / paillier_rows so the reported numbers are per-full-table.
  ResultSet RunPaillier(const Query& q, const Cluster& cluster, QueryStats* stats = nullptr);

  // Builds a kShardedSeabed session over the same synthetic table, reusing
  // the seabed session's encryption plan, so scale-out sweeps measure the
  // real fan-out/merge path instead of the analytical cluster model.
  std::unique_ptr<Session> MakeShardedSession(size_t shards);

  // Builds a `backend` session (kSeabed, or kShardedSeabed over `shards`)
  // with a 64 MiB result cache over a private copy of the synthetic table,
  // reusing the seabed session's encryption plan.
  std::unique_ptr<Session> MakeCachingSession(BackendKind backend, size_t shards = 1);

  // Session options for `backend` matching this harness's planner/key setup
  // — for fronts that own their session stack but must stay comparable (the
  // seabed::Service bench builds on these plus AttachPlanned(plain_shared(),
  // schema(), seabed().plan("synthetic"))).
  SessionOptions MakeSessionOptions(BackendKind backend) const;
  const PlainSchema& schema() const { return schema_; }
  std::shared_ptr<Table> plain_shared() const { return plain_; }

  uint64_t rows() const { return options_.rows; }
  uint64_t paillier_rows() const { return options_.paillier_rows; }
  Session& noenc() { return noenc_; }
  Session& seabed() { return seabed_; }
  Session& paillier() { return *paillier_; }
  const EncryptedDatabase& seabed_db() const { return seabed_.encrypted_database("synthetic"); }
  const Table& plain_table() const { return *plain_; }

 private:
  Options options_;
  std::shared_ptr<Table> plain_;        // full size
  std::shared_ptr<Table> plain_small_;  // baseline size
  PlainSchema schema_;
  Session noenc_;
  Session seabed_;
  std::unique_ptr<Session> paillier_;
};

// Formats a latency line: "label  total  (server/network/client)".
std::string LatencyLine(const std::string& label, const QueryStats& stats, double scale = 1.0);

// Projects a measured latency to the paper's dataset scale: the fixed job
// overhead stays constant, per-row costs (server compute, shuffle, network,
// client decryption) multiply by `scale`. This is how the benches report
// "at 1.75 B rows" numbers from laptop-scale measurements; both raw and
// projected values are printed. `job_overhead` is the cluster's fixed cost.
double ProjectTotalSeconds(const QueryStats& stats, double scale, double job_overhead);
double ProjectServerSeconds(const QueryStats& stats, double scale, double job_overhead);

// The paper's flagship dataset size (Synthetic-Large).
constexpr double kPaperRows = 1.75e9;

// Machine-readable results: one record per measured point, flushed to
// BENCH_<name>.json on destruction (SEABED_BENCH_JSON_DIR, default cwd) so
// successive runs leave a perf trajectory next to the human-readable output.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string name);
  ~BenchRecorder();  // writes the file; failures are reported, not fatal

  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  // Adds a record for `series` (e.g. "seabed") with numeric fields.
  void Add(const std::string& series, std::map<std::string, double> fields);

  // Same, plus the QueryStats latency breakdown merged into the fields.
  void AddStats(const std::string& series, std::map<std::string, double> fields,
                const QueryStats& stats);

  std::string path() const;

 private:
  struct Record {
    std::string series;
    std::map<std::string, double> fields;
  };
  std::string name_;
  std::vector<Record> records_;
};

}  // namespace seabed

#endif  // SEABED_BENCH_HARNESS_H_
