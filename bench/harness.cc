#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"

// Provenance compiled in by CMake; "unknown" outside a configured build.
#ifndef SEABED_GIT_SHA_DEFAULT
#define SEABED_GIT_SHA_DEFAULT "unknown"
#endif
#ifndef SEABED_BUILD_TYPE
#define SEABED_BUILD_TYPE "unknown"
#endif

namespace seabed {
namespace {

// The commit this record is attributable to: the runner can override the
// configure-time value (a stale build dir would otherwise misattribute).
const char* RecordGitSha() {
  const char* sha = std::getenv("SEABED_GIT_SHA");
  return (sha != nullptr && *sha != '\0') ? sha : SEABED_GIT_SHA_DEFAULT;
}

SyntheticHarness::Options Normalize(SyntheticHarness::Options options) {
  if (options.paillier_rows == 0) {
    options.paillier_rows = std::max<uint64_t>(1, options.rows / 8);
  }
  return options;
}

SyntheticSpec SpecOf(const SyntheticHarness::Options& options, uint64_t rows) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.seed = options.seed;
  spec.group_cardinality = options.group_cardinality;
  return spec;
}

SessionOptions BackendOptions(BackendKind backend, const SyntheticHarness::Options& options) {
  SessionOptions so;
  so.backend = backend;
  // Sessions run on whatever cluster the bench passes per call (UseCluster);
  // keep the session-owned fallback cluster minimal.
  so.cluster.num_workers = 1;
  so.planner.expected_rows = options.rows;
  so.paillier.modulus_bits = options.paillier_bits;
  so.paillier.seed = options.seed + 1;
  so.key_seed = options.seed;
  return so;
}

}  // namespace

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return std::strtoull(value, nullptr, 10);
}

ClusterConfig BenchClusterConfig(size_t workers) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  cfg.job_overhead_seconds = 0.25;
  cfg.task_overhead_seconds = 0.004;
  return cfg;
}

SyntheticHarness::Options SyntheticHarness::FromEnv() { return FromEnv(Options()); }

SyntheticHarness::Options SyntheticHarness::FromEnv(Options options) {
  options.rows = EnvU64("SEABED_BENCH_ROWS", options.rows);
  options.paillier_rows = EnvU64("SEABED_BENCH_PAILLIER_ROWS", options.paillier_rows);
  options.paillier_bits =
      static_cast<int>(EnvU64("SEABED_BENCH_PAILLIER_BITS",
                              static_cast<uint64_t>(options.paillier_bits)));
  return options;
}

SyntheticHarness::SyntheticHarness(const Options& options)
    : options_(Normalize(options)),
      plain_(MakeSyntheticTable(SpecOf(options_, options_.rows))),
      noenc_(BackendOptions(BackendKind::kPlain, options_)),
      seabed_(BackendOptions(BackendKind::kSeabed, options_)) {
  const SyntheticSpec spec = SpecOf(options_, options_.rows);
  schema_ = SyntheticSchema(spec);
  const std::vector<Query> samples = SyntheticSampleQueries(spec);

  noenc_.Attach(plain_, schema_, samples);
  seabed_.Attach(plain_, schema_, samples);

  if (options_.build_paillier) {
    plain_small_ = MakeSyntheticTable(SpecOf(options_, options_.paillier_rows));
    paillier_ = std::make_unique<Session>(BackendOptions(BackendKind::kPaillier, options_));
    paillier_->Attach(plain_small_, schema_, samples);
  }
}

SessionOptions SyntheticHarness::MakeSessionOptions(BackendKind backend) const {
  return BackendOptions(backend, options_);
}

std::unique_ptr<Session> SyntheticHarness::MakeShardedSession(size_t shards) {
  SessionOptions so = BackendOptions(BackendKind::kShardedSeabed, options_);
  so.shards = shards;
  auto session = std::make_unique<Session>(std::move(so));
  session->AttachPlanned(plain_, schema_, seabed_.plan("synthetic"));
  return session;
}

std::unique_ptr<Session> SyntheticHarness::MakeCachingSession(BackendKind backend,
                                                              size_t shards) {
  SessionOptions so = BackendOptions(backend, options_);
  so.result_cache_bytes = 64u << 20;
  so.shards = shards;
  auto session = std::make_unique<Session>(std::move(so));
  // A private copy of the table: caching benches Append (post-append
  // misses), which must not grow the plain_ instance the harness's other
  // sessions share.
  session->AttachPlanned(CloneTable(*plain_), schema_, seabed_.plan("synthetic"));
  return session;
}

ResultSet SyntheticHarness::RunNoEnc(const Query& q, const Cluster& cluster,
                                     QueryStats* stats) {
  noenc_.UseCluster(&cluster);
  ResultSet r = noenc_.Execute(q, stats);
  // Drop the borrowed pointer before returning — `cluster` is often a
  // per-sweep-iteration local that dies before the next Run* call.
  noenc_.UseCluster(nullptr);
  return r;
}

ResultSet SyntheticHarness::RunSeabed(const Query& q, const Cluster& cluster,
                                      TranslatorOptions topts, QueryStats* stats) {
  seabed_.UseCluster(&cluster);
  seabed_.set_translator_options(topts);
  ResultSet r = seabed_.Execute(q, stats);
  seabed_.UseCluster(nullptr);
  return r;
}

ResultSet SyntheticHarness::RunPaillier(const Query& q, const Cluster& cluster,
                                        QueryStats* stats) {
  SEABED_CHECK_MSG(paillier_ != nullptr, "harness built without the Paillier baseline");
  paillier_->UseCluster(&cluster);
  ResultSet r = paillier_->Execute(q, stats);
  paillier_->UseCluster(nullptr);
  if (stats != nullptr) {
    // Scale per-row server compute up to the full table size (the baseline
    // table is built smaller because Paillier dataset construction is slow).
    const double scale =
        static_cast<double>(options_.rows) / static_cast<double>(options_.paillier_rows);
    stats->server_seconds *= scale;
    stats->job.server_seconds *= scale;
    stats->job.total_compute_seconds *= scale;
  }
  return r;
}

double ProjectServerSeconds(const QueryStats& stats, double scale, double job_overhead) {
  const double variable = stats.server_seconds - job_overhead;
  return job_overhead + std::max(0.0, variable) * scale;
}

double ProjectTotalSeconds(const QueryStats& stats, double scale, double job_overhead) {
  return ProjectServerSeconds(stats, scale, job_overhead) +
         (stats.network_seconds + stats.client_seconds) * scale;
}

std::string LatencyLine(const std::string& label, const QueryStats& stats, double scale) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-28s total %9.3f s  (server %9.3f  network %7.3f  client %7.3f)",
                label.c_str(), stats.TotalSeconds() * scale, stats.server_seconds * scale,
                stats.network_seconds * scale, stats.client_seconds * scale);
  return buf;
}

// --- machine-readable records -------------------------------------------------

BenchRecorder::BenchRecorder(std::string name) : name_(std::move(name)) {}

std::string BenchRecorder::path() const {
  const char* dir = std::getenv("SEABED_BENCH_JSON_DIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  return base + "/BENCH_" + name_ + ".json";
}

void BenchRecorder::Add(const std::string& series, std::map<std::string, double> fields) {
  records_.push_back({series, std::move(fields)});
}

void BenchRecorder::AddStats(const std::string& series, std::map<std::string, double> fields,
                             const QueryStats& stats) {
  fields.emplace("total_seconds", stats.TotalSeconds());
  fields.emplace("server_seconds", stats.server_seconds);
  fields.emplace("network_seconds", stats.network_seconds);
  fields.emplace("client_seconds", stats.client_seconds);
  fields.emplace("result_bytes", static_cast<double>(stats.result_bytes));
  fields.emplace("prf_calls", static_cast<double>(stats.prf_calls));
  Add(series, std::move(fields));
}

BenchRecorder::~BenchRecorder() {
  const std::string file = path();
  FILE* out = std::fopen(file.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "BenchRecorder: cannot write %s\n", file.c_str());
    return;
  }
  // git_sha + build_type make archived records attributable across commits;
  // scripts/check.sh refuses to archive files missing either key.
  std::fprintf(out, "{\"bench\": \"%s\", \"git_sha\": \"%s\", \"build_type\": \"%s\", \"records\": [",
               name_.c_str(), RecordGitSha(), SEABED_BUILD_TYPE);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out, "%s\n  {\"series\": \"%s\"", i == 0 ? "" : ",", r.series.c_str());
    for (const auto& [key, value] : r.fields) {
      std::fprintf(out, ", \"%s\": %.9g", key.c_str(), value);
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu records)\n", file.c_str(), records_.size());
}

}  // namespace seabed
