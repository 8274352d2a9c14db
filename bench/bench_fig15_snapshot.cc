// "Figure 15" (beyond the paper): snapshot-isolated serving under sustained
// ingest.
//
// The claim behind this bench: appends never block queries. An append builds
// the successor table version off to the side and publishes it with one
// atomic pointer swap; readers keep the version they pinned, and tables are
// completely independent. So a dashboard's tail latency under a sustained
// append stream should stay close to its tail latency with no ingest at all.
//
// The workload is the classic HTAP split that makes stalls visible:
//   - a small, hot "synthetic" dashboard table serving kClients closed-loop
//     query clients (cheap selective aggregates, paced by the modeled
//     cluster round trip — clients are mostly idle between answers, exactly
//     when ingest work should be running);
//   - a large "events" table taking a sustained append stream: kAppends
//     batches on a fixed wall-clock schedule (one every kAppendSpacing, the
//     cadence of a log-structured ingest pipeline), each batch several times
//     the events table's seed data;
//   - one mid-window "audit" query against the events table itself, which
//     must equal the plaintext answer at SOME append state — a reader of the
//     actively-ingesting table pins exactly one published version, so a torn
//     scan or half-applied batch is a correctness failure, not a perf blip.
//
// The SAME Service workload over the sharded backend runs twice: a `quiet`
// series (the append stream replaced by an idle wait of the same length) and
// an `ingest` series.
//
// Gates (REGRESSION + nonzero exit otherwise):
//   - every dashboard answer equals the plaintext reference, and every
//     events answer equals the plaintext reference at some append state;
//   - appends overlap queries: at least one append begins executing while a
//     dashboard query is still executing (compared on ServiceStats::
//     exec_begin/exec_end). An append discipline that waited out in-flight
//     queries would make this 0;
//   - the ingest series' p99 latency is at most kMaxP99Ratio x the quiet
//     series' p99: ingest stalls must stay out of the dashboard's tail.
//
// Env knobs: SEABED_BENCH_ROWS.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/seabed/service.h"
#include "src/workload/synthetic.h"

namespace seabed {
namespace {

constexpr size_t kShards = 4;
constexpr uint64_t kGroups = 100;
constexpr size_t kClients = 2;
constexpr size_t kAppends = 12;
constexpr std::chrono::milliseconds kAppendSpacing{75};
// Bound on ingest p99 / quiet p99. Above 1 because a query queued behind an
// append still waits out that append's encryption: the barrier orders.
constexpr double kMaxP99Ratio = 3.0;

// Canonical row strings (sorted, doubles at 4 places) for the per-answer
// plaintext equality check.
std::vector<std::string> CanonicalRows(const ResultSet& r) {
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

// The dashboard mix: selective aggregations over the small hot table (the
// interactive end of the paper's workload). The hot table never changes, so
// each shape has exactly one plaintext answer; what varies between the two
// series is purely whether ingest work on the OTHER table runs beside it.
std::vector<Query> QueryMix() {
  std::vector<Query> mix;
  mix.push_back(SyntheticSumQuery(5));
  mix.push_back(SyntheticSumQuery(10));
  {
    Query q = SyntheticSumQuery(15);
    q.Count("n");
    mix.push_back(q);
  }
  {
    Query q = SyntheticSumQuery(20);
    q.Avg("value", "mean");
    mix.push_back(q);
  }
  return mix;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(values.size() - 1,
                              static_cast<size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

using Span = std::pair<std::chrono::steady_clock::time_point,
                       std::chrono::steady_clock::time_point>;

struct SeriesResult {
  double qps = 0;
  double p50 = 0;
  double p99 = 0;
  double window_seconds = 0;  // the append stream, or the quiet series' idle wait
  double audit_seconds = 0;   // the mid-ingest events query's latency
  uint64_t queries = 0;
  uint64_t overlapping = 0;   // dashboard queries executing when an append began
};

int Main() {
  // A lighter modeled cluster than the other figures, so the window holds
  // enough queries to measure: queries pay one modeled round trip, appends
  // pay the modeled ingest job (encrypt stage + migration stage + shuffle —
  // see ShardedSeabedBackend::Append), which passes off to the side of
  // serving.
  ClusterConfig cluster_config = BenchClusterConfig(16);
  cluster_config.job_overhead_seconds = 0.015;
  cluster_config.task_overhead_seconds = 0.001;
  const Cluster cluster(cluster_config);
  BenchRecorder recorder("fig15_snapshot");

  SyntheticHarness::Options options = SyntheticHarness::FromEnv();
  options.group_cardinality = kGroups;
  options.build_paillier = false;  // the story here is ingest vs serving
  SyntheticHarness harness(options);

  // The hot dashboard table: small, never appended to.
  SyntheticSpec hot_spec;
  hot_spec.rows = std::max<uint64_t>(harness.rows() / 4, 2048);
  hot_spec.seed = options.seed;
  hot_spec.group_cardinality = kGroups;
  const PlainSchema hot_schema = SyntheticSchema(hot_spec);

  // The ingest target: starts at the full row budget and takes kAppends
  // batches of the same size (the table several-folds during the window).
  SyntheticSpec ev_spec;
  ev_spec.rows = harness.rows();
  ev_spec.seed = options.seed + 777;
  PlainSchema ev_schema = SyntheticSchema(ev_spec);
  ev_schema.table_name = "events";
  std::vector<Query> ev_samples = SyntheticSampleQueries(ev_spec);
  for (Query& q : ev_samples) {
    q.table = "events";
  }
  Query audit = SyntheticSumQuery(10);
  audit.table = "events";

  const std::vector<Query> mix = QueryMix();

  // K fixed append batches, shared by the reference and the ingest series.
  std::vector<std::shared_ptr<Table>> batches;
  for (size_t j = 0; j < kAppends; ++j) {
    SyntheticSpec bspec = ev_spec;
    bspec.rows = ev_spec.rows * 3;
    bspec.seed = 9000 + j;
    batches.push_back(MakeSyntheticTable(bspec));
  }

  // Plaintext references: one answer per dashboard shape (the hot table is
  // immutable), and one audit answer per append state j in 0..kAppends.
  Session plain(harness.MakeSessionOptions(BackendKind::kPlain));
  plain.Attach(MakeSyntheticTable(hot_spec), hot_schema, SyntheticSampleQueries(hot_spec));
  plain.Attach(MakeSyntheticTable(ev_spec), ev_schema, ev_samples);
  std::vector<std::vector<std::string>> hot_refs;
  for (const Query& q : mix) {
    hot_refs.push_back(CanonicalRows(plain.Execute(q)));
  }
  std::vector<std::vector<std::string>> audit_refs;
  audit_refs.reserve(kAppends + 1);
  for (size_t j = 0; j <= kAppends; ++j) {
    audit_refs.push_back(CanonicalRows(plain.Execute(audit)));
    if (j < kAppends) {
      plain.Append("events", *batches[j]);
    }
  }

  std::printf("=== Figure 15: serving under sustained ingest, %zu-shard backend "
              "(hot rows=%llu, %zu clients; %zu appends of %llu rows to 'events') ===\n",
              kShards, static_cast<unsigned long long>(hot_spec.rows), kClients, kAppends,
              static_cast<unsigned long long>(batches[0]->NumRows()));
  std::printf("%10s %10s %10s %10s %10s %12s %10s %12s\n", "series", "qps", "p50(s)",
              "p99(s)", "queries", "window(s)", "audit(s)", "overlapping");

  std::atomic<uint64_t> mismatches{0};
  auto run_series = [&](bool with_appends) {
    ServiceOptions sopts;
    sopts.session = harness.MakeSessionOptions(BackendKind::kShardedSeabed);
    sopts.session.shards = kShards;
    // Appends land whole batches on one shard (append locality), so the
    // skew-triggered rebalancer migrates row groups — re-encryption work the
    // engine performs off to the side of serving.
    sopts.session.shards_rebalance.enabled = true;
    sopts.session.shards_rebalance.max_skew_ratio = 1.1;
    sopts.session.shards_rebalance.row_group_size = 64;
    sopts.session.external_cluster = &cluster;
    sopts.num_workers = 8;
    sopts.max_queue_depth = 4096;
    sopts.max_batch = 8;
    sopts.pace_modeled_latency = true;
    Service service(sopts);
    // Fresh tables per series: appends grow the attached events table in
    // place, so the two series must not share one.
    service.Attach(MakeSyntheticTable(hot_spec), hot_schema,
                   SyntheticSampleQueries(hot_spec));
    service.Attach(MakeSyntheticTable(ev_spec), ev_schema, ev_samples);

    // Warm the plan/translator caches and pin the state-0 answers before the
    // clock starts.
    for (size_t i = 0; i < mix.size(); ++i) {
      ServiceResult r = service.Submit(mix[i]).get();
      if (!r.ok || CanonicalRows(r.rows) != hot_refs[i]) {
        mismatches.fetch_add(1);
      }
    }
    {
      ServiceResult r = service.Submit(audit).get();
      if (!r.ok || CanonicalRows(r.rows) != audit_refs[0]) {
        mismatches.fetch_add(1);
      }
    }

    std::atomic<bool> done{false};
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<std::vector<Span>> query_spans(kClients);
    std::atomic<uint64_t> completed{0};
    const auto start = std::chrono::steady_clock::now();

    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(500 + 17 * c);
        while (!done.load(std::memory_order_acquire)) {
          const size_t pick = rng.Below(mix.size());
          const auto issued = std::chrono::steady_clock::now();
          ServiceResult r = service.Submit(mix[pick]).get();
          const std::chrono::duration<double> took =
              std::chrono::steady_clock::now() - issued;
          if (!r.ok || CanonicalRows(r.rows) != hot_refs[pick]) {
            mismatches.fetch_add(1);
            continue;
          }
          latencies[c].push_back(took.count());
          query_spans[c].emplace_back(r.stats.exec_begin, r.stats.exec_end);
          completed.fetch_add(1);
        }
      });
    }

    // The analyst: one query against the actively-ingesting table, fired
    // mid-window. Its answer must be SOME published state's answer — the
    // snapshot contract for readers racing the appender.
    const auto ingest_begin = std::chrono::steady_clock::now();
    double audit_seconds = 0;
    std::thread auditor([&] {
      std::this_thread::sleep_until(ingest_begin + (kAppends / 2) * kAppendSpacing);
      const auto issued = std::chrono::steady_clock::now();
      ServiceResult r = service.Submit(audit).get();
      audit_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - issued).count();
      const std::vector<std::string> got = CanonicalRows(r.rows);
      bool matched = false;
      for (size_t j = 0; j <= kAppends && !matched; ++j) {
        matched = got == audit_refs[j];
      }
      if (!r.ok || !matched) {
        mismatches.fetch_add(1);
      }
    });

    // The sustained appender: a fixed wall-clock cadence, the steady drip of
    // a log-structured ingest pipeline. The quiet series idles for the same
    // schedule instead.
    std::vector<Span> append_spans;
    if (with_appends) {
      for (size_t j = 0; j < kAppends; ++j) {
        std::this_thread::sleep_until(ingest_begin + j * kAppendSpacing);
        ServiceResult r = service.SubmitAppend("events", batches[j]).get();
        if (!r.ok) {
          mismatches.fetch_add(1);
        }
        append_spans.emplace_back(r.stats.exec_begin, r.stats.exec_end);
      }
    } else {
      std::this_thread::sleep_until(ingest_begin + kAppends * kAppendSpacing);
    }
    const std::chrono::duration<double> window =
        std::chrono::steady_clock::now() - ingest_begin;
    auditor.join();
    done.store(true, std::memory_order_release);
    for (std::thread& t : clients) {
      t.join();
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

    // Post-window: the final events state must be plaintext-exact in full.
    {
      ServiceResult r = service.Submit(audit).get();
      if (!r.ok || CanonicalRows(r.rows) != audit_refs[with_appends ? kAppends : 0]) {
        mismatches.fetch_add(1);
      }
    }
    service.Shutdown();

    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    SeriesResult m;
    m.queries = completed.load();
    m.qps = static_cast<double>(m.queries) / elapsed.count();
    m.p50 = Percentile(all, 0.50);
    m.p99 = Percentile(all, 0.99);
    m.window_seconds = window.count();
    m.audit_seconds = audit_seconds;
    for (const auto& per_client : query_spans) {
      for (const Span& q : per_client) {
        m.overlapping += std::any_of(append_spans.begin(), append_spans.end(),
                                     [&](const Span& a) {
                                       return q.first < a.first && a.first < q.second;
                                     });
      }
    }
    const char* label = with_appends ? "ingest" : "quiet";
    std::printf("%10s %10.2f %10.4f %10.4f %10llu %12.3f %10.4f %12llu\n", label, m.qps,
                m.p50, m.p99, static_cast<unsigned long long>(m.queries), m.window_seconds,
                m.audit_seconds, static_cast<unsigned long long>(m.overlapping));
    recorder.Add(label, {{"queries_per_second", m.qps},
                         {"p50_seconds", m.p50},
                         {"p99_seconds", m.p99},
                         {"window_seconds", m.window_seconds},
                         {"audit_seconds", m.audit_seconds},
                         {"overlapping_queries", static_cast<double>(m.overlapping)},
                         {"clients", static_cast<double>(kClients)}});
    return m;
  };

  const SeriesResult quiet = run_series(/*with_appends=*/false);
  const SeriesResult ingest = run_series(/*with_appends=*/true);

  const double p99_ratio = quiet.p99 > 0 ? ingest.p99 / quiet.p99 : 0;
  std::printf("\np99 under ingest: %.2fx the quiet p99 (gate: <= %.1fx)\n", p99_ratio,
              kMaxP99Ratio);
  std::printf("dashboard queries executing when an append began: %llu (gate: > 0)\n",
              static_cast<unsigned long long>(ingest.overlapping));
  recorder.Add("summary", {{"p99_ratio", p99_ratio}});

  bool failed = false;
  if (mismatches.load() > 0) {
    std::printf("REGRESSION: %llu answers diverged from every plaintext reference "
                "state\n",
                static_cast<unsigned long long>(mismatches.load()));
    failed = true;
  }
  if (ingest.overlapping == 0) {
    std::printf("REGRESSION: no append began while a dashboard query was executing — "
                "appends are waiting out queries\n");
    failed = true;
  }
  if (p99_ratio > kMaxP99Ratio) {
    std::printf("REGRESSION: p99 under ingest is %.2fx the quiet p99, above the %.1fx "
                "gate\n",
                p99_ratio, kMaxP99Ratio);
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace seabed

int main() { return seabed::Main(); }
