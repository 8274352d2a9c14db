// "Figure 11" (beyond the paper): dashboard refresh latency with the Seabed
// engine's result cache.
//
// The paper's Section 5 workload study found BI dashboards re-issue a small
// set of aggregate shapes over and over. This bench models one dashboard of
// five panels refreshed repeatedly against kSeabed with its result cache on
// (SessionOptions::result_cache_bytes):
//
//   * round 0 is COLD — every panel misses, runs the full encrypted
//     pipeline, and seeds the result + translated-plan caches;
//   * rounds 1..N are WARM — repeats are answered from the client-side
//     result cache without the untrusted server seeing a query;
//   * an append then publishes a new table version, and one POST-APPEND
//     round pays the miss again — on fresh data, with translation still
//     memoized.
//
// Reported per panel: cold latency, median warm latency, post-append
// latency, and the cold/warm speedup. The warm path must be >= 5x cheaper
// at the median; the bench prints a REGRESSION line otherwise (the CI bench
// gate compares the recorded medians across commits).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace seabed {
namespace {

struct Panel {
  const char* label;
  Query query;
};

std::vector<Panel> DashboardPanels(uint64_t groups) {
  std::vector<Panel> panels;
  panels.push_back({"sum_sel10", SyntheticSumQuery(10)});
  panels.push_back({"sum_sel25", SyntheticSumQuery(25)});
  {
    Query q = SyntheticSumQuery(50);
    q.Count("n").Avg("value", "mean");
    panels.push_back({"sum_count_avg_sel50", q});
  }
  panels.push_back({"groupby", SyntheticGroupByQuery(groups)});
  {
    // Same shape as sum_sel25 with reordered-equivalent filters would
    // collapse onto one fingerprint; a distinct literal stays a distinct
    // panel — exactly how a parameterized dashboard behaves.
    Query q = SyntheticSumQuery(75);
    q.Count("n");
    panels.push_back({"sum_count_sel75", q});
  }
  return panels;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Main() {
  const uint64_t rows = EnvU64("SEABED_BENCH_ROWS", 2000000);
  // At least one warm round: the medians below index into the warm samples.
  const uint64_t warm_rounds = std::max<uint64_t>(1, EnvU64("SEABED_BENCH_DASHBOARD_ROUNDS", 5));
  const uint64_t groups = 100;
  const Cluster cluster(BenchClusterConfig(16));
  BenchRecorder recorder("fig11_dashboard");

  SyntheticHarness::Options options = SyntheticHarness::FromEnv();
  options.rows = rows;
  options.group_cardinality = groups;
  options.build_paillier = false;  // the comparison here is cold-vs-warm Seabed
  SyntheticHarness harness(options);
  std::unique_ptr<Session> session = harness.MakeCachingSession(BackendKind::kSeabed);
  session->UseCluster(&cluster);

  std::vector<Panel> panels = DashboardPanels(groups);
  std::printf("=== Figure 11: dashboard refresh with the result cache "
              "(rows=%llu, %llu warm rounds) ===\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(warm_rounds));
  std::printf("%-22s %12s %12s %14s %10s\n", "panel", "cold(s)", "warm-med(s)",
              "post-append(s)", "speedup");

  std::vector<double> cold_latencies;
  std::vector<double> warm_latencies;
  std::vector<QueryStats> cold_stats(panels.size());
  std::vector<std::vector<QueryStats>> warm_stats(panels.size());

  for (size_t i = 0; i < panels.size(); ++i) {
    session->Execute(panels[i].query, &cold_stats[i]);
  }
  for (uint64_t round = 0; round < warm_rounds; ++round) {
    for (size_t i = 0; i < panels.size(); ++i) {
      QueryStats stats;
      session->Execute(panels[i].query, &stats);
      warm_stats[i].push_back(stats);
    }
  }

  // The append publishes a new table version, which no cached result names;
  // the next refresh pays one miss per panel, with translation still
  // memoized.
  SyntheticSpec batch_spec;
  batch_spec.rows = std::max<uint64_t>(1, rows / 100);
  batch_spec.seed = 4242;
  batch_spec.group_cardinality = groups;
  const auto batch = MakeSyntheticTable(batch_spec);
  session->Append("synthetic", *batch);

  std::vector<QueryStats> post_append_stats(panels.size());
  for (size_t i = 0; i < panels.size(); ++i) {
    session->Execute(panels[i].query, &post_append_stats[i]);
  }

  for (size_t i = 0; i < panels.size(); ++i) {
    const QueryStats& cold = cold_stats[i];
    std::vector<double> warm_totals;
    for (const QueryStats& s : warm_stats[i]) {
      warm_totals.push_back(s.TotalSeconds() + s.cache_lookup_seconds);
    }
    // The warm-round stats closest to the median, for the full breakdown.
    std::vector<QueryStats> sorted = warm_stats[i];
    std::sort(sorted.begin(), sorted.end(), [](const QueryStats& a, const QueryStats& b) {
      return a.TotalSeconds() + a.cache_lookup_seconds <
             b.TotalSeconds() + b.cache_lookup_seconds;
    });
    const QueryStats& warm = sorted[sorted.size() / 2];
    const QueryStats& post = post_append_stats[i];

    const double cold_total = cold.TotalSeconds() + cold.cache_lookup_seconds;
    const double warm_total = Median(warm_totals);
    const double post_total = post.TotalSeconds() + post.cache_lookup_seconds;
    const double speedup = warm_total > 0 ? cold_total / warm_total : 0;
    cold_latencies.push_back(cold_total);
    warm_latencies.push_back(warm_total);

    std::printf("%-22s %12.4f %12.6f %14.4f %9.0fx%s\n", panels[i].label, cold_total,
                warm_total, post_total, speedup, warm.cache_hit ? "" : "  [NOT CACHED?]");

    const double panel = static_cast<double>(i);
    recorder.AddStats("cold", {{"panel", panel}, {"cache_hit", 0},
                               {"plan_cache_hit", cold.plan_cache_hit ? 1.0 : 0.0}},
                      cold);
    recorder.AddStats("warm",
                      {{"panel", panel}, {"cache_hit", warm.cache_hit ? 1.0 : 0.0},
                       {"cache_lookup_seconds", warm.cache_lookup_seconds}},
                      warm);
    recorder.AddStats("post_append",
                      {{"panel", panel}, {"cache_hit", post.cache_hit ? 1.0 : 0.0},
                       {"plan_cache_hit", post.plan_cache_hit ? 1.0 : 0.0}},
                      post);
  }

  const double median_cold = Median(cold_latencies);
  const double median_warm = Median(warm_latencies);
  const double median_speedup = median_warm > 0 ? median_cold / median_warm : 0;
  std::printf("\nmedian cold %.4f s, median warm %.6f s — %.0fx\n", median_cold, median_warm,
              median_speedup);
  if (median_speedup < 5.0) {
    std::printf("REGRESSION: warm path is less than 5x faster than cold\n");
  }
  recorder.Add("summary", {{"median_cold_seconds", median_cold},
                           {"median_warm_seconds", median_warm},
                           {"median_speedup", median_speedup}});
  return median_speedup < 5.0 ? 1 : 0;
}

}  // namespace
}  // namespace seabed

int main() { return seabed::Main(); }
