// "Figure 16" (beyond the paper): prepared statements, alone and beside the
// engine's result cache.
//
// Phase A — the translate-once contract, serially on the Seabed backend. A
// parameterized dashboard sweeps one shape across N moving literals:
//
//   * AD-HOC, every literal is a fresh exact fingerprint: a plan-cache miss
//     and a full retranslation, N misses for N queries;
//   * PREPARED, the shape translates once and every execution only BINDS
//     the literal into the memoized plan: 1 miss, N-1 hits.
//
// The gate: the prepared warm path (bind) must be >= 5x cheaper than the
// ad-hoc retranslation at the median, and the prepared sweep's plan-cache
// miss count must be exactly 1. A REGRESSION line + exit 1 otherwise.
//
// Phase B (informational) — a fleet of sessions, each with its own result
// cache, refreshes the same parameterized dashboard, ad-hoc or prepared:
// prepared statements deduplicate translation within each session.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/seabed/translator.h"

namespace seabed {
namespace {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One dashboard shape: a fixed filter on a dimension plus a moving
// selectivity bound. Phase A marks `grp` sensitive, so ad-hoc retranslation
// re-derives the DET key and re-encrypts the fixed literal for EVERY moving
// bound — exactly the work the prepared handle pays once.
Query DashboardShape() {
  Query q;
  q.table = "synthetic";
  q.Sum("value", "total").Count("n").Avg("value", "mean");
  q.Where("grp", CmpOp::kEq, int64_t{7});
  q.WhereParam("sel", CmpOp::kLt);
  return q;
}

int Main() {
  const uint64_t rows = EnvU64("SEABED_BENCH_ROWS", 2000000);
  const uint64_t sweep = std::max<uint64_t>(8, EnvU64("SEABED_BENCH_PREPARED_SWEEP", 48));
  const uint64_t groups = 64;
  const Cluster cluster(BenchClusterConfig(16));
  BenchRecorder recorder("fig16_prepared");

  SyntheticHarness::Options options = SyntheticHarness::FromEnv();
  options.rows = rows;
  options.group_cardinality = groups;
  options.build_paillier = false;  // the comparison is ad-hoc vs prepared Seabed
  SyntheticHarness harness(options);

  const Query shape = DashboardShape();
  auto literal_of = [](uint64_t i) -> int64_t {
    return static_cast<int64_t>((i * 7 + 1) % 100);  // moving bound, never repeats mod N
  };

  // --- Phase A: serial translate-once sweep ----------------------------------
  std::printf("=== Figure 16: prepared statements (rows=%llu, sweep=%llu literals) ===\n",
              static_cast<unsigned long long>(rows), static_cast<unsigned long long>(sweep));

  // A dedicated session whose plan protects the dashboard's fixed dimension
  // with DET: the sample query teaches the planner `grp` equality, `sel`
  // range, `value` sums.
  PlainSchema schema = harness.schema();
  for (PlainColumnSpec& column : schema.columns) {
    if (column.name == "grp") {
      column.sensitive = true;
    }
  }
  Session session(harness.MakeSessionOptions(BackendKind::kSeabed));
  // The group-by sample steers the planner to DET for `grp` (SPLASHE cannot
  // serve GROUP BY), giving the shape its fixed encrypted-token predicate.
  session.Attach(harness.plain_shared(), schema,
                 {shape.BindParams(std::vector<Value>{int64_t{50}}),
                  SyntheticGroupByQuery(groups)});
  session.UseCluster(&cluster);

  // Both sweeps read the engine's own plan cache; each phase reports its
  // miss delta.
  const TranslatedPlanCache& plan_cache = *session.executor().plan_cache();
  const uint64_t misses_at_start = plan_cache.misses();
  std::vector<double> adhoc_translate;
  for (uint64_t i = 0; i < sweep; ++i) {
    const std::vector<Value> params = {literal_of(i)};
    QueryStats stats;
    session.Execute(shape.BindParams(params), &stats);
    adhoc_translate.push_back(stats.translate_seconds);
  }
  const uint64_t adhoc_misses = plan_cache.misses() - misses_at_start;

  const PreparedQuery prepared = session.Prepare(shape);
  std::vector<double> prepared_bind;
  for (uint64_t i = 0; i < sweep; ++i) {
    const std::vector<Value> params = {literal_of(i)};
    QueryStats stats;
    session.Execute(prepared, params, &stats);
    prepared_bind.push_back(stats.bind_seconds);
  }
  session.UseCluster(nullptr);
  const uint64_t prepared_misses = plan_cache.misses() - misses_at_start - adhoc_misses;

  const double median_translate = Median(adhoc_translate);
  const double median_bind = Median(prepared_bind);
  const double speedup = median_bind > 0 ? median_translate / median_bind : 0;

  std::printf("%-28s %14s %14s\n", "sweep", "plan misses", "median(s)");
  std::printf("%-28s %14llu %14.6f   (translate per literal)\n", "ad-hoc",
              static_cast<unsigned long long>(adhoc_misses), median_translate);
  std::printf("%-28s %14llu %14.6f   (bind per literal)\n", "prepared",
              static_cast<unsigned long long>(prepared_misses), median_bind);
  std::printf("prepared warm path: %.0fx cheaper than retranslation\n", speedup);

  recorder.Add("adhoc", {{"sweep", static_cast<double>(sweep)},
                         {"plan_misses", static_cast<double>(adhoc_misses)},
                         {"median_translate_seconds", median_translate}});
  recorder.Add("prepared", {{"sweep", static_cast<double>(sweep)},
                            {"plan_misses", static_cast<double>(prepared_misses)},
                            {"median_bind_seconds", median_bind}});

  bool regression = false;
  if (prepared_misses != 1) {
    std::printf("REGRESSION: prepared sweep translated %llu times (want exactly 1)\n",
                static_cast<unsigned long long>(prepared_misses));
    regression = true;
  }
  if (adhoc_misses != sweep) {
    // Not a gate on the new path, but a broken premise invalidates the ratio.
    std::printf("REGRESSION: ad-hoc sweep missed %llu times (want %llu, one per literal)\n",
                static_cast<unsigned long long>(adhoc_misses),
                static_cast<unsigned long long>(sweep));
    regression = true;
  }
  if (speedup < 5.0) {
    std::printf("REGRESSION: prepared bind is less than 5x cheaper than retranslation\n");
    regression = true;
  }

  // --- Phase B: fleet refresh, ad-hoc vs prepared ----------------------------
  const uint64_t fleet_size = 4;
  const uint64_t panels = 8;
  std::printf("\n--- fleet refresh: %llu sessions x %llu panels ---\n",
              static_cast<unsigned long long>(fleet_size),
              static_cast<unsigned long long>(panels));
  std::printf("%-28s %14s %14s %14s\n", "config", "modeled(s)", "result hits", "translations");

  struct Config {
    const char* label;
    bool prepare;
  };
  const Config configs[] = {{"private/ad-hoc", false}, {"private/prepared", true}};
  for (const Config& config : configs) {
    std::vector<std::unique_ptr<Session>> fleet;
    for (uint64_t s = 0; s < fleet_size; ++s) {
      SessionOptions so = harness.MakeSessionOptions(BackendKind::kSeabed);
      so.result_cache_bytes = 64u << 20;
      auto member = std::make_unique<Session>(std::move(so));
      member->AttachPlanned(harness.plain_shared(), harness.schema(),
                            harness.seabed().plan("synthetic"));
      member->UseCluster(&cluster);
      fleet.push_back(std::move(member));
    }

    double modeled_seconds = 0;
    uint64_t result_hits = 0;
    uint64_t translations = 0;
    for (auto& member : fleet) {
      const PreparedQuery handle = config.prepare ? member->Prepare(shape) : PreparedQuery();
      for (uint64_t i = 0; i < panels; ++i) {
        const std::vector<Value> params = {literal_of(i)};
        QueryStats stats;
        if (config.prepare) {
          member->Execute(handle, params, &stats);
        } else {
          member->Execute(shape.BindParams(params), &stats);
        }
        modeled_seconds += stats.TotalSeconds() + stats.cache_lookup_seconds;
        result_hits += stats.cache_hit ? 1 : 0;
        translations += (!stats.cache_hit && !stats.plan_cache_hit) ? 1 : 0;
      }
      member->UseCluster(nullptr);
    }

    std::printf("%-28s %14.4f %14llu %14llu\n", config.label, modeled_seconds,
                static_cast<unsigned long long>(result_hits),
                static_cast<unsigned long long>(translations));
    recorder.Add(std::string("fleet_") + config.label,
                 {{"modeled_seconds", modeled_seconds},
                  {"result_hits", static_cast<double>(result_hits)},
                  {"translations", static_cast<double>(translations)}});
  }

  return regression ? 1 : 0;
}

}  // namespace
}  // namespace seabed

int main() { return seabed::Main(); }
