// Randomized cross-backend equivalence suite: every execution backend the
// Session facade offers must return identical rows for the same query. Each
// parameterized instance builds a random fact table (plus a random joinable
// dimension table) and replays ~20 random queries — filters, GROUP BY, JOIN,
// SUM/COUNT/AVG/MIN/MAX/VARIANCE — through
//
//   kPlain            (the reference semantics),
//   kSeabed           (ASHE/SPLASHE/DET/ORE pipeline),
//   kPaillier         (CryptDB/Monomi baseline; variance is out of its model),
//   kShardedSeabed    at shard counts {1, 2, 4, 7},
//   result cache on   kSeabed, and kShardedSeabed at 3 shards.
//
// PLACEMENT AXIS: placement is fixed at Attach, so the policies rotate as
// extra sessions rather than per trial: the sharded fleets at 4 and 7 shards
// and the 3-shard result-cache arm run AGAIN under kKeyRange (clustering on
// the fact table's `ts`; the dimension table keeps hash placement — mixed
// catalogs are the common case). Every trial's ts filters route those
// sessions to shard subsets, and the same rows must come back regardless of
// which shards were fanned out to.
//
// Ten seeds x ~20 trials ≈ 200 random queries per full run. This is the
// correctness argument for the fan-out/merge layer: coordinator aggregation
// must be indistinguishable from sequential execution (merge-at-coordinator
// equivalence, in the distributed-systems framing).
//
// The result-cache arms run every query TWICE — cold then warm — and both
// answers must match kPlain, in order; random appends to the fact and dimension
// tables are interleaved between trials (every backend gets the same
// batch), so a cache serving a stale pre-append result, or a plan cache
// serving a mistranslation, shows up as a row mismatch here.
//
// PREPARED AXIS: each trial additionally re-issues its query through
// Session::Prepare + bound Execute, with a random subset of the filter
// literals turned into placeholder slots — the translate-once/bind-per-call
// path (and its SPLASHE bind-then-ad-hoc fallback) must byte-match the
// ad-hoc rows on every backend.
//
// PROBE AXIS: the Seabed-pipeline backends additionally replay every query
// at probe mode off, auto and forced (src/seabed/probe.h) — the two-round
// row-group pruning (kSeabed) and the forced shard-level probe
// (kShardedSeabed) must be answer-invariant. The result-cache arms instead
// rotate the probe mode per trial BEFORE the cold run (a warm repeat is
// answered client-side and never reaches the scan). Execute gives
// appends no seam between round one and round two of a single call, so the
// adversarial interleaving is append-between-trials: summaries built by
// pre-append probes must not leak into post-append answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/seabed/service.h"
#include "src/seabed/session.h"
#include "src/seabed/sharded_backend.h"
#include "src/workload/synthetic.h"

namespace seabed {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 7};

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
  return rows;
}

bool HasVariance(const Query& q) {
  for (const Aggregate& agg : q.aggregates) {
    if (agg.func == AggFunc::kVariance || agg.func == AggFunc::kStddev) {
      return true;
    }
  }
  return false;
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalenceTest, RandomQueriesAgreeAcrossAllBackends) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  // --- random fact table ------------------------------------------------------
  const size_t rows = 300 + rng.Below(600);
  const uint64_t dim_card = 3 + rng.Below(5);
  const uint64_t grp_card = 2 + rng.Below(4);

  // --- random dimension (join) table ------------------------------------------
  const size_t dim_rows = 50 + rng.Below(100);
  const uint64_t key_card = 30 + rng.Below(40);  // < dim_rows: duplicate keys

  auto table = std::make_shared<Table>("fuzz");
  auto dim = std::make_shared<StringColumn>();
  auto grp = std::make_shared<StringColumn>();
  auto ts = std::make_shared<Int64Column>();
  auto m1 = std::make_shared<Int64Column>();
  auto m2 = std::make_shared<Int64Column>();
  auto fk = std::make_shared<Int64Column>();

  // Skewed dimension values: value k with weight ~ 1/(k+1).
  ValueDistribution dist;
  double total_weight = 0;
  for (uint64_t k = 0; k < dim_card; ++k) {
    dist.values.push_back("v" + std::to_string(k));
    dist.frequencies.push_back(1.0 / static_cast<double>(k + 1));
    total_weight += dist.frequencies.back();
  }
  for (auto& f : dist.frequencies) {
    f /= total_weight;
  }
  const ZipfSampler dim_sampler(dim_card, 1.0);
  for (size_t i = 0; i < rows; ++i) {
    dim->Append("v" + std::to_string(dim_sampler.Sample(rng)));
    grp->Append("g" + std::to_string(rng.Below(grp_card)));
    ts->Append(static_cast<int64_t>(rng.Below(100)));
    m1->Append(rng.Range(-50, 1000));
    m2->Append(rng.Range(0, 100));
    // ~1/9 of the foreign keys dangle (no dimension row matches).
    fk->Append(static_cast<int64_t>(rng.Below(key_card + key_card / 8)));
  }
  table->AddColumn("dim", dim);
  table->AddColumn("grp", grp);
  table->AddColumn("ts", ts);
  table->AddColumn("m1", m1);
  table->AddColumn("m2", m2);
  table->AddColumn("fk", fk);

  PlainSchema schema;
  schema.table_name = "fuzz";
  schema.columns.push_back({"dim", ColumnType::kString, true, dist});
  schema.columns.push_back({"grp", ColumnType::kString, true, std::nullopt});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"m1", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"m2", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"fk", ColumnType::kInt64, true, std::nullopt});

  auto dim_table = std::make_shared<Table>("dimt");
  auto key = std::make_shared<Int64Column>();
  auto score = std::make_shared<Int64Column>();
  auto cat = std::make_shared<StringColumn>();
  for (size_t i = 0; i < dim_rows; ++i) {
    key->Append(static_cast<int64_t>(rng.Below(key_card)));
    score->Append(rng.Range(-20, 500));
    cat->Append("c" + std::to_string(rng.Below(3)));
  }
  dim_table->AddColumn("key", key);
  dim_table->AddColumn("score", score);
  dim_table->AddColumn("cat", cat);

  PlainSchema dim_schema;
  dim_schema.table_name = "dimt";
  dim_schema.columns.push_back({"key", ColumnType::kInt64, true, std::nullopt});
  dim_schema.columns.push_back({"score", ColumnType::kInt64, true, std::nullopt});
  dim_schema.columns.push_back({"cat", ColumnType::kString, false, std::nullopt});

  // --- planner samples --------------------------------------------------------
  std::vector<Query> samples;
  {
    // Additive aggregates + the dim filter (SPLASHE-compatible)...
    Query q;
    q.table = "fuzz";
    q.Sum("m1").Sum("m2").Count().Avg("m1");
    q.Where("dim", CmpOp::kEq, std::string("v0"));
    q.GroupBy("grp");
    samples.push_back(q);
    // ...the non-additive shapes in separate queries, so the planner keeps
    // SPLASHE for `dim`...
    Query q2;
    q2.table = "fuzz";
    q2.Variance("m1").Variance("m2").Min("ts").Max("ts");
    q2.Where("ts", CmpOp::kGe, int64_t{0});
    samples.push_back(q2);
    // ...and a join so `fk` gets a DET column.
    Query q3;
    q3.table = "fuzz";
    q3.Sum("m1");
    q3.join = Join{"dimt", "fk", "right:key"};
    samples.push_back(q3);
  }
  std::vector<Query> dim_samples;
  {
    Query q;
    q.table = "dimt";
    q.Sum("score").Avg("score");
    q.join = Join{"fuzz", "key", "right:fk"};
    dim_samples.push_back(q);
  }

  // --- one session per backend ------------------------------------------------
  auto options_for = [&](BackendKind backend, size_t shards) {
    SessionOptions options;
    options.backend = backend;
    options.shards = shards;
    options.planner.expected_rows = rows;
    options.paillier.modulus_bits = 256;
    options.key_seed = seed * 31 + 7;
    options.cluster.num_workers = 1 + rng.Below(6);
    options.cluster.job_overhead_seconds = 0;
    options.cluster.task_overhead_seconds = 0;
    return options;
  };

  struct Backend {
    std::string label;
    std::unique_ptr<Session> session;
    bool supports_variance = true;
    bool honors_translator_options = false;
    bool caching = false;       // result cache on: cold + warm must both match kPlain
    bool probe_axis = false;    // replay at probe off/auto/forced
  };
  std::vector<Backend> backends;
  backends.push_back({"plain", std::make_unique<Session>(options_for(BackendKind::kPlain, 1)),
                      true, false, false, false});
  backends.push_back({"seabed", std::make_unique<Session>(options_for(BackendKind::kSeabed, 1)),
                      true, true, false, true});
  backends.push_back(
      {"paillier", std::make_unique<Session>(options_for(BackendKind::kPaillier, 1)),
       /*supports_variance=*/false, false, false, false});
  auto key_range = [](SessionOptions options) {
    options.shards_placement.policy = PlacementPolicy::kKeyRange;
    options.shards_placement.clustering_columns["fuzz"] = "ts";
    return options;
  };
  for (const size_t shards : kShardCounts) {
    backends.push_back({"sharded-" + std::to_string(shards),
                        std::make_unique<Session>(options_for(BackendKind::kShardedSeabed, shards)),
                        true, true, false, true});
    if (shards >= 4) {
      backends.push_back(
          {"sharded-" + std::to_string(shards) + "-keyrange",
           std::make_unique<Session>(key_range(options_for(BackendKind::kShardedSeabed, shards))),
           true, true, false, true});
    }
  }
  auto with_result_cache = [](SessionOptions options) {
    options.result_cache_bytes = 16u << 20;
    return options;
  };
  backends.push_back(
      {"seabed-resultcache",
       std::make_unique<Session>(with_result_cache(options_for(BackendKind::kSeabed, 1))), true,
       true, true, true});
  backends.push_back(
      {"sharded-3-resultcache",
       std::make_unique<Session>(with_result_cache(options_for(BackendKind::kShardedSeabed, 3))),
       true, true, true, true});
  backends.push_back({"sharded-3-keyrange-resultcache",
                      std::make_unique<Session>(with_result_cache(
                          key_range(options_for(BackendKind::kShardedSeabed, 3)))),
                      true, true, true, true});
  for (Backend& b : backends) {
    // Every session owns its tables: the append rounds below grow them.
    b.session->Attach(CloneTable(*table), schema, samples);
    b.session->Attach(CloneTable(*dim_table), dim_schema, dim_samples);
  }

  // --- random append batches --------------------------------------------------
  auto make_fact_batch = [&](size_t n) {
    auto batch = std::make_shared<Table>("fuzz");
    auto bdim = std::make_shared<StringColumn>();
    auto bgrp = std::make_shared<StringColumn>();
    auto bts = std::make_shared<Int64Column>();
    auto bm1 = std::make_shared<Int64Column>();
    auto bm2 = std::make_shared<Int64Column>();
    auto bfk = std::make_shared<Int64Column>();
    for (size_t i = 0; i < n; ++i) {
      bdim->Append("v" + std::to_string(dim_sampler.Sample(rng)));
      bgrp->Append("g" + std::to_string(rng.Below(grp_card)));
      bts->Append(static_cast<int64_t>(rng.Below(100)));
      bm1->Append(rng.Range(-50, 1000));
      bm2->Append(rng.Range(0, 100));
      bfk->Append(static_cast<int64_t>(rng.Below(key_card + key_card / 8)));
    }
    batch->AddColumn("dim", bdim);
    batch->AddColumn("grp", bgrp);
    batch->AddColumn("ts", bts);
    batch->AddColumn("m1", bm1);
    batch->AddColumn("m2", bm2);
    batch->AddColumn("fk", bfk);
    return batch;
  };
  auto make_dim_batch = [&](size_t n) {
    auto batch = std::make_shared<Table>("dimt");
    auto bkey = std::make_shared<Int64Column>();
    auto bscore = std::make_shared<Int64Column>();
    auto bcat = std::make_shared<StringColumn>();
    for (size_t i = 0; i < n; ++i) {
      bkey->Append(static_cast<int64_t>(rng.Below(key_card)));
      bscore->Append(rng.Range(-20, 500));
      bcat->Append("c" + std::to_string(rng.Below(3)));
    }
    batch->AddColumn("key", bkey);
    batch->AddColumn("score", bscore);
    batch->AddColumn("cat", bcat);
    return batch;
  };

  // --- random queries ---------------------------------------------------------
  for (int trial = 0; trial < 20; ++trial) {
    // Append rounds interleave with the queries: every backend ingests the
    // same batch, so answers stay comparable — and any cached result that
    // survives its table's growth (stale ciphertext) diverges from kPlain
    // on the very next trial, which re-issues earlier query shapes by
    // construction (same rng stream prefix reuse is not needed: repeated
    // shapes occur naturally and the result-cache arms re-run EVERY query
    // warm below).
    if (trial == 5 || trial == 12) {
      const auto batch = make_fact_batch(40 + rng.Below(60));
      for (Backend& b : backends) {
        b.session->Append("fuzz", *batch);
      }
    }
    if (trial == 15) {
      const auto batch = make_dim_batch(10 + rng.Below(20));
      for (Backend& b : backends) {
        b.session->Append("dimt", *batch);
      }
    }

    Query q;
    q.table = "fuzz";
    const bool join_query = rng.Chance(0.3);
    if (join_query) {
      q.join = Join{"dimt", "fk", "right:key"};
    }
    // Random filters first: variance over SPLASHE-splayed measures is
    // unsupported (the encryptor has no squared splayed columns), so the
    // aggregate mix depends on whether the dim filter is present.
    const bool dim_filtered = !join_query && rng.Chance(0.5);
    if (dim_filtered) {
      q.Where("dim", CmpOp::kEq, "v" + std::to_string(rng.Below(dim_card)));
    }
    const char* measures[] = {"m1", "m2"};
    const size_t num_aggs = 1 + rng.Below(3);
    for (size_t a = 0; a < num_aggs; ++a) {
      const std::string alias = "agg" + std::to_string(a);
      if (join_query && rng.Chance(0.4)) {
        // Aggregates over the joined table exercise the replica path.
        if (rng.Chance(0.5)) {
          q.Sum("right:score", alias);
        } else {
          q.Avg("right:score", alias);
        }
        continue;
      }
      const std::string m = measures[rng.Below(2)];
      switch (rng.Below(6)) {
        case 0:
          q.Sum(m, alias);
          break;
        case 1:
          q.Count(alias);
          break;
        case 2:
          q.Avg(m, alias);
          break;
        case 3:
          if (dim_filtered || join_query) {
            q.Sum(m, alias);
          } else {
            q.Variance(m, alias);
          }
          break;
        case 4:
          if (dim_filtered) {
            q.Count(alias);
          } else {
            q.Min("ts", alias);
          }
          break;
        default:
          if (dim_filtered) {
            q.Avg(m, alias);
          } else {
            q.Max("ts", alias);
          }
          break;
      }
    }
    if (rng.Chance(0.5)) {
      const int64_t bound = static_cast<int64_t>(rng.Below(100));
      q.Where("ts", rng.Chance(0.5) ? CmpOp::kGe : CmpOp::kLt, bound);
    }
    if (join_query && rng.Chance(0.4)) {
      q.Where("right:cat", CmpOp::kEq, "c" + std::to_string(rng.Below(3)));
    }
    if (rng.Chance(0.4)) {
      if (join_query && rng.Chance(0.5)) {
        q.GroupBy("right:cat");
      } else {
        q.GroupBy("grp");
        q.expected_groups = rng.Chance(0.5) ? grp_card : 0;
      }
    }
    // Exercise the sharded backend's probe round (the flag is a no-op on the
    // single-server backends).
    q.needs_two_round_trips = rng.Chance(0.15);

    TranslatorOptions topts;
    topts.idlist.use_range = rng.Chance(0.7);
    topts.idlist.compression = static_cast<IdListCompression>(rng.Below(3));
    topts.worker_side_compression = rng.Chance(0.7);

    SCOPED_TRACE("seed=" + std::to_string(seed) + " trial=" + std::to_string(trial));
    const std::vector<std::string> reference =
        RowsAsStrings(backends.front().session->Execute(q, nullptr));

    // --- prepared axis --------------------------------------------------------
    // The same query re-issued through Prepare+bind: a random subset of the
    // filter literals become placeholder slots (placeholders that land on
    // SPLASHE-protected columns exercise the bind-then-ad-hoc fallback), and
    // the bound execution must byte-match the ad-hoc answer on every backend.
    // One parameterization per trial so all backends prepare the same shape.
    Query shape = q;
    std::vector<Value> params;
    for (Predicate& p : shape.filters) {
      if (rng.Chance(0.75)) {
        p.param = static_cast<int>(params.size());
        params.push_back(p.operand);
      }
    }
    const bool prepared_axis = !params.empty();
    if (prepared_axis) {
      const PreparedQuery prep = backends.front().session->Prepare(shape);
      EXPECT_EQ(RowsAsStrings(backends.front().session->Execute(prep, params)), reference);
    }

    // Small row groups so the ~300-900-row tables still span several groups
    // and the probes genuinely prune.
    constexpr ProbeMode kProbeModes[] = {ProbeMode::kOff, ProbeMode::kAuto, ProbeMode::kForced};
    auto probe_options = [](ProbeMode mode) {
      ProbeOptions popts;
      popts.mode = mode;
      popts.row_group_size = 128;
      return popts;
    };

    for (size_t b = 1; b < backends.size(); ++b) {
      Backend& backend = backends[b];
      if (HasVariance(q) && !backend.supports_variance) {
        continue;  // the Paillier baseline stores no squared columns
      }
      if (backend.honors_translator_options) {
        backend.session->set_translator_options(topts);
      }
      SCOPED_TRACE("backend=" + backend.label);
      if (prepared_axis) {
        const PreparedQuery prep = backend.session->Prepare(shape);
        QueryStats pstats;
        EXPECT_EQ(RowsAsStrings(backend.session->Execute(prep, params, &pstats)), reference);
        EXPECT_TRUE(pstats.prepared);
        EXPECT_GE(pstats.bind_seconds, 0.0);
      }
      if (backend.probe_axis && !backend.caching) {
        // Probe axis: identical rows at off, auto and forced.
        for (const ProbeMode mode : kProbeModes) {
          SCOPED_TRACE(std::string("probe=") + ProbeModeName(mode));
          backend.session->set_probe_options(probe_options(mode));
          QueryStats stats;
          EXPECT_EQ(RowsAsStrings(backend.session->Execute(q, &stats)), reference);
          if (mode == ProbeMode::kOff && !q.needs_two_round_trips) {
            EXPECT_FALSE(stats.probe_used);
          }
        }
        continue;
      }
      if (backend.probe_axis && backend.caching) {
        // A warm repeat never reaches the scan, so the probe mode rotates
        // per trial and applies to the cold run.
        backend.session->set_probe_options(probe_options(kProbeModes[trial % 3]));
      }
      QueryStats cold;
      EXPECT_EQ(RowsAsStrings(backend.session->Execute(q, &cold)), reference);
      if (backend.caching) {
        // Warm path: the repeat must be answered from the cache and still
        // byte-match the plaintext reference — without probing.
        QueryStats warm;
        EXPECT_EQ(RowsAsStrings(backend.session->Execute(q, &warm)), reference);
        EXPECT_TRUE(warm.cache_hit);
        EXPECT_FALSE(warm.probe_used);
        EXPECT_EQ(warm.result_rows, cold.result_rows);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- skewed-append axis ------------------------------------------------------
//
// Appends place whole batches (append locality), so a stream steered onto
// one placement bucket concentrates rows on one shard. This axis drives that
// worst case: every batch lands on the same shard, and the sharded backend
// with rebalancing OFF and ON must both stay equivalent to kPlain while the
// rebalancer migrates whole row-groups behind the queries' back. Probe modes
// rotate per trial so pruned two-round execution also runs over migrated
// groups.
//
// The same stream is the key-range worst case for free: batch timestamps
// increase monotonically (ts_base = running row count), so under kKeyRange
// every appended key lands past the top shard's boundary — the hot-tail
// skew that placement policy rebalances with cascaded boundary moves. Two
// kKeyRange sessions (rebalance off/on) ride along; the trials' ts filters
// route them to shard subsets over boundaries that keep shifting.
class SkewedAppendFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkewedAppendFuzzTest, SkewedStreamsStayEquivalentWithRebalanceOnAndOff) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr size_t kShards = 4;

  auto make_batch = [&](size_t n, int64_t ts_base) {
    auto batch = std::make_shared<Table>("skew");
    auto seg = std::make_shared<StringColumn>();
    auto ts = std::make_shared<Int64Column>();
    auto value = std::make_shared<Int64Column>();
    for (size_t i = 0; i < n; ++i) {
      seg->Append("k" + std::to_string(rng.Below(4)));
      ts->Append(ts_base + static_cast<int64_t>(i));
      value->Append(rng.Range(-50, 500));
    }
    batch->AddColumn("seg", seg);
    batch->AddColumn("ts", ts);
    batch->AddColumn("value", value);
    return batch;
  };

  PlainSchema schema;
  schema.table_name = "skew";
  schema.columns.push_back({"seg", ColumnType::kString, true, std::nullopt});
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"value", ColumnType::kInt64, true, std::nullopt});
  std::vector<Query> samples;
  {
    Query q;
    q.table = "skew";
    q.Sum("value").Count().Min("ts").Max("ts");
    q.Where("seg", CmpOp::kEq, std::string("k0"));
    q.Where("ts", CmpOp::kGe, int64_t{0});
    q.GroupBy("seg");
    samples.push_back(q);
  }

  auto options_for = [&](BackendKind backend, bool rebalance, bool key_range = false) {
    SessionOptions options;
    options.backend = backend;
    options.shards = kShards;
    options.planner.expected_rows = 400;
    options.key_seed = seed * 17 + 3;
    options.cluster.num_workers = 4;
    options.cluster.job_overhead_seconds = 0;
    options.cluster.task_overhead_seconds = 0;
    if (rebalance) {
      options.shards_rebalance.enabled = true;
      options.shards_rebalance.max_skew_ratio = 1.2;
      options.shards_rebalance.row_group_size = 64;
    }
    if (key_range) {
      options.shards_placement.policy = PlacementPolicy::kKeyRange;
      options.shards_placement.clustering_columns["skew"] = "ts";
    }
    return options;
  };
  struct Backend {
    std::string label;
    std::unique_ptr<Session> session;
  };
  std::vector<Backend> backends;
  backends.push_back({"plain", std::make_unique<Session>(options_for(BackendKind::kPlain, false))});
  backends.push_back(
      {"sharded", std::make_unique<Session>(options_for(BackendKind::kShardedSeabed, false))});
  backends.push_back(
      {"sharded-rebal",
       std::make_unique<Session>(options_for(BackendKind::kShardedSeabed, true))});
  backends.push_back(
      {"ranged", std::make_unique<Session>(
                     options_for(BackendKind::kShardedSeabed, false, /*key_range=*/true))});
  backends.push_back(
      {"ranged-rebal", std::make_unique<Session>(
                           options_for(BackendKind::kShardedSeabed, true, /*key_range=*/true))});

  const auto base = make_batch(300 + rng.Below(200), 0);
  for (Backend& b : backends) {
    b.session->Attach(CloneTable(*base), schema, samples);
  }
  auto& placement =
      static_cast<const ShardedSeabedBackend&>(backends[1].session->executor());

  // Every append steered onto one bucket: 1-row fillers advance the global
  // row count until the placement hash points at the hot shard, then the
  // real batch lands there whole. All sessions ingest identical batches.
  size_t total_rows = base->NumRows();
  const size_t hot = placement.ShardOfRow(total_rows);
  auto append_all = [&](const std::shared_ptr<Table>& batch) {
    for (Backend& b : backends) {
      b.session->Append("skew", *batch);
    }
    total_rows += batch->NumRows();
  };
  constexpr ProbeMode kProbeModes[] = {ProbeMode::kOff, ProbeMode::kAuto, ProbeMode::kForced};
  for (int trial = 0; trial < 8; ++trial) {
    while (placement.ShardOfRow(total_rows) != hot) {
      append_all(make_batch(1, static_cast<int64_t>(total_rows)));
    }
    append_all(make_batch(120 + rng.Below(120), static_cast<int64_t>(total_rows)));

    Query q;
    q.table = "skew";
    q.Sum("value", "a0").Count("a1");
    if (rng.Chance(0.6)) {
      q.Where("seg", CmpOp::kEq, "k" + std::to_string(rng.Below(5)));
    }
    if (rng.Chance(0.5)) {
      q.Where("ts", rng.Chance(0.5) ? CmpOp::kGe : CmpOp::kLt,
              static_cast<int64_t>(rng.Below(total_rows)));
    }
    if (rng.Chance(0.3)) {
      q.GroupBy("seg");
    }
    q.needs_two_round_trips = rng.Chance(0.25);

    // One probe mode per trial (not all three every trial): a trial at kOff
    // leaves the row-group indexes untouched while appends — and the
    // rebalancer's shrink-then-regrow table swaps — keep happening, so a
    // later kForced trial probes across a genuinely stale window.
    const ProbeMode mode = kProbeModes[(trial + static_cast<int>(seed)) % 3];
    SCOPED_TRACE("seed=" + std::to_string(seed) + " trial=" + std::to_string(trial) +
                 " probe=" + ProbeModeName(mode));
    const auto reference = RowsAsStrings(backends.front().session->Execute(q, nullptr));
    for (size_t b = 1; b < backends.size(); ++b) {
      SCOPED_TRACE("backend=" + backends[b].label);
      ProbeOptions popts;
      popts.mode = mode;
      popts.row_group_size = 64;
      backends[b].session->set_probe_options(popts);
      EXPECT_EQ(RowsAsStrings(backends[b].session->Execute(q, nullptr)), reference);
    }
  }

  // The axis only proves something if the stream was skewed and the
  // rebalancer actually moved row-groups.
  const auto skewed_counts = placement.ShardRowCounts("skew");
  EXPECT_GT(*std::max_element(skewed_counts.begin(), skewed_counts.end()),
            total_rows / 2);
  const std::optional<RebalanceStats> stats = backends[2].session->rebalance_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->rebalances, 0u);
  EXPECT_GT(stats->rows_moved, 0u);
  // ...and on the key-range arm, that the hot tail was real (the top shard
  // took the stream without rebalancing) and boundary moves fired with it on.
  const auto ranged_counts = static_cast<const ShardedSeabedBackend&>(
                                 backends[3].session->executor())
                                 .ShardRowCounts("skew");
  EXPECT_EQ(*std::max_element(ranged_counts.begin(), ranged_counts.end()),
            ranged_counts.back());
  const std::optional<RebalanceStats> ranged_stats = backends[4].session->rebalance_stats();
  ASSERT_TRUE(ranged_stats.has_value());
  EXPECT_GT(ranged_stats->rebalances, 0u);
  EXPECT_GT(ranged_stats->rows_moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewedAppendFuzzTest, ::testing::Values(7, 19, 42));

// --- service concurrency axis ------------------------------------------------
//
// The fuzz stream through seabed::Service instead of a caller-thread session:
// M submitter threads race a random query mix into the serving queue, and an
// append is pushed while those queries are still queued/in flight. Every
// answer must equal a sequential kPlain execution at a consistent point:
// each query pins one published table version, so it must equal the pre- OR
// the post-append reference — anything else (torn reads, stale caches, lost
// rows) fails both. No lane gets a byte-for-byte pre-append guarantee
// anymore: the append's barrier is ordering-only, so a query dequeued before
// the barrier may still pin the post-append version if the append publishes
// first. The flip side is the observable claim — appends never block
// queries — asserted via the exec spans: across the run, some append's
// wall-time span must overlap a concurrently executing query group's span.
// The backend stack rotates with the seed (single-server, sharded fan-out,
// sharded with the result cache on), so the axis covers every snapshot read
// path.
class ServiceConcurrencyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceConcurrencyFuzzTest, ThreadedServiceStreamEqualsSequentialPlain) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr int kPhases = 3;
  constexpr size_t kSubmitThreads = 4;
  constexpr size_t kQueriesPerPhase = 16;

  SyntheticSpec spec;
  spec.rows = 400 + rng.Below(400);
  spec.seed = seed * 13 + 1;
  spec.group_cardinality = 2 + rng.Below(5);
  const std::shared_ptr<Table> base = MakeSyntheticTable(spec);
  const PlainSchema schema = SyntheticSchema(spec);
  const std::vector<Query> samples = SyntheticSampleQueries(spec);

  SessionOptions plain_options;
  plain_options.backend = BackendKind::kPlain;
  plain_options.planner.expected_rows = spec.rows;
  plain_options.cluster.job_overhead_seconds = 0;
  plain_options.cluster.task_overhead_seconds = 0;
  Session plain(plain_options);
  plain.Attach(CloneTable(*base), schema, samples);

  ServiceOptions service_options;
  service_options.session = plain_options;
  service_options.session.key_seed = seed * 31 + 7;
  service_options.session.shards = 3;
  service_options.session.cluster.num_workers = 1 + rng.Below(4);
  switch (seed % 3) {
    case 0:
      service_options.session.backend = BackendKind::kSeabed;
      break;
    case 1:
      service_options.session.backend = BackendKind::kShardedSeabed;
      break;
    default:
      service_options.session.backend = BackendKind::kShardedSeabed;
      service_options.session.result_cache_bytes = 16u << 20;
      break;
  }
  service_options.num_workers = 4;
  // Stretch each dispatched group's exec span with the modeled-latency
  // pacer (real execution on these tiny tables is sub-millisecond, so the
  // queue would otherwise drain before the append barrier ever pops). The
  // ordering-only barrier pops once every query group has been DEQUEUED,
  // not finished, so the append reliably executes while paced groups are
  // still inside their spans — which is exactly the overlap the tentpole
  // assertion below demands. Answers are unaffected: pacing only sleeps.
  service_options.session.cluster.job_overhead_seconds = 0.02;
  service_options.pace_modeled_latency = true;
  service_options.max_batch = 1 + rng.Below(8);
  service_options.max_queue_depth = 256;  // never reject: the stream must be lossless
  Service service(service_options);
  service.Attach(CloneTable(*base), schema, samples);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " backend=" +
               BackendKindName(service_options.session.backend) +
               (service_options.session.result_cache_bytes > 0 ? "+resultcache" : ""));

  auto random_query = [&]() {
    Query q;
    q.table = "synthetic";
    switch (rng.Below(3)) {
      case 0:
        q.Sum("value", "a0");
        break;
      case 1:
        q.Sum("value", "a0").Count("a1");
        break;
      default:
        q.Avg("value", "a0");
        break;
    }
    if (rng.Chance(0.7)) {
      q.Where("sel", CmpOp::kLt, static_cast<int64_t>(5 + rng.Below(95)));
    }
    if (rng.Chance(0.4)) {
      q.GroupBy("grp");
      q.expected_groups = spec.group_cardinality;
    }
    return q;
  };

  size_t append_query_overlaps = 0;
  for (int phase = 0; phase < kPhases; ++phase) {
    SCOPED_TRACE("phase=" + std::to_string(phase));
    std::vector<Query> queries;
    std::vector<std::vector<std::string>> references;
    for (size_t i = 0; i < kQueriesPerPhase; ++i) {
      queries.push_back(random_query());
      references.push_back(RowsAsStrings(plain.Execute(queries.back())));
    }

    // Race the phase's queries in from kSubmitThreads producers...
    std::vector<std::future<ServiceResult>> futures(kQueriesPerPhase);
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = t; i < kQueriesPerPhase; i += kSubmitThreads) {
          SubmitOptions submit;
          submit.lane = (i % 2 == 0) ? ServiceLane::kInteractive : ServiceLane::kBatch;
          futures[i] = service.Submit(queries[i], submit);
        }
      });
    }
    for (std::thread& t : submitters) {
      t.join();
    }

    // ...then push the append while they are still queued or in flight: the
    // barrier must order it after every one of them.
    SyntheticSpec batch_spec = spec;
    batch_spec.rows = 30 + rng.Below(80);
    batch_spec.seed = seed * 101 + static_cast<uint64_t>(phase);
    const std::shared_ptr<Table> batch = MakeSyntheticTable(batch_spec);
    std::future<ServiceResult> appended = service.SubmitAppend("synthetic", batch);

    plain.Append("synthetic", *batch);
    const ServiceResult append_result = appended.get();
    ASSERT_TRUE(append_result.ok);
    for (size_t i = 0; i < kQueriesPerPhase; ++i) {
      ServiceResult r = futures[i].get();
      ASSERT_TRUE(r.ok) << "query " << i << ": " << r.error;
      EXPECT_EQ(r.stats.admission, AdmissionOutcome::kAdmitted);
      // Every query pins one published version — the answer must be one of
      // the two sequential references, never a torn state. (No lane is
      // guaranteed the pre-append table: a query dequeued before the
      // barrier may still pin the version the append published first.)
      const std::vector<std::string> got = RowsAsStrings(r.rows);
      EXPECT_TRUE(got == references[i] || got == RowsAsStrings(plain.Execute(queries[i])))
          << "query " << i << " matches neither the pre- nor post-append reference";
      // Appends-never-block-queries, observed: count query spans the
      // append's execution span overlapped.
      if (r.stats.exec_begin < append_result.stats.exec_end &&
          append_result.stats.exec_begin < r.stats.exec_end) {
        ++append_query_overlaps;
      }
    }
  }
  // Across the whole run some append must have executed WHILE a query group
  // was executing — an append discipline that excluded queries would make
  // that impossible.
  EXPECT_GT(append_query_overlaps, 0u);

  service.Shutdown();
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.executed, static_cast<uint64_t>(kPhases) * kQueriesPerPhase);
  EXPECT_EQ(counters.appends, static_cast<uint64_t>(kPhases));
  EXPECT_EQ(counters.rejected_queue_full, 0u);
  EXPECT_EQ(counters.expired, 0u);
}

// 12 % 3 / 23 % 3 / 46 % 3 pick one seed per backend stack.
INSTANTIATE_TEST_SUITE_P(Seeds, ServiceConcurrencyFuzzTest, ::testing::Values(12, 23, 46));

}  // namespace
}  // namespace seabed
