// The three single-server kSeabed workloads: one closed-loop client replays a
// seeded query cycle through Session::Execute and checks every answer against
// the kPlain answer precomputed for that cycle slot.
//
//   synthetic_scan    narrow 1-measure table; server scan kernels, ASHE
//                     aggregation and client PRF decode dominate
//   adtech_dashboard  51-column ad-analytics table with SPLASHE filters;
//                     translation and multi-aggregate decryption weigh more
//   bdb_join          Big Data Benchmark Q1/Q3/Q4; the only workload on the
//                     row-at-a-time join path
//
// A traced run replays every query a second time by hand through
// Translator::Translate, Server::Execute and Client::Decrypt against the
// session's own encrypted database, keys and cluster, so each layer's wall
// time is measured at its public entry point without instrumenting src/.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench/e2e/e2e.h"
#include "src/common/rng.h"
#include "src/engine/serialize.h"
#include "src/seabed/client.h"
#include "src/seabed/server.h"
#include "src/seabed/session.h"
#include "src/seabed/snapshot.h"
#include "src/workload/ad_analytics.h"
#include "src/workload/bdb.h"
#include "src/workload/synthetic.h"

namespace seabed::e2e {
namespace {

// Rows at scale 1.0. Sized so a set-up pass takes about a second on four
// cores and every workload records well over 400 latency samples in a 15 s
// window.
constexpr uint64_t kSyntheticRows = 500000;
constexpr uint64_t kAdRows = 100000;
constexpr uint64_t kBdbRankings = 20000;
constexpr uint64_t kBdbUserVisits = 60000;
constexpr uint64_t kBdbUrls = 6666;

constexpr size_t kCycleLength = 200;  // queries per seeded cycle
constexpr size_t kBatchRows = 2000;   // rows per append batch
constexpr int kSetupPasses = 5;  // setup_s is their median

struct TableInput {
  std::shared_ptr<Table> plain;
  PlainSchema schema;
  std::vector<Query> samples;
};

struct Workload {
  PlannerOptions planner;
  std::vector<TableInput> tables;  // attach order
  std::string fact;                // target of the post-window append/copy probes
  std::vector<std::string> class_names;
  std::vector<Query> cycle;         // replayed in order, wrapping around
  std::vector<size_t> cycle_class;  // class of each cycle slot
  Query bind_shape;                 // placeholder shape for translator.bind_us_p50
  std::vector<std::vector<Value>> bind_params;
  std::function<std::shared_ptr<Table>(uint64_t seed)> make_batch;  // kBatchRows rows
};

uint64_t Scaled(uint64_t rows, double scale) {
  return std::max<uint64_t>(1000, static_cast<uint64_t>(static_cast<double>(rows) * scale));
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

// n points of [0, 1) spread evenly from a seeded offset, in seeded order.
// Query parameters are drawn this way rather than independently: every seed
// then runs the same spread of parameters — so a cycle's cost repeats across
// seeds — while the exact values and their order still vary.
std::vector<double> SpreadUnit(size_t n, Rng& rng) {
  const double offset = rng.NextDouble();
  std::vector<double> u;
  for (size_t i = 0; i < n; ++i) {
    u.push_back((static_cast<double>(i) + offset) / static_cast<double>(n));
  }
  Shuffle(u, rng);
  return u;
}

// n integers spread evenly over [lo, hi] (see SpreadUnit).
std::vector<int64_t> Spread(int64_t lo, int64_t hi, size_t n, Rng& rng) {
  std::vector<int64_t> out;
  for (const double u : SpreadUnit(n, rng)) {
    out.push_back(lo + static_cast<int64_t>(u * static_cast<double>(hi - lo + 1)));
  }
  return out;
}

// Slots of each class in one cycle, from its share in percent.
size_t Slots(size_t percent) { return percent * kCycleLength / 100; }

// Interleaves the per-class query lists into the cycle in a seeded order.
void Interleave(Workload& w, std::vector<std::vector<Query>> per_class, Rng& rng) {
  for (size_t c = 0; c < per_class.size(); ++c) {
    w.cycle_class.insert(w.cycle_class.end(), per_class[c].size(), c);
  }
  Shuffle(w.cycle_class, rng);
  std::vector<size_t> next(per_class.size(), 0);
  for (const size_t c : w.cycle_class) {
    w.cycle.push_back(std::move(per_class[c][next[c]++]));
  }
}

// --- synthetic_scan ----------------------------------------------------------

Query SyntheticQuery(bool group_by, std::optional<int64_t> sel_below,
                     std::optional<int64_t> grp_eq) {
  Query q;
  q.table = "synthetic";
  q.Sum("value", "s");
  if (group_by) {
    q.GroupBy("grp");
    q.expected_groups = 100;
  } else {
    q.Count("n");
  }
  if (sel_below.has_value()) {
    q.Where("sel", CmpOp::kLt, *sel_below);
  }
  if (grp_eq.has_value()) {
    q.Where("grp", CmpOp::kEq, *grp_eq);
  }
  return q;
}

Workload MakeSyntheticScan(const RunOptions& options) {
  SyntheticSpec spec;
  spec.rows = Scaled(kSyntheticRows, options.scale);
  spec.seed = options.seed;
  spec.group_cardinality = 100;

  // sel and grp are sensitive, so the planner gives them ORE (range filter)
  // and DET (equality + GROUP BY) instead of leaving them in the clear.
  PlainSchema schema = SyntheticSchema(spec);
  for (PlainColumnSpec& col : schema.columns) {
    col.sensitive = true;
  }

  Workload w;
  w.planner.expected_rows = spec.rows;
  w.fact = "synthetic";
  w.tables.push_back({MakeSyntheticTable(spec), schema,
                      {SyntheticQuery(false, 50, std::nullopt),
                       SyntheticQuery(false, std::nullopt, 7),
                       SyntheticQuery(true, std::nullopt, std::nullopt),
                       SyntheticQuery(true, 50, std::nullopt)}});

  // 60% SUM+COUNT WHERE sel < p; 20% WHERE grp = k; 20% GROUP BY grp, half
  // of them with a sel filter.
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  w.class_names = {"sel<p", "grp=k", "groupby", "groupby+sel"};
  std::vector<std::vector<Query>> per_class(4);
  for (const int64_t p : Spread(1, 100, Slots(60), rng)) {
    per_class[0].push_back(SyntheticQuery(false, p, std::nullopt));
  }
  for (const int64_t k : Spread(0, 99, Slots(20), rng)) {
    per_class[1].push_back(SyntheticQuery(false, std::nullopt, k));
  }
  per_class[2].assign(Slots(10), SyntheticQuery(true, std::nullopt, std::nullopt));
  for (const int64_t p : Spread(1, 100, Slots(10), rng)) {
    per_class[3].push_back(SyntheticQuery(true, p, std::nullopt));
  }
  Interleave(w, std::move(per_class), rng);

  w.bind_shape.table = "synthetic";
  w.bind_shape.Sum("value", "s").Count("n").WhereParam("sel", CmpOp::kLt);
  for (const int64_t p : Spread(1, 100, 200, rng)) {
    w.bind_params.push_back({Value(p)});
  }
  w.make_batch = [spec](uint64_t seed) {
    SyntheticSpec b = spec;
    b.rows = kBatchRows;
    b.seed = seed;
    return MakeSyntheticTable(b);
  };
  return w;
}

// --- adtech_dashboard --------------------------------------------------------

Workload MakeAdtechDashboard(const RunOptions& options) {
  AdAnalyticsSpec spec;
  spec.rows = Scaled(kAdRows, options.scale);
  spec.seed = options.seed;
  const PlainSchema schema = AdAnalyticsSchema(spec);

  Workload w;
  w.planner.expected_rows = spec.rows;
  w.planner.max_storage_expansion = 0;  // splay every SPLASHE candidate
  w.fact = "ad_analytics";
  std::vector<Query> samples = AdAnalyticsSampleQueries(spec);
  for (uint64_t v = 0; v < 10; ++v) {
    samples.push_back(AdAnalyticsPerfQuery(12, 3, v));
  }
  w.tables.push_back({MakeAdAnalyticsTable(spec), schema, samples});

  // 60% replays of the query log's shape, 40% sensitive-dimension filters.
  // Not 50/50: the filter class is bimodal (values SPLASHE splays are
  // cheap, the rest are not), and at 50% the median would sit on the
  // boundary between the two classes.
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 2);
  w.class_names = {"log", "sdim=v"};
  std::vector<std::vector<Query>> per_class(2);
  // The query log's shape (AdAnalyticsQueryLog): 1-12 hourly groups x 1-3
  // measures, every combination equally often, 20% with client
  // post-processing.
  const size_t combo_offset = rng.Below(36);
  for (size_t i = 0; i < Slots(60); ++i) {
    const size_t combo = (combo_offset + i) % 36;
    Query q = AdAnalyticsPerfQuery(1 + combo % 12, 1 + combo / 12, rng.Next());
    q.has_udf = i % 5 == 0;
    per_class[0].push_back(std::move(q));
  }
  // A sensitive dimension filtered on a value drawn from its own
  // distribution: each dimension equally often, values by spread quantile.
  const size_t dims = spec.sensitive_dim_cardinalities.size();
  for (size_t d = 0; d < dims; ++d) {
    const std::string dim = "SDim" + std::to_string(d + 1);
    const ValueDistribution& dist = *schema.Find(dim)->distribution;
    for (double u : SpreadUnit(Slots(40) / dims, rng)) {
      size_t v = 0;
      while (v + 1 < dist.values.size() && u >= dist.frequencies[v]) {
        u -= dist.frequencies[v++];
      }
      Query q;
      q.table = "ad_analytics";
      q.Sum("M" + std::to_string(d % spec.num_sensitive_measures + 1)).Count();
      q.Where(dim, CmpOp::kEq, dist.values[v]);
      q.GroupBy("hour");
      q.expected_groups = 24;
      per_class[1].push_back(std::move(q));
    }
  }
  Interleave(w, std::move(per_class), rng);

  w.bind_shape.table = "ad_analytics";
  w.bind_shape.Sum("M1").WhereParam("hour", CmpOp::kLt).GroupBy("hour");
  for (const int64_t g : Spread(1, 12, 200, rng)) {
    w.bind_params.push_back({Value(g)});
  }
  w.make_batch = [spec](uint64_t seed) {
    AdAnalyticsSpec b = spec;
    b.rows = kBatchRows;
    b.seed = seed;
    return MakeAdAnalyticsTable(b);
  };
  return w;
}

// --- bdb_join ----------------------------------------------------------------

Workload MakeBdbJoin(const RunOptions& options) {
  BdbSpec spec;
  spec.rankings_rows = Scaled(kBdbRankings, options.scale);
  spec.uservisits_rows = Scaled(kBdbUserVisits, options.scale);
  spec.num_urls = kBdbUrls;
  spec.seed = options.seed;

  Workload w;
  w.planner.expected_rows = spec.uservisits_rows;
  w.fact = "uservisits";
  w.tables.push_back({MakeRankingsTable(spec), RankingsSchema(), RankingsSampleQueries()});
  w.tables.push_back({MakeUserVisitsTable(spec), UserVisitsSchema(), UserVisitsSampleQueries()});

  // 20% Q1, 70% Q3-style joins, 10% Q4. Q2 and Q3C are left out: at this
  // scale they produce about one group per 1.5 rows and run for seconds,
  // which would starve the latency sample.
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 3);
  w.class_names = {"Q1", "Q3", "Q4"};
  std::vector<std::vector<Query>> per_class(3);
  for (const int64_t threshold : Spread(100, 9900, Slots(20), rng)) {
    Query q;  // ORE threshold scan of rankings
    q.table = "rankings";
    q.Count().Max("pageRank");
    q.Where("pageRank", CmpOp::kGt, threshold);
    per_class[0].push_back(std::move(q));
  }
  for (const int64_t width : Spread(7, 180, Slots(70), rng)) {
    const int64_t lo = rng.Range(0, 3650 - width);
    Query q;  // DET join over a visitDate window
    q.table = "uservisits";
    q.join = Join{"rankings", "destURL", "right:pageURL"};
    q.Sum("adRevenue").Avg("right:pageRank", "avg_pageRank");
    q.Where("visitDate", CmpOp::kGe, lo).Where("visitDate", CmpOp::kLt, lo + width);
    q.GroupBy("sourceIP");
    per_class[1].push_back(std::move(q));
  }
  Query q4;  // visits per destination (DET string groups)
  q4.table = "uservisits";
  q4.Count("visits");
  q4.GroupBy("destURL");
  per_class[2].assign(Slots(10), q4);
  Interleave(w, std::move(per_class), rng);

  w.bind_shape.table = "rankings";
  w.bind_shape.Count().Max("pageRank").WhereParam("pageRank", CmpOp::kGt);
  for (const int64_t threshold : Spread(100, 9900, 200, rng)) {
    w.bind_params.push_back({Value(threshold)});
  }
  w.make_batch = [spec](uint64_t seed) {
    BdbSpec b = spec;
    b.uservisits_rows = kBatchRows;
    b.seed = seed;
    return MakeUserVisitsTable(b);
  };
  return w;
}

// --- the shared closed loop --------------------------------------------------

// Layer measurements of the hand-driven second pass (traced runs only).
struct LayerSamples {
  std::vector<double> translate_s, server_s, decrypt_s, response_bytes;
  double session_s = 0;  // Σ Session::Execute wall of the same queries
  double hand_s = 0;     // Σ translate + server + decrypt
  double server_total_s = 0, join_server_s = 0, decrypt_total_s = 0;
  double fact_rows = 0, rows_touched = 0, prf_calls = 0;
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

RunResult RunSingleServer(const Workload& w, const RunOptions& options) {
  RunResult result;
  SessionOptions so;
  so.backend = BackendKind::kSeabed;
  so.cluster.num_workers = kCores;
  so.planner = w.planner;
  so.key_seed = options.seed ^ 0x5EABED;

  // Set-up: plan + encrypt + upload into a fresh session, kSetupPasses
  // times; the last session serves.
  Clock::time_point phase = Clock::now();
  std::unique_ptr<Session> session;
  std::vector<double> setup_s;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    session.reset();
    const Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<Session>(so);
    for (const TableInput& t : w.tables) {
      fresh->Attach(t.plain, t.schema, t.samples);
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    session = std::move(fresh);
  }
  LogPhase(options, "setup", phase);

  // Plaintext reference answers for every cycle slot (untimed).
  phase = Clock::now();
  std::vector<std::vector<std::string>> refs;
  {
    SessionOptions po = so;
    po.backend = BackendKind::kPlain;
    Session plain(po);
    for (const TableInput& t : w.tables) {
      plain.Attach(t.plain, t.schema, t.samples);
    }
    for (const Query& q : w.cycle) {
      refs.push_back(CanonicalRows(plain.Execute(q)));
    }
  }
  LogPhase(options, "reference", phase);

  Tracer tracer;
  size_t next = 0;
  std::vector<std::vector<double>> class_ms(w.class_names.size());
  const Server server;  // stateless; the hand-driven pass's untrusted side
  auto one_query = [&](std::vector<double>* latencies, LayerSamples* layers) {
    const size_t slot = next++ % w.cycle.size();
    const Query& q = w.cycle[slot];
    const Clock::time_point t0 = Clock::now();
    const ResultSet rows = session->Execute(q);
    const Clock::time_point t1 = Clock::now();
    ++result.attempted;
    const std::vector<std::string> got = CanonicalRows(rows);
    bool ok = got == refs[slot];
    if (layers != nullptr) {
      const uint64_t request = tracer.NewRequest();
      tracer.Record("session.execute", t0, t1, 0, request, 0);
      const EncryptedDatabase& db = session->encrypted_database(q.table);
      const EncryptedDatabase* right =
          q.join.has_value() ? &session->encrypted_database(q.join->right_table) : nullptr;
      TranslatorOptions topts = session->translator_options();
      topts.cluster_workers = session->cluster().num_workers();

      const Clock::time_point h0 = Clock::now();
      TranslatedQuery tq = Translator(db, session->keys()).Translate(q, topts);
      if (tq.server.join.has_value()) {
        tq.server.join->right_table = right->table->name();  // as SeabedBackend does
      }
      const Clock::time_point h1 = Clock::now();
      const EncryptedResponse response =
          server.Execute(tq.server, session->cluster(), db.table.get(),
                         right == nullptr ? nullptr : right->table.get());
      const Clock::time_point h2 = Clock::now();
      QueryStats qs;
      const ResultSet hand =
          Client(db, session->keys()).Decrypt(response, tq, session->cluster(), right, &qs);
      const Clock::time_point h3 = Clock::now();
      ok = ok && CanonicalRows(hand) == got;

      const uint64_t root = tracer.Record("handdriven", h0, h3, 0, request, 0);
      tracer.Record("translator.translate", h0, h1, root, request, 0);
      tracer.Record("server.execute", h1, h2, root, request, 0);
      tracer.Record("client.decrypt", h2, h3, root, request, 0);
      layers->translate_s.push_back(SecondsBetween(h0, h1));
      layers->server_s.push_back(SecondsBetween(h1, h2));
      layers->decrypt_s.push_back(SecondsBetween(h2, h3));
      layers->response_bytes.push_back(static_cast<double>(response.response_bytes));
      layers->session_s += SecondsBetween(t0, t1);
      layers->hand_s += SecondsBetween(h0, h3);
      layers->server_total_s += SecondsBetween(h1, h2);
      layers->join_server_s += q.join.has_value() ? SecondsBetween(h1, h2) : 0;
      layers->decrypt_total_s += SecondsBetween(h2, h3);
      layers->fact_rows += static_cast<double>(db.table->NumRows());
      layers->rows_touched += static_cast<double>(response.rows_touched);
      layers->prf_calls += static_cast<double>(qs.prf_calls);
    }
    if (!ok) {
      ++result.failed;
      std::fprintf(stderr, "wrong answer: cycle slot %zu (%s)\n", slot,
                   q.Fingerprint().c_str());
    } else if (latencies != nullptr) {
      latencies->push_back(SecondsBetween(t0, t1) * 1e3);
      class_ms[w.cycle_class[slot]].push_back(latencies->back());
    }
  };
  // Closed loop for `seconds`; returns the window's wall time.
  auto window = [&](double seconds, std::vector<double>* latencies, LayerSamples* layers) {
    const Clock::time_point begin = Clock::now();
    const Clock::time_point end =
        begin + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      one_query(latencies, layers);
    }
    return SecondsBetween(begin, Clock::now());
  };

  phase = Clock::now();
  window(options.warmup, nullptr, nullptr);
  LogPhase(options, "warmup", phase);

  if (!options.trace) {
    std::vector<double> latencies;
    phase = Clock::now();
    const double wall = window(options.seconds, &latencies, nullptr);
    LogPhase(options, "window", phase);
    LogClassLatencies(options, w.class_names, class_ms);
    phase = Clock::now();
    double enc_bytes = 0;
    double plain_bytes = 0;
    for (const TableInput& t : w.tables) {
      const std::string& name = t.schema.table_name;
      enc_bytes += SerializedEncryptedBytes(*session->encrypted_database(name).table);
      plain_bytes += static_cast<double>(SerializedTableSize(*t.plain));
    }
    result.samples = latencies.size();
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("qps", static_cast<double>(latencies.size()) / wall, "1/s");
    result.Add("p50_ms", Percentile(latencies, 0.50), "ms");
    result.Add("p95_ms", Percentile(latencies, 0.95), "ms");
    result.Add("storage_x", enc_bytes / plain_bytes, "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    LogPhase(options, "storage", phase);
    return result;
  }

  // Traced run: the first half untraced, the second half traced, so the
  // tracing overhead is measured in the same process.
  std::vector<double> untraced;
  window(options.seconds / 2, &untraced, nullptr);
  std::vector<double> traced;
  LayerSamples layers;
  window(options.seconds / 2, &traced, &layers);
  result.samples = traced.size();
  phase = Clock::now();

  // Post-window layer probes, each timed around one public call.
  std::vector<double> plan_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (const TableInput& t : w.tables) {
      PlanEncryption(t.schema, t.samples, w.planner);
    }
    plan_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  double encrypt_s = 0;
  double cells = 0;
  const Encryptor encryptor(session->keys());
  for (const TableInput& t : w.tables) {
    const Clock::time_point t0 = Clock::now();
    const EncryptedDatabase enc =
        encryptor.Encrypt(*t.plain, t.schema, session->plan(t.schema.table_name));
    encrypt_s += SecondsBetween(t0, Clock::now());
    cells += static_cast<double>(enc.table->NumRows() * enc.table->NumColumns());
  }
  const PlainSchema& fact_schema = session->attached(w.fact).schema;
  std::vector<double> copy_s;
  std::vector<double> append_s;
  for (int rep = 0; rep < 5; ++rep) {
    const std::shared_ptr<Table> batch = w.make_batch(options.seed + 1000 + rep);
    const Clock::time_point t0 = Clock::now();
    EncryptedDatabase copy = CopyEncryptedDatabase(session->encrypted_database(w.fact));
    const Clock::time_point t1 = Clock::now();
    encryptor.AppendRows(copy, *batch, fact_schema);
    copy_s.push_back(SecondsBetween(t0, t1));
    append_s.push_back(SecondsBetween(t1, Clock::now()));
  }
  std::vector<double> bind_s;
  {
    TranslatorOptions topts = session->translator_options();
    topts.cluster_workers = session->cluster().num_workers();
    const TranslatedQuery shape =
        Translator(session->encrypted_database(w.bind_shape.table), session->keys())
            .Translate(w.bind_shape, topts);
    for (const std::vector<Value>& params : w.bind_params) {
      const Clock::time_point t0 = Clock::now();
      const TranslatedQuery bound = BindTranslatedQuery(shape, params);
      bind_s.push_back(SecondsBetween(t0, Clock::now()));
    }
  }
  // Synchronous appends through the serving session (the whole write path:
  // copy, encrypt, publish). The window is over, so nothing races them.
  std::vector<double> session_append_ms;
  for (int rep = 0; rep < 8; ++rep) {
    const std::shared_ptr<Table> batch = w.make_batch(options.seed + 2000 + rep);
    const Clock::time_point t0 = Clock::now();
    session->Append(w.fact, *batch);
    session_append_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }

  LogPhase(options, "probes", phase);

  const double untraced_p50 = Percentile(untraced, 0.50);
  const double coverage = Ratio(layers.hand_s, layers.session_s);
  result.Add("planner.plan_ms", Median(plan_s) * 1e3, "ms");
  result.Add("encryptor.encrypt_s", encrypt_s, "s");
  result.Add("encryptor.cells_per_s", cells / encrypt_s, "1/s");
  result.Add("encryptor.append_ms", Median(append_s) * 1e3, "ms");
  result.Add("snapshot.copy_ms", Median(copy_s) * 1e3, "ms");
  result.Add("translator.translate_us_p50", Percentile(layers.translate_s, 0.5) * 1e6, "us");
  result.Add("translator.bind_us_p50", Median(bind_s) * 1e6, "us");
  result.Add("server.execute_ms_p50", Percentile(layers.server_s, 0.5) * 1e3, "ms");
  result.Add("server.share", Ratio(layers.server_total_s, layers.hand_s), "ratio");
  result.Add("server.join_share", Ratio(layers.join_server_s, layers.server_total_s), "ratio");
  result.Add("server.rows_per_s", Ratio(layers.fact_rows, layers.server_total_s), "1/s");
  result.Add("server.touched_ratio", Ratio(layers.rows_touched, layers.fact_rows), "ratio");
  result.Add("server.response_bytes_p50", Percentile(layers.response_bytes, 0.5), "bytes");
  result.Add("client.decrypt_ms_p50", Percentile(layers.decrypt_s, 0.5) * 1e3, "ms");
  result.Add("client.share", Ratio(layers.decrypt_total_s, layers.hand_s), "ratio");
  result.Add("client.prf_calls_per_query",
             Ratio(layers.prf_calls, static_cast<double>(layers.decrypt_s.size())), "count");
  result.Add("client.prf_per_s", Ratio(layers.prf_calls, layers.decrypt_total_s), "1/s");
  // No serving layer, sharding, probe or concurrent ingest on this path:
  // every query is its own batch, reaches the one server, prunes nothing,
  // and every append runs synchronously, without a queue.
  result.Add("service.queue_wait_share", 0, "ratio");
  result.Add("service.submit_share", 0, "ratio");
  result.Add("service.batch_size_mean", 1, "count");
  result.Add("service.coalesced_ratio", 0, "ratio");
  result.Add("service.plan_hit_ratio", 0, "ratio");
  result.Add("placement.routed_ratio", 1, "ratio");
  result.Add("probe.pruned_ratio", 0, "ratio");
  result.Add("ingest.append_p50_ms", Percentile(session_append_ms, 0.50), "ms");
  result.Add("ingest.append_p95_ms", Percentile(session_append_ms, 0.95), "ms");
  result.Add("ingest.append_exec_share", 1, "ratio");
  result.Add("gen.late_ratio", 0, "ratio");
  result.Add("trace.coverage", coverage, "ratio");
  result.Add("trace.overhead",
             untraced_p50 > 0 ? Percentile(traced, 0.50) / untraced_p50 - 1 : 0, "ratio");

  if (coverage < 0.9 || coverage > 1.1) {
    result.correct = false;
    result.notes.push_back("trace.coverage outside 0.9-1.1: the layer spans do not account "
                           "for Session::Execute");
  }
  if (!options.trace_out.empty() && !tracer.WriteChromeJson(options.trace_out)) {
    result.notes.push_back("cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace

RunResult RunSyntheticScan(const RunOptions& options) {
  const Clock::time_point begin = Clock::now();
  const Workload w = MakeSyntheticScan(options);
  LogPhase(options, "generate", begin);
  return RunSingleServer(w, options);
}

RunResult RunAdtechDashboard(const RunOptions& options) {
  const Clock::time_point begin = Clock::now();
  const Workload w = MakeAdtechDashboard(options);
  LogPhase(options, "generate", begin);
  return RunSingleServer(w, options);
}

RunResult RunBdbJoin(const RunOptions& options) {
  const Clock::time_point begin = Clock::now();
  const Workload w = MakeBdbJoin(options);
  LogPhase(options, "generate", begin);
  return RunSingleServer(w, options);
}

}  // namespace seabed::e2e
