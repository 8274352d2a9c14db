// dashboard_ingest: seabed::Service over a 4-shard kShardedSeabed fleet with
// key-range placement on `ts` and probe kAuto. Two closed-loop query clients
// share the service with one open-loop appender that submits a 1k-row batch
// every 100 ms without waiting for earlier ones.
//
// Query mix per client (a seeded order of 6 / 9 / 5 slots in every 20):
//   30% prepared "last window" SUM/COUNT, routed to one shard, bind path;
//   45% ad-hoc GROUP BY seg over a random past window (fresh literals, so the
//       plan cache keeps missing), routed;
//   25% full-table GROUP BY seg, not routable, fans out to every shard.
// The median falls inside the middle class and p95 inside the last one, so
// neither sits on a class boundary.
//
// Rebalancing stays off (the default). With a monotone key every append lands
// on the top shard; once that shard holds 1.5x its fair share the key-range
// rebalancer re-fires every few appends, each time re-encrypting whole donor
// shards (a 100k-row table took 56 passes and 3.7M re-encrypted rows in 12 s,
// and appends backed up by seconds). That regime is too unsteady to gate on,
// and with rebalancing off the run behaves the same at any window length.
// Three query clients saturated the four cores with full-table scans and
// moved the median by 15% between identical runs; two keep it steady.
//
// Answers: ts is the global row index, so a window ending at or below the
// acknowledged high-water mark has one fixed answer however many appends run
// concurrently. A full-table answer must equal the initial rows plus the
// first k batches, with k at least the batches acknowledged before the query
// was submitted and at most those submitted when it returned.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>

#include "bench/e2e/e2e.h"
#include "src/common/rng.h"
#include "src/engine/serialize.h"
#include "src/seabed/service.h"
#include "src/seabed/sharded_backend.h"
#include "src/seabed/snapshot.h"

namespace seabed::e2e {
namespace {

constexpr uint64_t kEventsRows = 1000000;  // initial rows at scale 1.0
constexpr int64_t kSegments = 16;
constexpr size_t kShards = 4;
constexpr size_t kClients = 2;
constexpr size_t kBatchRows = 1000;
constexpr size_t kWindowRows = 20000;
constexpr std::chrono::milliseconds kAppendPeriod{100};
constexpr int kSetupPasses = 5;  // setup_s is their median

enum QueryClass { kWindow = 0, kSlice = 1, kFull = 2 };

std::shared_ptr<Table> EventsTable(const std::vector<int64_t>& seg,
                                   const std::vector<int64_t>& value, size_t begin, size_t end) {
  auto ts = std::make_shared<Int64Column>();
  auto s = std::make_shared<Int64Column>();
  auto v = std::make_shared<Int64Column>();
  for (size_t r = begin; r < end; ++r) {
    ts->Append(static_cast<int64_t>(r));
    s->Append(seg[r]);
    v->Append(value[r]);
  }
  auto table = std::make_shared<Table>("events");
  table->AddColumn("ts", std::move(ts));
  table->AddColumn("seg", std::move(s));
  table->AddColumn("value", std::move(v));
  return table;
}

Query SumCount() {
  Query q;
  q.table = "events";
  q.Sum("value", "s").Count("n");
  return q;
}

Query SliceQuery(int64_t lo, int64_t hi) {
  Query q = SumCount();
  q.Where("ts", CmpOp::kGe, lo).Where("ts", CmpOp::kLe, hi).GroupBy("seg");
  q.expected_groups = kSegments;
  return q;
}

Query FullQuery() {
  Query q = SumCount();
  q.GroupBy("seg");
  q.expected_groups = kSegments;
  return q;
}

// Per-query observations of one client (merged after the window).
struct ClientLog {
  std::vector<double> latency_ms;  // verified queries completed in the window
  std::vector<std::vector<double>> class_ms = std::vector<std::vector<double>>(3);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Traced half only.
  std::vector<double> translate_s, bind_s, server_s, decrypt_s, response_bytes;
  double latency_s = 0, submit_s = 0, queue_wait_s = 0, exec_s = 0;
  double server_total_s = 0, decrypt_total_s = 0, prf_calls = 0;
  double fact_rows = 0, routed_rows = 0, rows_touched = 0;
  double shards_routed = 0, shards_total = 0, groups_pruned = 0, groups_total = 0;
};

}  // namespace

RunResult RunDashboardIngest(const RunOptions& options) {
  RunResult result;
  Clock::time_point phase = Clock::now();
  const size_t initial_rows = std::max<size_t>(
      20000, static_cast<size_t>(static_cast<double>(kEventsRows) * options.scale));
  const size_t batch_rows =
      std::max<size_t>(100, static_cast<size_t>(static_cast<double>(kBatchRows) * options.scale));
  const size_t window_rows =
      std::max<size_t>(1000, static_cast<size_t>(static_cast<double>(kWindowRows) * options.scale));
  // Enough batches for warm-up + window + the drain, plus five spare for
  // the post-window encryptor probe.
  const size_t max_batches = static_cast<size_t>(
      (options.warmup + options.seconds + 5) * 1000 / kAppendPeriod.count()) + 5;

  // Inputs, all from the seed: the initial rows and every batch.
  std::vector<int64_t> seg;
  std::vector<int64_t> value;
  {
    Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 4);
    const size_t total = initial_rows + max_batches * batch_rows;
    seg.reserve(total);
    value.reserve(total);
    for (size_t r = 0; r < total; ++r) {
      seg.push_back(static_cast<int64_t>(rng.Below(kSegments)));
      value.push_back(rng.Range(0, 1000));
    }
  }
  const std::shared_ptr<Table> initial = EventsTable(seg, value, 0, initial_rows);
  std::vector<std::shared_ptr<const Table>> batches;
  for (size_t b = 0; b < max_batches; ++b) {
    const size_t begin = initial_rows + b * batch_rows;
    batches.push_back(EventsTable(seg, value, begin, begin + batch_rows));
  }
  const EventsOracle oracle(seg, value, initial_rows, batch_rows, kSegments);
  LogPhase(options, "generate", phase);

  PlainSchema schema;
  schema.table_name = "events";
  schema.columns.push_back({"ts", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"seg", ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"value", ColumnType::kInt64, true, std::nullopt});
  Query window_shape = SumCount();
  window_shape.WhereParam("ts", CmpOp::kGe).WhereParam("ts", CmpOp::kLe);
  const std::vector<Query> samples = {SliceQuery(0, 1), FullQuery()};

  ServiceOptions so;
  so.session.backend = BackendKind::kShardedSeabed;
  so.session.shards = kShards;
  so.session.cluster.num_workers = kCores;
  so.session.planner.expected_rows = initial_rows;
  so.session.shards_placement.policy = PlacementPolicy::kKeyRange;
  so.session.shards_placement.clustering_columns["events"] = "ts";
  so.session.probe.mode = ProbeMode::kAuto;
  so.session.key_seed = options.seed ^ 0x5EABED;
  so.num_workers = kCores;

  // Set-up: service + attach (plan, encrypt, partition) + prepare, kSetupPasses
  // times into fresh services; the last one serves. Appends grow the
  // attached table in place, so each pass gets its own copy (cloned untimed).
  phase = Clock::now();
  std::unique_ptr<Service> service;
  PreparedQuery window_query;
  std::vector<double> setup_s;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    service.reset();
    const std::shared_ptr<Table> table = CloneTable(*initial);
    const Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<Service>(so);
    fresh->Attach(table, schema, samples);
    window_query = fresh->Prepare(window_shape);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    service = std::move(fresh);
  }
  LogPhase(options, "setup", phase);
  auto& backend = dynamic_cast<ShardedSeabedBackend&>(service->session().executor());

  // Storage of the freshly attached fleet (before any append).
  double enc_bytes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    enc_bytes += SerializedEncryptedBytes(*backend.shard_database("events", s).table);
  }
  const double storage_x = enc_bytes / static_cast<double>(SerializedTableSize(*initial));

  // Traced runs translate every query by hand against an encryption of the
  // initial rows under the session's plan and keys (the encryptor probe).
  std::optional<EncryptedDatabase> hand_db;
  double encrypt_s = 0;
  if (options.trace) {
    const Clock::time_point t0 = Clock::now();
    hand_db = Encryptor(service->session().keys())
                  .Encrypt(*initial, schema, service->session().plan("events"));
    encrypt_s = SecondsBetween(t0, Clock::now());
  }
  TranslatorOptions topts = service->session().translator_options();
  topts.cluster_workers = kCores;
  std::optional<TranslatedQuery> window_tq;
  if (hand_db.has_value()) {
    window_tq = Translator(*hand_db, service->session().keys()).Translate(window_shape, topts);
  }

  // Phase clock: warm-up, then the window (traced runs split it in two
  // halves, untraced then traced).
  const Clock::time_point start = Clock::now();
  auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  const Clock::time_point window_begin = at(options.warmup);
  const Clock::time_point window_end = at(options.warmup + options.seconds);
  const Clock::time_point traced_begin =
      options.trace ? at(options.warmup + options.seconds / 2) : window_end;

  std::atomic<size_t> acked_batches{0};
  std::atomic<size_t> submitted_batches{0};
  Tracer tracer;

  // --- query clients ---------------------------------------------------------
  std::vector<ClientLog> logs(kClients);
  std::vector<ClientLog> untraced_logs(kClients);  // traced runs: first half
  auto client = [&](size_t c) {
    Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 100 + c);
    std::vector<int> slots;
    slots.insert(slots.end(), 6, kWindow);
    slots.insert(slots.end(), 9, kSlice);
    slots.insert(slots.end(), 5, kFull);
    for (size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[rng.Below(i)]);
    }
    for (size_t n = 0; Clock::now() < window_end; ++n) {
      const int cls = slots[n % slots.size()];
      const size_t acked = acked_batches.load();
      const size_t high = initial_rows + acked * batch_rows;  // rows [0, high) are published
      int64_t lo = 0;
      int64_t hi = 0;
      Query bound;
      std::vector<Value> params;
      const Clock::time_point t0 = Clock::now();
      std::future<ServiceResult> future;
      if (cls == kWindow) {
        lo = static_cast<int64_t>(high - window_rows);
        hi = static_cast<int64_t>(high - 1);
        params = {Value(lo), Value(hi)};
        future = service->SubmitPrepared(window_query, params);
      } else if (cls == kSlice) {
        lo = rng.Range(0, static_cast<int64_t>(high - window_rows));
        hi = lo + static_cast<int64_t>(window_rows) - 1;
        bound = SliceQuery(lo, hi);
        future = service->Submit(bound);
      } else {
        bound = FullQuery();
        future = service->Submit(bound);
      }
      const Clock::time_point t1 = Clock::now();
      const ServiceResult r = future.get();
      const Clock::time_point t2 = Clock::now();

      bool ok = r.ok;
      if (ok && cls == kFull) {
        ok = oracle.CheckFull(r.rows, acked, submitted_batches.load()) >= 0;
      } else if (ok) {
        ok = CanonicalRows(r.rows) ==
             oracle.Window(static_cast<size_t>(lo), static_cast<size_t>(hi), cls == kSlice);
      }
      ClientLog& log = t0 >= traced_begin ? logs[c] : untraced_logs[c];
      ++log.attempted;
      if (!ok) {
        ++log.failed;
        std::fprintf(stderr, "wrong answer: class %d [%lld, %lld] %s\n", cls,
                     static_cast<long long>(lo), static_cast<long long>(hi), r.error.c_str());
        continue;
      }
      if (t2 < window_begin || t2 >= window_end) {
        continue;
      }
      log.latency_ms.push_back(SecondsBetween(t0, t2) * 1e3);
      log.class_ms[cls].push_back(log.latency_ms.back());
      if (t0 < traced_begin) {
        continue;
      }

      // Traced half: the serving layers from ServiceStats/QueryStats, and
      // translation/bind timed by hand on the client thread.
      const ServiceStats& st = r.stats;
      const QueryStats& qs = st.query;
      const double exec_s = SecondsBetween(st.exec_begin, st.exec_end);
      const double server_s = std::max(0.0, exec_s - qs.translate_seconds - qs.bind_seconds -
                                                qs.client_seconds - qs.merge_seconds);
      const uint64_t request = tracer.NewRequest();
      const uint64_t root = tracer.Record("service.request", t0, t2, 0, request, c);
      tracer.Record("service.submit", t0, t1, root, request, c);
      tracer.Record("service.queue_wait", t1,
                    t1 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(st.queue_wait_seconds)),
                    root, request, c);
      tracer.Record("service.exec", st.exec_begin, st.exec_end, root, request, c);
      log.latency_s += SecondsBetween(t0, t2);
      log.submit_s += SecondsBetween(t0, t1);
      log.queue_wait_s += st.queue_wait_seconds;
      log.exec_s += exec_s;
      log.server_s.push_back(server_s);
      log.server_total_s += server_s;
      log.decrypt_s.push_back(qs.client_seconds);
      log.decrypt_total_s += qs.client_seconds;
      log.prf_calls += static_cast<double>(qs.prf_calls);
      log.response_bytes.push_back(static_cast<double>(qs.result_bytes));
      log.rows_touched += static_cast<double>(qs.rows_touched);
      log.fact_rows += static_cast<double>(high);
      log.routed_rows += static_cast<double>(high) * Ratio(static_cast<double>(qs.shards_routed),
                                                          static_cast<double>(qs.shards_total));
      log.shards_routed += static_cast<double>(qs.shards_routed);
      log.shards_total += static_cast<double>(qs.shards_total);
      log.groups_pruned += static_cast<double>(qs.row_groups_pruned);
      log.groups_total += static_cast<double>(qs.row_groups_total);

      const Clock::time_point h0 = Clock::now();
      if (cls == kWindow) {
        const TranslatedQuery b = BindTranslatedQuery(*window_tq, params);
        log.bind_s.push_back(SecondsBetween(h0, Clock::now()));
        bound = window_query.Bind(params);
      }
      const Clock::time_point h1 = Clock::now();
      const TranslatedQuery tq =
          Translator(*hand_db, service->session().keys()).Translate(bound, topts);
      log.translate_s.push_back(SecondsBetween(h1, Clock::now()));
    }
  };

  // --- the open-loop appender --------------------------------------------------
  std::vector<double> append_ms;  // due -> resolved, batches due in the window
  double append_exec_s = 0;       // Σ ServiceStats exec span of those batches
  double late_max_s = 0;
  uint64_t append_attempted = 0;
  uint64_t append_failed = 0;
  auto appender = [&] {
    struct Pending {
      Clock::time_point due;
      std::future<ServiceResult> result;
    };
    std::deque<Pending> pending;
    auto settle = [&](Pending& p) {
      const ServiceResult r = p.result.get();
      const Clock::time_point done = Clock::now();
      ++append_attempted;
      if (!r.ok) {
        ++append_failed;
        std::fprintf(stderr, "append rejected: %s\n", r.error.c_str());
        return;  // never acknowledged: later batches cannot be either
      }
      acked_batches.fetch_add(1);
      if (p.due >= window_begin && p.due < window_end) {
        append_ms.push_back(SecondsBetween(p.due, done) * 1e3);
        append_exec_s += SecondsBetween(r.stats.exec_begin, r.stats.exec_end);
        if (p.due >= traced_begin) {
          const uint64_t request = tracer.NewRequest();
          const uint64_t root = tracer.Record("ingest.append", p.due, done, 0, request, kClients);
          tracer.Record("service.exec", r.stats.exec_begin, r.stats.exec_end, root, request,
                        kClients);
        }
      }
    };
    Clock::time_point due = start;
    for (size_t b = 0; b < max_batches - 5 && due < window_end; ++b, due += kAppendPeriod) {
      while (!pending.empty() &&
             pending.front().result.wait_until(due) == std::future_status::ready) {
        settle(pending.front());
        pending.pop_front();
      }
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      if (due >= window_begin) {
        late_max_s = std::max(late_max_s, SecondsBetween(due, now));
      }
      submitted_batches.fetch_add(1);  // before submitting: it may publish at once
      pending.push_back({due, service->SubmitAppend("events", batches[b])});
    }
    for (Pending& p : pending) {
      settle(p);
    }
  };

  // Counter baselines of the traced half, captured at its start.
  ServiceCounters counters_traced;
  uint64_t hits_traced = 0;
  uint64_t misses_traced = 0;

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(client, c);
  }
  threads.emplace_back(appender);
  std::this_thread::sleep_until(traced_begin);
  counters_traced = service->counters();
  hits_traced = service->plan_cache().hits();
  misses_traced = service->plan_cache().misses();
  for (std::thread& t : threads) {
    t.join();
  }
  const ServiceCounters counters_after = service->counters();
  const uint64_t plan_hits_after = service->plan_cache().hits();
  const uint64_t plan_misses_after = service->plan_cache().misses();
  service->Shutdown(/*drain=*/true);
  LogPhase(options, "traffic", start);
  std::fprintf(stderr, "[%s] %zu batches acknowledged\n", options.workload.c_str(),
               acked_batches.load());

  // Merge the client logs.
  std::vector<double> untraced_latency;
  ClientLog all;
  for (size_t c = 0; c < kClients; ++c) {
    for (const ClientLog* log : {&untraced_logs[c], &logs[c]}) {
      all.attempted += log->attempted;
      all.failed += log->failed;
      for (size_t k = 0; k < 3; ++k) {
        all.class_ms[k].insert(all.class_ms[k].end(), log->class_ms[k].begin(),
                               log->class_ms[k].end());
      }
    }
    untraced_latency.insert(untraced_latency.end(), untraced_logs[c].latency_ms.begin(),
                            untraced_logs[c].latency_ms.end());
    const ClientLog& l = logs[c];
    all.latency_ms.insert(all.latency_ms.end(), l.latency_ms.begin(), l.latency_ms.end());
    for (auto [dst, src] : {std::pair{&all.translate_s, &l.translate_s},
                            std::pair{&all.bind_s, &l.bind_s},
                            std::pair{&all.server_s, &l.server_s},
                            std::pair{&all.decrypt_s, &l.decrypt_s},
                            std::pair{&all.response_bytes, &l.response_bytes}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    all.latency_s += l.latency_s;
    all.submit_s += l.submit_s;
    all.queue_wait_s += l.queue_wait_s;
    all.exec_s += l.exec_s;
    all.server_total_s += l.server_total_s;
    all.decrypt_total_s += l.decrypt_total_s;
    all.prf_calls += l.prf_calls;
    all.fact_rows += l.fact_rows;
    all.routed_rows += l.routed_rows;
    all.rows_touched += l.rows_touched;
    all.shards_routed += l.shards_routed;
    all.shards_total += l.shards_total;
    all.groups_pruned += l.groups_pruned;
    all.groups_total += l.groups_total;
  }
  LogClassLatencies(options, {"window", "slice", "full"}, all.class_ms);
  result.attempted = all.attempted + append_attempted;
  result.failed = all.failed + append_failed;
  const double window_s = SecondsBetween(window_begin, window_end);
  const double period_s = std::chrono::duration<double>(kAppendPeriod).count();
  if (late_max_s > period_s) {
    result.notes.push_back("the appender ran " + std::to_string(late_max_s * 1e3) +
                           " ms behind its schedule: the open loop slipped");
  }

  if (!options.trace) {
    result.samples = untraced_latency.size();
    result.Add("setup_s", Percentile(setup_s, 0.5), "s");
    result.Add("qps", static_cast<double>(untraced_latency.size()) / window_s, "1/s");
    result.Add("p50_ms", Percentile(untraced_latency, 0.50), "ms");
    result.Add("p95_ms", Percentile(untraced_latency, 0.95), "ms");
    result.Add("storage_x", storage_x, "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }
  result.samples = all.latency_ms.size();

  // Post-window layer probes (the service is drained; nothing races them).
  phase = Clock::now();
  std::vector<double> plan_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    PlanEncryption(schema, samples, so.session.planner);
    plan_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  const double cells =
      static_cast<double>(hand_db->table->NumRows() * hand_db->table->NumColumns());
  std::vector<double> copy_s;
  std::vector<double> append_probe_s;
  const Encryptor encryptor(service->session().keys());
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::vector<EncryptedDatabase> copies;
    for (size_t s = 0; s < kShards; ++s) {
      copies.push_back(CopyEncryptedDatabase(backend.shard_database("events", s)));
    }
    const Clock::time_point t1 = Clock::now();
    encryptor.AppendRows(copies.back(), *batches[max_batches - 1 - rep], schema);
    copy_s.push_back(SecondsBetween(t0, t1));
    append_probe_s.push_back(SecondsBetween(t1, Clock::now()));
  }

  LogPhase(options, "probes", phase);

  const double untraced_p50 = Percentile(untraced_latency, 0.50);
  const uint64_t executed = counters_after.executed - counters_traced.executed;
  const uint64_t groups = counters_after.groups - counters_traced.groups;
  const uint64_t hits = plan_hits_after - hits_traced;
  const uint64_t misses = plan_misses_after - misses_traced;
  result.Add("planner.plan_ms", Percentile(plan_s, 0.5) * 1e3, "ms");
  result.Add("encryptor.encrypt_s", encrypt_s, "s");
  result.Add("encryptor.cells_per_s", cells / encrypt_s, "1/s");
  result.Add("encryptor.append_ms", Percentile(append_probe_s, 0.5) * 1e3, "ms");
  result.Add("snapshot.copy_ms", Percentile(copy_s, 0.5) * 1e3, "ms");
  result.Add("translator.translate_us_p50", Percentile(all.translate_s, 0.5) * 1e6, "us");
  result.Add("translator.bind_us_p50", Percentile(all.bind_s, 0.5) * 1e6, "us");
  result.Add("server.execute_ms_p50", Percentile(all.server_s, 0.5) * 1e3, "ms");
  result.Add("server.share", Ratio(all.server_total_s, all.latency_s), "ratio");
  result.Add("server.join_share", 0, "ratio");
  result.Add("server.rows_per_s", Ratio(all.routed_rows, all.server_total_s), "1/s");
  result.Add("server.touched_ratio", Ratio(all.rows_touched, all.fact_rows), "ratio");
  result.Add("server.response_bytes_p50", Percentile(all.response_bytes, 0.5), "bytes");
  result.Add("client.decrypt_ms_p50", Percentile(all.decrypt_s, 0.5) * 1e3, "ms");
  result.Add("client.share", Ratio(all.decrypt_total_s, all.latency_s), "ratio");
  result.Add("client.prf_calls_per_query",
             Ratio(all.prf_calls, static_cast<double>(all.decrypt_s.size())), "count");
  result.Add("client.prf_per_s", Ratio(all.prf_calls, all.decrypt_total_s), "1/s");
  result.Add("service.queue_wait_share", Ratio(all.queue_wait_s, all.latency_s), "ratio");
  result.Add("service.submit_share", Ratio(all.submit_s, all.latency_s), "ratio");
  result.Add("service.batch_size_mean",
             Ratio(static_cast<double>(executed), static_cast<double>(groups)), "count");
  result.Add("service.coalesced_ratio",
             Ratio(static_cast<double>(counters_after.coalesced - counters_traced.coalesced),
                   static_cast<double>(executed)),
             "ratio");
  result.Add("service.plan_hit_ratio",
             Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio");
  result.Add("placement.routed_ratio", Ratio(all.shards_routed, all.shards_total), "ratio");
  result.Add("probe.pruned_ratio", Ratio(all.groups_pruned, all.groups_total), "ratio");
  result.Add("ingest.append_p50_ms", Percentile(append_ms, 0.50), "ms");
  result.Add("ingest.append_p95_ms", Percentile(append_ms, 0.95), "ms");
  double append_s = 0;
  for (const double ms : append_ms) {
    append_s += ms / 1e3;
  }
  result.Add("ingest.append_exec_share", Ratio(append_exec_s, append_s), "ratio");
  result.Add("gen.late_ratio", late_max_s / period_s, "ratio");
  result.Add("trace.coverage",
             Ratio(all.submit_s + all.queue_wait_s + all.exec_s, all.latency_s), "ratio");
  result.Add("trace.overhead",
             untraced_p50 > 0 ? Percentile(all.latency_ms, 0.50) / untraced_p50 - 1 : 0, "ratio");
  if (!options.trace_out.empty() && !tracer.WriteChromeJson(options.trace_out)) {
    result.notes.push_back("cannot write " + options.trace_out);
  }
  return result;
}

}  // namespace seabed::e2e
