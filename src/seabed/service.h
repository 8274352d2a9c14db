// seabed::Service — a concurrent query-serving front-end (ROADMAP: "serve
// concurrent traffic").
//
// Every backend built so far executes on the caller's thread; the paper's
// setting is the opposite — many analysts hammering one dashboard deployment
// while new rows stream in (Section 4.1). Service puts a real serving layer
// in front of one configured Session over the Seabed engine: kSeabed or
// kShardedSeabed. Any other backend aborts at construction — kPlain and kPaillier mutate their tables in place, so an
// append could tear a query running beside it.
//
//   ServiceOptions opts;
//   opts.session.backend = BackendKind::kShardedSeabed;
//   Service service(opts);
//   service.Attach(table, schema, sample_queries);
//   std::future<ServiceResult> f = service.Submit(MustParseSql(sql));
//   ResultSet rows = f.get().rows;          // blocks until served
//   service.Shutdown(/*drain=*/true);
//
// Inside:
//   * a bounded MPMC submission queue (src/common/mpmc_queue.h) provides
//     admission control — Submit never blocks; past `max_queue_depth` the
//     future resolves immediately with kRejectedQueueFull backpressure;
//   * two priority lanes (kInteractive beats kBatch) so cheap dashboard
//     probes are not stuck behind bulk scans;
//   * per-query deadlines are honored twice: at DEQUEUE (a query whose
//     deadline passed while queued fails with kDeadlineExpired without
//     executing) and re-checked at DISPATCH — time spent between dequeue and
//     the backend call (group assembly, a slow sibling group pacing out
//     modeled latency on the same worker) must not smuggle an expired query
//     into execution;
//   * cross-query SHAPE BATCHING — consecutive queued queries with equal
//     Query::Fingerprint(kShape) pop as one group and execute as one
//     Session::ExecuteBatch; the engine's plan cache translates each
//     distinct literal once. Identical queries (equal kExact fingerprints)
//     additionally coalesce onto a single execution. Prepared submissions
//     (SubmitPrepared) batch on the prepared handle's shape and serve as one
//     Session::ExecutePreparedBatch — the group binds per member but
//     translates at most once, ever;
//   * appends ride the SAME queue as ordering-only barrier jobs. The append
//     runs concurrently with in-flight query groups (each pinned to its own
//     published table version) and merely holds back work queued after it
//     until the engine has published the new version — appends never block
//     queries. Every query observes either the pre- or post-append table,
//     never a torn state, and same-lane queries submitted after the append
//     are guaranteed the post-append table. The priority lanes may reorder
//     dispatch across lanes, so a kBatch query still queued when an append
//     (lane 0) dispatches observes the post-append table.
//
// Per-query ServiceStats stack queue_wait_seconds, admission outcome, lane,
// and batch size on top of the usual QueryStats.
#ifndef SEABED_SRC_SEABED_SERVICE_H_
#define SEABED_SRC_SEABED_SERVICE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mpmc_queue.h"
#include "src/seabed/session.h"

namespace seabed {

// Scheduler lane. Lower values dequeue first.
enum class ServiceLane { kInteractive = 0, kBatch = 1 };

enum class AdmissionOutcome {
  kAdmitted,            // executed (or coalesced onto an identical execution)
  kRejectedQueueFull,   // backpressure: queue was at max_queue_depth
  kRejectedShutdown,    // submitted after Shutdown, or dropped by a no-drain one
  kDeadlineExpired,     // deadline passed while queued; never executed
};

const char* AdmissionOutcomeName(AdmissionOutcome outcome);

struct SubmitOptions {
  ServiceLane lane = ServiceLane::kInteractive;
  // Absolute deadline; checked when the query is dequeued (a query the
  // scheduler cannot reach in time fails fast instead of wasting a worker).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

// Serving-layer stats layered on top of the per-query QueryStats.
struct ServiceStats {
  AdmissionOutcome admission = AdmissionOutcome::kAdmitted;
  ServiceLane lane = ServiceLane::kInteractive;
  double queue_wait_seconds = 0;  // enqueue -> dequeue
  size_t batch_size = 0;          // queries served by this query's shape group
  bool coalesced = false;         // answered by an identical query's execution
  uint64_t dispatch_seq = 0;      // global dispatch order of the group
  // Wall-clock span of this job's backend work (query group execution incl.
  // modeled-latency pacing, or the append itself). Tests use these to prove
  // an append's span OVERLAPS concurrently-executing query spans — the
  // never-blocks contract is observable, not just asserted. Zero (epoch)
  // when the job never executed.
  std::chrono::steady_clock::time_point exec_begin{};
  std::chrono::steady_clock::time_point exec_end{};
  QueryStats query;               // zeroed when the query never executed
};

struct ServiceResult {
  bool ok = false;
  std::string error;  // set when !ok (rejected / expired / dropped)
  ResultSet rows;
  ServiceStats stats;
};

// Monotonic service-lifetime counters (snapshot via Service::counters()).
// Every Submit* call counts once in `submitted`, queries and appends alike,
// and ends in exactly one outcome counter, so once the queue has drained:
//   submitted == executed + appends + expired + rejected_queue_full
//                + rejected_shutdown
struct ServiceCounters {
  uint64_t submitted = 0;  // every Submit/SubmitPrepared/SubmitAppend call
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t expired = 0;
  uint64_t executed = 0;   // queries that ran (coalesced ones count)
  uint64_t coalesced = 0;  // duplicates answered without their own execution
  uint64_t groups = 0;     // shape groups dispatched
  uint64_t appends = 0;    // barrier jobs executed
  uint64_t max_group = 0;  // largest shape group dispatched
};

struct ServiceOptions {
  // The session the service owns and serves (shards, result cache, probe —
  // everything Session supports), over the Seabed engine: `backend` must be
  // kSeabed or kShardedSeabed. The workers share the session's engine, and
  // with it its plan and result caches.
  SessionOptions session;

  // Worker threads pumping the queue. More workers than cores is deliberate:
  // against the modeled cluster a worker spends most of a query parked in
  // simulated server latency, so oversubscription is what overlaps requests.
  size_t num_workers = 8;

  // Admission control: TryPush fails past this many queued jobs.
  size_t max_queue_depth = 1024;

  // Largest shape group one worker pops (and the ExecuteBatch width cap).
  size_t max_batch = 16;

  // Answer byte-identical queries (equal kExact fingerprints) inside one
  // group with a single execution.
  bool coalesce_identical = true;

  // Sleep out the MODELED server + network latency of each dispatched group
  // (one modeled round trip per group). Off by default — unit tests want
  // wall-clock-free behavior; the closed-loop bench turns it on so measured
  // throughput reflects the simulated cluster instead of the host's cores.
  bool pace_modeled_latency = false;

  // Spawn workers in the constructor. Tests that probe pure queue behavior
  // (admission, drop-on-shutdown) set false and never Start().
  bool autostart = true;

  // Test-only: runs on the worker after a query group is dequeued, before
  // the dispatch-time deadline re-check and execution. Lets tests widen the
  // dequeue->dispatch window deterministically.
  std::function<void()> pre_dispatch_hook;
};

class Service {
 public:
  explicit Service(ServiceOptions options);
  ~Service();  // Shutdown(/*drain=*/true)

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- setup -----------------------------------------------------------------
  // Attach tables before opening the floodgates. Safe while workers run (the
  // serve lock excludes in-flight queries) but NOT barrier-ordered against
  // queued work — unlike Append, which is.
  void Attach(std::shared_ptr<Table> table, const PlainSchema& schema,
              const std::vector<Query>& sample_queries);
  void AttachPlanned(std::shared_ptr<Table> table, const PlainSchema& schema,
                     EncryptionPlan plan);

  // --- serving ---------------------------------------------------------------
  // Never blocks: rejections resolve the future immediately.
  std::future<ServiceResult> Submit(Query query, SubmitOptions options = {});
  std::vector<std::future<ServiceResult>> SubmitBatch(std::vector<Query> queries,
                                                      SubmitOptions options = {});
  // Prepares a placeholder shape against the owned session (see
  // Session::Prepare). Call after Attach; the handle stays valid for the
  // service's lifetime and is safe to Submit from many threads.
  PreparedQuery Prepare(const Query& shape);
  // Submits one execution of a prepared shape with `params` bound to its
  // slots. Prepared submissions batch on the prepared shape (all queued
  // executions of one handle's shape pop as a single group served by
  // Session::ExecutePreparedBatch) and never mix into ad-hoc shape groups;
  // identical parameter vectors coalesce exactly like identical ad-hoc
  // queries.
  std::future<ServiceResult> SubmitPrepared(const PreparedQuery& prepared,
                                            std::vector<Value> params,
                                            SubmitOptions options = {});
  // Queues a barrier job appending `rows` to `table` on the kInteractive
  // lane. The contract is dispatch order plus publish-before-thaw: the
  // append dispatches once every job ahead of it in that lane has been
  // dequeued (those may still be running, over either version), and no
  // other job dispatches until the post-append version is published.
  std::future<ServiceResult> SubmitAppend(std::string table,
                                          std::shared_ptr<const Table> rows);

  // Spawns the worker pool (idempotent; no-op after the autostart ctor).
  void Start();
  // Stops admissions, then either serves the backlog (`drain`) or fails it
  // with kRejectedShutdown. Idempotent; joins the workers either way.
  void Shutdown(bool drain = true);

  // --- observability ---------------------------------------------------------
  ServiceCounters counters() const;
  // The engine's plan cache: never null, because the constructor refuses
  // every backend but the Seabed engine.
  const TranslatedPlanCache& plan_cache() const { return *session_.executor().plan_cache(); }
  size_t queue_depth() const { return queue_.size(); }
  // The owned session. Execute/Append through it directly only when no
  // workers are running — traffic belongs in Submit/SubmitAppend.
  Session& session() { return session_; }

 private:
  struct Job {
    enum class Kind { kQuery, kAppend };
    Kind kind = Kind::kQuery;
    Query query;
    // Prepared submissions carry the handle and the bound values instead of a
    // full Query; `prepared.valid()` distinguishes the two flavors.
    PreparedQuery prepared;
    std::vector<Value> params;
    // Grouping key, precomputed at submit. Ad-hoc: "q:" + Fingerprint(kShape).
    // Prepared: "p:" + the handle's plan_key_base — the kExact shape
    // fingerprint, NOT the kShape one, because two shapes differing only in a
    // FIXED literal share a kShape fingerprint but translate to different
    // plans. The prefixes keep prepared and ad-hoc groups from ever mixing.
    std::string shape_key;
    std::string exact_key;  // bound Fingerprint(kExact), for coalescing
    std::string append_table;
    std::shared_ptr<const Table> append_rows;
    ServiceLane lane = ServiceLane::kInteractive;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<ServiceResult> promise;
  };

  // Admission tail shared by every Submit flavor: push or reject-with-cause.
  std::future<ServiceResult> Enqueue(Job job, size_t lane);
  void WorkerLoop();
  void RunAppend(Job job);
  void RunGroup(std::vector<Job> jobs);
  static void Reject(Job&& job, AdmissionOutcome outcome, const std::string& error);
  void BumpMaxGroup(uint64_t group_size);

  ServiceOptions options_;
  Session session_;
  MpmcQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> dispatch_seq_{0};

  // Excludes setup (Attach, exclusive) from serving (query groups, Prepare
  // and appends, all shared — appends overlap query groups by design).
  std::shared_mutex serve_mu_;

  struct Counters {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> rejected_queue_full{0};
    std::atomic<uint64_t> rejected_shutdown{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> coalesced{0};
    std::atomic<uint64_t> groups{0};
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> max_group{0};
  };
  Counters counters_;
};

}  // namespace seabed

#endif  // SEABED_SRC_SEABED_SERVICE_H_
