#include "src/seabed/service.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/check.h"

namespace seabed {

namespace {

constexpr size_t kLanes = 2;  // ServiceLane::kInteractive, ServiceLane::kBatch

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

}  // namespace

const char* AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kRejectedQueueFull:
      return "rejected-queue-full";
    case AdmissionOutcome::kRejectedShutdown:
      return "rejected-shutdown";
    case AdmissionOutcome::kDeadlineExpired:
      return "deadline-expired";
  }
  return "unknown";
}

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      session_(options_.session),
      queue_(options_.max_queue_depth, kLanes) {
  SEABED_CHECK_MSG(options_.num_workers >= 1, "Service needs at least one worker");
  // Appends overlap in-flight queries, which only the Seabed engine's
  // published table versions make safe; kPlain and kPaillier mutate in place.
  const BackendKind backend = options_.session.backend;
  SEABED_CHECK_MSG(backend == BackendKind::kSeabed || backend == BackendKind::kShardedSeabed,
                   "Service serves only the Seabed engine (kSeabed or kShardedSeabed), not "
                       << BackendKindName(backend));
  SEABED_CHECK_MSG(options_.max_batch >= 1, "max_batch must be >= 1");
  if (options_.autostart) {
    Start();
  }
}

Service::~Service() { Shutdown(/*drain=*/true); }

void Service::Attach(std::shared_ptr<Table> table, const PlainSchema& schema,
                     const std::vector<Query>& sample_queries) {
  std::unique_lock<std::shared_mutex> lock(serve_mu_);
  session_.Attach(std::move(table), schema, sample_queries);
}

void Service::AttachPlanned(std::shared_ptr<Table> table, const PlainSchema& schema,
                            EncryptionPlan plan) {
  std::unique_lock<std::shared_mutex> lock(serve_mu_);
  session_.AttachPlanned(std::move(table), schema, std::move(plan));
}

void Service::Start() {
  if (started_.exchange(true)) {
    return;
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Service::Reject(Job&& job, AdmissionOutcome outcome, const std::string& error) {
  ServiceResult result;
  result.ok = false;
  result.error = error;
  result.stats.admission = outcome;
  result.stats.lane = job.lane;
  job.promise.set_value(std::move(result));
}

std::future<ServiceResult> Service::Submit(Query query, SubmitOptions options) {
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.kind = Job::Kind::kQuery;
  job.shape_key = "q:" + query.Fingerprint(Query::FingerprintMode::kShape);
  job.exact_key = query.Fingerprint(Query::FingerprintMode::kExact);
  job.query = std::move(query);
  job.lane = options.lane;
  job.deadline = options.deadline;
  job.enqueued = std::chrono::steady_clock::now();
  return Enqueue(std::move(job), static_cast<size_t>(options.lane));
}

std::future<ServiceResult> Service::Enqueue(Job job, size_t lane) {
  std::future<ServiceResult> future = job.promise.get_future();

  if (!accepting_.load(std::memory_order_acquire)) {
    counters_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    Reject(std::move(job), AdmissionOutcome::kRejectedShutdown, "service is shut down");
    return future;
  }
  if (!queue_.TryPush(std::move(job), lane)) {
    // TryPush fails both on depth and on a racing Close (it never consumes
    // the job on failure); report the honest cause where we can tell.
    if (!accepting_.load(std::memory_order_acquire) || queue_.closed()) {
      counters_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
      Reject(std::move(job), AdmissionOutcome::kRejectedShutdown, "service is shut down");
    } else {
      counters_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      Reject(std::move(job), AdmissionOutcome::kRejectedQueueFull,
             "queue full (max_queue_depth=" + std::to_string(options_.max_queue_depth) + ")");
    }
  }
  return future;
}

PreparedQuery Service::Prepare(const Query& shape) {
  // Shared: Prepare only reads the catalog, so it may overlap query groups —
  // it just must not race an Attach rewiring the tables it validates against.
  std::shared_lock<std::shared_mutex> lock(serve_mu_);
  return session_.Prepare(shape);
}

std::future<ServiceResult> Service::SubmitPrepared(const PreparedQuery& prepared,
                                                   std::vector<Value> params,
                                                   SubmitOptions options) {
  SEABED_CHECK_MSG(prepared.valid(), "SubmitPrepared requires a prepared handle");
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.kind = Job::Kind::kQuery;
  job.prepared = prepared;
  // The bound query rides along for the coalescing key and the group's
  // dispatch-side bookkeeping; the backend re-binds against its cached
  // translated plan.
  job.query = prepared.Bind(params);
  job.params = std::move(params);
  job.shape_key = "p:" + prepared.plan_key_base();
  job.exact_key = job.query.Fingerprint(Query::FingerprintMode::kExact);
  job.lane = options.lane;
  job.deadline = options.deadline;
  job.enqueued = std::chrono::steady_clock::now();
  return Enqueue(std::move(job), static_cast<size_t>(options.lane));
}

std::vector<std::future<ServiceResult>> Service::SubmitBatch(std::vector<Query> queries,
                                                             SubmitOptions options) {
  std::vector<std::future<ServiceResult>> futures;
  futures.reserve(queries.size());
  for (Query& query : queries) {
    futures.push_back(Submit(std::move(query), options));
  }
  return futures;
}

std::future<ServiceResult> Service::SubmitAppend(std::string table,
                                                 std::shared_ptr<const Table> rows) {
  SEABED_CHECK_MSG(rows != nullptr, "SubmitAppend requires rows");
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  Job job;
  job.kind = Job::Kind::kAppend;
  job.append_table = std::move(table);
  job.append_rows = std::move(rows);
  job.lane = ServiceLane::kInteractive;  // lane 0: ingest must not starve
  job.enqueued = std::chrono::steady_clock::now();
  return Enqueue(std::move(job), 0);
}

void Service::Shutdown(bool drain) {
  accepting_.store(false, std::memory_order_release);
  if (!drain) {
    for (Job& job : queue_.Drain()) {
      counters_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
      Reject(std::move(job), AdmissionOutcome::kRejectedShutdown,
             "service shut down before this job was served");
    }
  }
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  // With no workers ever started (autostart=false, drain path) the backlog
  // has no one to serve it — fail it rather than leak unfulfilled promises.
  for (Job& job : queue_.Drain()) {
    counters_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    Reject(std::move(job), AdmissionOutcome::kRejectedShutdown,
           "service shut down before this job was served");
  }
}

ServiceCounters Service::counters() const {
  ServiceCounters snapshot;
  snapshot.submitted = counters_.submitted.load(std::memory_order_relaxed);
  snapshot.rejected_queue_full = counters_.rejected_queue_full.load(std::memory_order_relaxed);
  snapshot.rejected_shutdown = counters_.rejected_shutdown.load(std::memory_order_relaxed);
  snapshot.expired = counters_.expired.load(std::memory_order_relaxed);
  snapshot.executed = counters_.executed.load(std::memory_order_relaxed);
  snapshot.coalesced = counters_.coalesced.load(std::memory_order_relaxed);
  snapshot.groups = counters_.groups.load(std::memory_order_relaxed);
  snapshot.appends = counters_.appends.load(std::memory_order_relaxed);
  snapshot.max_group = counters_.max_group.load(std::memory_order_relaxed);
  return snapshot;
}

void Service::BumpMaxGroup(uint64_t group_size) {
  uint64_t current = counters_.max_group.load(std::memory_order_relaxed);
  while (group_size > current &&
         !counters_.max_group.compare_exchange_weak(current, group_size,
                                                    std::memory_order_relaxed)) {
  }
}

void Service::WorkerLoop() {
  std::vector<Job> group;
  for (;;) {
    group.clear();
    const size_t popped = queue_.PopGroup(
        &group, options_.max_batch,
        [](const Job& a, const Job& b) {
          return a.kind == Job::Kind::kQuery && b.kind == Job::Kind::kQuery &&
                 a.shape_key == b.shape_key;
        },
        [](const Job& job) { return job.kind != Job::Kind::kQuery; });
    if (popped == 0) {
      return;  // closed and drained
    }
    if (group.front().kind == Job::Kind::kAppend) {
      RunAppend(std::move(group.front()));  // thaws the queue itself
    } else {
      RunGroup(std::move(group));
    }
  }
}

void Service::RunAppend(Job job) {
  const auto dequeued = std::chrono::steady_clock::now();
  const auto exec_begin = std::chrono::steady_clock::now();
  // The backend reports the ingest job's modeled fabric cost (real measured
  // compute, synthetic parallelism — the same contract queries honor), and
  // pace_modeled_latency sleeps it out just like RunGroup does for queries.
  JobStats ingest;
  {
    // The engine builds the next table version off to the side and publishes
    // it atomically, so in-flight query groups (holding this lock shared)
    // keep running against their pinned versions. Shared here only to
    // exclude a concurrent Attach rewiring the catalog.
    std::shared_lock<std::shared_mutex> lock(serve_mu_);
    session_.Append(job.append_table, *job.append_rows, &ingest);
  }
  // The new version is published, so later-queued queries may dispatch now
  // (SubmitAppend's ordering contract: they observe the append). Only the
  // appender's own completion waits out the modeled fabric time, off to the
  // side of the serving path.
  queue_.Thaw();
  if (options_.pace_modeled_latency && ingest.server_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(ingest.server_seconds));
  }
  // The span covers the modeled-latency pacing, mirroring query groups: the
  // sleep stands in for the simulated cluster's ingest work.
  const auto exec_end = std::chrono::steady_clock::now();
  counters_.appends.fetch_add(1, std::memory_order_relaxed);
  ServiceResult result;
  result.ok = true;
  result.stats.admission = AdmissionOutcome::kAdmitted;
  result.stats.lane = job.lane;
  result.stats.queue_wait_seconds = Seconds(dequeued - job.enqueued);
  result.stats.batch_size = 1;
  result.stats.dispatch_seq = dispatch_seq_.fetch_add(1, std::memory_order_relaxed);
  result.stats.exec_begin = exec_begin;
  result.stats.exec_end = exec_end;
  result.stats.query.job = ingest;
  result.stats.query.server_seconds = ingest.server_seconds;
  job.promise.set_value(std::move(result));
}

void Service::RunGroup(std::vector<Job> jobs) {
  const auto dequeued = std::chrono::steady_clock::now();

  // Deadlines are honored at dequeue: expired queries fail without executing.
  std::vector<Job> live;
  live.reserve(jobs.size());
  for (Job& job : jobs) {
    if (job.deadline.has_value() && *job.deadline < dequeued) {
      counters_.expired.fetch_add(1, std::memory_order_relaxed);
      ServiceResult result;
      result.ok = false;
      result.error = "deadline expired before execution";
      result.stats.admission = AdmissionOutcome::kDeadlineExpired;
      result.stats.lane = job.lane;
      result.stats.queue_wait_seconds = Seconds(dequeued - job.enqueued);
      job.promise.set_value(std::move(result));
      continue;
    }
    live.push_back(std::move(job));
  }
  if (live.empty()) {
    return;
  }

  if (options_.pre_dispatch_hook) {
    options_.pre_dispatch_hook();
  }

  // Re-check at dispatch: the dequeue check above is not enough — time
  // passes between dequeue and the backend call (group assembly, and on a
  // busy worker the modeled-latency pacing of a preceding group), and a
  // query whose deadline lapsed in that window must fail fast, not execute.
  const auto dispatch = std::chrono::steady_clock::now();
  {
    std::vector<Job> still_live;
    still_live.reserve(live.size());
    for (Job& job : live) {
      if (job.deadline.has_value() && *job.deadline < dispatch) {
        counters_.expired.fetch_add(1, std::memory_order_relaxed);
        ServiceResult result;
        result.ok = false;
        result.error = "deadline expired before dispatch";
        result.stats.admission = AdmissionOutcome::kDeadlineExpired;
        result.stats.lane = job.lane;
        result.stats.queue_wait_seconds = Seconds(dequeued - job.enqueued);
        job.promise.set_value(std::move(result));
        continue;
      }
      still_live.push_back(std::move(job));
    }
    live = std::move(still_live);
  }
  if (live.empty()) {
    return;
  }

  // Coalesce byte-identical queries: one execution answers all duplicates.
  // Prepared groups (never mixed with ad-hoc ones — the shape-key prefix
  // keeps them apart) coalesce on the same bound-exact key, but dedupe into
  // parameter vectors for ExecutePreparedBatch instead of full queries.
  const bool is_prepared = live.front().prepared.valid();
  std::vector<Query> distinct;
  std::vector<std::vector<Value>> distinct_params;
  std::vector<size_t> owner(live.size());
  {
    std::map<std::string, size_t> seen;
    for (size_t i = 0; i < live.size(); ++i) {
      if (options_.coalesce_identical) {
        auto [it, inserted] = seen.try_emplace(live[i].exact_key, distinct.size());
        owner[i] = it->second;
        if (!inserted) {
          continue;
        }
      } else {
        owner[i] = distinct.size();
      }
      distinct.push_back(live[i].query);
      if (is_prepared) {
        distinct_params.push_back(live[i].params);
      }
    }
  }

  const uint64_t seq = dispatch_seq_.fetch_add(1, std::memory_order_relaxed);
  counters_.groups.fetch_add(1, std::memory_order_relaxed);
  BumpMaxGroup(live.size());

  std::vector<ResultSet> results;
  std::vector<QueryStats> stats;
  const auto exec_begin = std::chrono::steady_clock::now();
  {
    std::shared_lock<std::shared_mutex> lock(serve_mu_);
    if (is_prepared) {
      const PreparedQuery& prepared = live.front().prepared;
      if (distinct_params.size() == 1) {
        stats.emplace_back();
        results.push_back(session_.Execute(prepared, distinct_params[0], &stats[0]));
      } else {
        results = session_.ExecutePreparedBatch(prepared, distinct_params, &stats);
      }
    } else if (distinct.size() == 1) {
      stats.emplace_back();
      results.push_back(session_.Execute(distinct[0], &stats[0]));
    } else {
      results = session_.ExecuteBatch(distinct, &stats);
    }
  }

  if (options_.pace_modeled_latency) {
    // One modeled round trip per dispatched group: the whole shape group
    // ships as one batched job, so the group waits out the SLOWEST member's
    // modeled server + transfer latency, not the sum.
    double modeled = 0;
    for (const QueryStats& qs : stats) {
      modeled = std::max(modeled, qs.server_seconds + qs.network_seconds);
    }
    if (modeled > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(modeled));
    }
  }
  // The group's serving span covers the modeled-latency pacing: that sleep
  // stands in for the simulated cluster's work, so overlap assertions (did
  // an append run WHILE queries executed?) must see it.
  const auto exec_end = std::chrono::steady_clock::now();

  counters_.executed.fetch_add(live.size(), std::memory_order_relaxed);
  if (live.size() > distinct.size()) {
    counters_.coalesced.fetch_add(live.size() - distinct.size(), std::memory_order_relaxed);
  }

  std::vector<bool> owner_seen(distinct.size(), false);
  for (size_t i = 0; i < live.size(); ++i) {
    ServiceResult result;
    result.ok = true;
    result.rows = results[owner[i]];
    result.stats.admission = AdmissionOutcome::kAdmitted;
    result.stats.lane = live[i].lane;
    result.stats.queue_wait_seconds = Seconds(dequeued - live[i].enqueued);
    result.stats.batch_size = live.size();
    result.stats.coalesced = owner_seen[owner[i]];
    result.stats.dispatch_seq = seq;
    result.stats.exec_begin = exec_begin;
    result.stats.exec_end = exec_end;
    result.stats.query = stats[owner[i]];
    owner_seen[owner[i]] = true;
    live[i].promise.set_value(std::move(result));
  }
}

}  // namespace seabed
