// seabed::Service behavior: admission control, deadlines, drain semantics,
// shape batching / coalescing, append barrier ordering, lane priority, and
// multi-threaded equivalence with a sequential kPlain session. Everything
// here runs with modeled cluster overheads zeroed so the suite stays fast;
// the closed-loop throughput story lives in bench_fig14_service.
#include "src/seabed/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "src/seabed/executor.h"
#include "src/workload/synthetic.h"
#include "tests/seabed/test_util.h"

namespace seabed {
namespace {

constexpr uint64_t kRows = 1200;
constexpr uint64_t kGroups = 8;

SyntheticSpec TestSpec(uint64_t rows = kRows, uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.seed = seed;
  spec.group_cardinality = kGroups;
  return spec;
}

SessionOptions TestSessionOptions(BackendKind backend) {
  SessionOptions so;
  so.backend = backend;
  so.cluster.num_workers = 4;
  so.cluster.job_overhead_seconds = 0;
  so.cluster.task_overhead_seconds = 0;
  so.planner.expected_rows = kRows;
  so.shards = 2;
  so.key_seed = 99;
  return so;
}

ServiceOptions TestServiceOptions(BackendKind backend) {
  ServiceOptions options;
  options.session = TestSessionOptions(backend);
  options.num_workers = 4;
  options.max_queue_depth = 256;
  options.max_batch = 16;
  return options;
}

// Shared fixture: one synthetic table; the plain reference session and the
// service under test each attach their own clone so appends stay isolated.
class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : spec_(TestSpec()),
        table_(MakeSyntheticTable(spec_)),
        schema_(SyntheticSchema(spec_)),
        samples_(SyntheticSampleQueries(spec_)),
        plain_(TestSessionOptions(BackendKind::kPlain)) {
    plain_.Attach(CloneTable(*table_), schema_, samples_);
  }

  std::unique_ptr<Service> MakeService(ServiceOptions options) {
    auto service = std::make_unique<Service>(std::move(options));
    service->Attach(CloneTable(*table_), schema_, samples_);
    return service;
  }

  std::vector<Query> MixedQueries() const {
    return {SyntheticSumQuery(5),  SyntheticSumQuery(25), SyntheticSumQuery(50),
            SyntheticSumQuery(75), SyntheticSumQuery(100), SyntheticGroupByQuery(kGroups)};
  }

  SyntheticSpec spec_;
  std::shared_ptr<Table> table_;
  PlainSchema schema_;
  std::vector<Query> samples_;
  Session plain_;
};

TEST_F(ServiceTest, ServesQueriesAndMatchesPlain) {
  std::unique_ptr<Service> service = MakeService(TestServiceOptions(BackendKind::kSeabed));
  const std::vector<Query> queries = MixedQueries();
  std::vector<std::future<ServiceResult>> futures;
  for (const Query& q : queries) {
    futures.push_back(service->Submit(q));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ServiceResult r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.stats.admission, AdmissionOutcome::kAdmitted);
    EXPECT_GE(r.stats.queue_wait_seconds, 0.0);
    EXPECT_GE(r.stats.batch_size, 1u);
    EXPECT_EQ(RowsAsStrings(r.rows), RowsAsStrings(plain_.Execute(queries[i])));
  }
  service->Shutdown();
  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.submitted, queries.size());
  EXPECT_EQ(c.executed, queries.size());
  EXPECT_EQ(c.rejected_queue_full, 0u);
}

TEST_F(ServiceTest, AdmissionRejectsBeyondMaxQueueDepth) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;  // no consumers: the queue fills deterministically
  options.max_queue_depth = 3;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service->Submit(SyntheticSumQuery(40)));
  }
  // The overflow futures resolve immediately, without blocking the caller.
  for (int i = 3; i < 5; ++i) {
    ServiceResult r = futures[static_cast<size_t>(i)].get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.stats.admission, AdmissionOutcome::kRejectedQueueFull);
  }
  EXPECT_EQ(service->counters().rejected_queue_full, 2u);
  EXPECT_EQ(service->queue_depth(), 3u);

  service->Shutdown(/*drain=*/false);
  for (int i = 0; i < 3; ++i) {
    ServiceResult r = futures[static_cast<size_t>(i)].get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.stats.admission, AdmissionOutcome::kRejectedShutdown);
  }
  EXPECT_EQ(service->counters().executed, 0u);
}

TEST_F(ServiceTest, DeadlineExpiredQueriesFailWithoutExecuting) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  // Same shape on purpose: both pop as ONE group and the expired member must
  // be filtered out of it, not dragged through execution.
  std::future<ServiceResult> dead = service->Submit(SyntheticSumQuery(40), expired);
  std::future<ServiceResult> live = service->Submit(SyntheticSumQuery(40));
  service->Start();

  ServiceResult dead_r = dead.get();
  EXPECT_FALSE(dead_r.ok);
  EXPECT_EQ(dead_r.stats.admission, AdmissionOutcome::kDeadlineExpired);
  EXPECT_EQ(dead_r.stats.query.backend, "");  // never executed

  ServiceResult live_r = live.get();
  ASSERT_TRUE(live_r.ok) << live_r.error;
  EXPECT_EQ(live_r.stats.batch_size, 1u);  // the expired sibling left the group
  EXPECT_EQ(RowsAsStrings(live_r.rows), RowsAsStrings(plain_.Execute(SyntheticSumQuery(40))));

  service->Shutdown();
  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.executed, 1u);
}

TEST_F(ServiceTest, DrainShutdownCompletesInFlightWork) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.num_workers = 2;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service->Submit(SyntheticSumQuery(10 + (i % 4) * 20)));
  }
  service->Shutdown(/*drain=*/true);  // must serve the whole backlog first
  for (auto& f : futures) {
    ServiceResult r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_EQ(service->counters().executed, 12u);

  // After shutdown, submissions bounce immediately.
  ServiceResult late = service->Submit(SyntheticSumQuery(40)).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.stats.admission, AdmissionOutcome::kRejectedShutdown);
}

TEST_F(ServiceTest, NoDrainShutdownFailsQueuedJobs) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service->Submit(SyntheticSumQuery(40)));
  }
  service->Shutdown(/*drain=*/false);
  for (auto& f : futures) {
    ServiceResult r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.stats.admission, AdmissionOutcome::kRejectedShutdown);
  }
  EXPECT_EQ(service->counters().rejected_shutdown, 4u);
  EXPECT_EQ(service->counters().executed, 0u);
}

TEST_F(ServiceTest, ShapeBatchingCoalescesIdenticalQueriesAndTranslation) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;  // queue everything, then let ONE worker pop
  options.num_workers = 1;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  const Query q = SyntheticSumQuery(30);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service->Submit(q));
  }
  service->Start();

  const std::vector<std::string> expected = RowsAsStrings(plain_.Execute(q));
  size_t coalesced_flags = 0;
  for (auto& f : futures) {
    ServiceResult r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(RowsAsStrings(r.rows), expected);
    EXPECT_EQ(r.stats.batch_size, 8u);
    coalesced_flags += r.stats.coalesced ? 1 : 0;
  }
  service->Shutdown();

  // One group, one execution, one translation for eight submissions.
  EXPECT_EQ(coalesced_flags, 7u);
  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.groups, 1u);
  EXPECT_EQ(c.executed, 8u);
  EXPECT_EQ(c.coalesced, 7u);
  EXPECT_EQ(c.max_group, 8u);
  EXPECT_EQ(service->plan_cache().misses(), 1u);
}

// A Service-facing engine configuration: the backend and its result-cache
// budget (0: off).
struct ServiceStack {
  BackendKind backend;
  size_t result_cache_bytes;
};

ServiceOptions TestServiceOptions(const ServiceStack& stack) {
  ServiceOptions options = TestServiceOptions(stack.backend);
  options.session.result_cache_bytes = stack.result_cache_bytes;
  return options;
}

std::string StackName(const ServiceStack& stack) {
  std::string name = BackendKindName(stack.backend);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return stack.result_cache_bytes > 0 ? name + "_resultcache" : name;
}

constexpr ServiceStack kServiceStacks[] = {{BackendKind::kSeabed, 0},
                                           {BackendKind::kShardedSeabed, 0},
                                           {BackendKind::kShardedSeabed, 16u << 20}};

// Service::plan_cache() is the engine's own cache, so it counts the same
// translations on every configuration the service serves — including one
// whose result cache answers repeats in front of the plan cache.
TEST_F(ServiceTest, PlanCacheCountsPreparedTranslationsOnEverySeabedStack) {
  Query shape;
  shape.table = "synthetic";
  shape.Sum("value");
  shape.WhereParam("sel", CmpOp::kLt);
  for (const ServiceStack& stack : kServiceStacks) {
    SCOPED_TRACE(StackName(stack));
    std::unique_ptr<Service> service = MakeService(TestServiceOptions(stack));
    const PreparedQuery prepared = service->Prepare(shape);
    // One submission at a time: each runs alone, so the first translates
    // and the other two hit, with no concurrent miss to race it.
    for (const int64_t bound : {10, 40, 70}) {
      const std::vector<Value> params = {bound};
      ServiceResult r = service->SubmitPrepared(prepared, params).get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(RowsAsStrings(r.rows), RowsAsStrings(plain_.Execute(shape.BindParams(params))))
          << "sel<" << bound;
    }
    service->Shutdown();
    EXPECT_EQ(service->plan_cache().misses(), 1u);
    EXPECT_EQ(service->plan_cache().hits(), 2u);
  }
}

TEST_F(ServiceTest, SameShapeDifferentLiteralsKeepPerQueryStats) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;
  options.num_workers = 1;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  // Equal kShape fingerprints (the literal is elided) — one group, one
  // ExecuteBatch — but distinct kExact fingerprints, so no coalescing.
  const Query narrow = SyntheticSumQuery(5);
  const Query wide = SyntheticSumQuery(95);
  std::future<ServiceResult> f_narrow = service->Submit(narrow);
  std::future<ServiceResult> f_wide = service->Submit(wide);
  service->Start();

  ServiceResult narrow_r = f_narrow.get();
  ServiceResult wide_r = f_wide.get();
  service->Shutdown();
  ASSERT_TRUE(narrow_r.ok && wide_r.ok);
  EXPECT_EQ(narrow_r.stats.batch_size, 2u);
  EXPECT_EQ(wide_r.stats.batch_size, 2u);
  EXPECT_FALSE(narrow_r.stats.coalesced);
  EXPECT_FALSE(wide_r.stats.coalesced);
  EXPECT_EQ(service->counters().groups, 1u);

  // Per-query stats must belong to each query, not the last batch member:
  // the two selectivities touch very different row counts, and each must
  // agree with a serial plain-session run of the same query.
  QueryStats plain_narrow, plain_wide;
  EXPECT_EQ(RowsAsStrings(narrow_r.rows),
            RowsAsStrings(plain_.Execute(narrow, &plain_narrow)));
  EXPECT_EQ(RowsAsStrings(wide_r.rows), RowsAsStrings(plain_.Execute(wide, &plain_wide)));
  EXPECT_EQ(narrow_r.stats.query.rows_touched, plain_narrow.rows_touched);
  EXPECT_EQ(wide_r.stats.query.rows_touched, plain_wide.rows_touched);
  EXPECT_LT(narrow_r.stats.query.rows_touched, wide_r.stats.query.rows_touched);
}

TEST_F(ServiceTest, AppendsAreBarrierOrderedAgainstQueries) {
  std::unique_ptr<Service> service = MakeService(TestServiceOptions(BackendKind::kSeabed));
  const Query q = SyntheticSumQuery(100);
  std::shared_ptr<Table> batch = MakeSyntheticTable(TestSpec(/*rows=*/150, /*seed=*/123));

  // FIFO through one lane: the pre-query pops first and the post-query
  // cannot pop until the barrier thaws (append published). The barrier is
  // ordering-only on this snapshot-isolated backend, so the pre-query may
  // still pin the post-append version if the append publishes before it
  // executes — pre-or-post, never torn. The post-query is exact: it
  // dispatches strictly after the append completes.
  std::future<ServiceResult> before = service->Submit(q);
  std::future<ServiceResult> append = service->SubmitAppend("synthetic", batch);
  std::future<ServiceResult> after = service->Submit(q);

  const std::vector<std::string> plain_before = RowsAsStrings(plain_.Execute(q));
  ServiceResult before_r = before.get();
  ASSERT_TRUE(before_r.ok) << before_r.error;

  ServiceResult append_r = append.get();
  ASSERT_TRUE(append_r.ok) << append_r.error;

  plain_.Append("synthetic", *batch);
  const std::vector<std::string> plain_after = RowsAsStrings(plain_.Execute(q));
  ASSERT_NE(plain_before, plain_after);  // the batch must actually change the sum

  const std::vector<std::string> before_rows = RowsAsStrings(before_r.rows);
  EXPECT_TRUE(before_rows == plain_before || before_rows == plain_after)
      << "pre-barrier query matches neither the pre- nor post-append reference";

  ServiceResult after_r = after.get();
  ASSERT_TRUE(after_r.ok) << after_r.error;
  EXPECT_EQ(RowsAsStrings(after_r.rows), plain_after);

  service->Shutdown();
  EXPECT_EQ(service->counters().appends, 1u);
}

// The deadline is re-checked at DISPATCH, not just at dequeue: a query that
// was alive when popped but expired in the dequeue->dispatch window (here
// widened by the test hook; in production, group assembly or a prior group
// pacing out modeled latency on the same worker) must fail fast instead of
// executing.
TEST_F(ServiceTest, DeadlineRecheckedAtDispatch) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;
  options.num_workers = 1;
  options.pre_dispatch_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  };
  std::unique_ptr<Service> service = MakeService(std::move(options));

  SubmitOptions submit;
  // Comfortably alive at dequeue, long expired once the hook has run.
  submit.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  std::future<ServiceResult> f = service->Submit(SyntheticSumQuery(40), submit);
  service->Start();

  ServiceResult r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.stats.admission, AdmissionOutcome::kDeadlineExpired);
  EXPECT_EQ(r.stats.query.backend, "");  // never executed
  service->Shutdown();
  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.executed, 0u);
}

// The serving-layer claim, deterministically: a query group paced through
// modeled latency is mid-execution when an append dispatches, and the append
// completes INSIDE the query's span — on every stack Service accepts.
TEST_F(ServiceTest, AppendOverlapsPacedQueries) {
  for (const ServiceStack& stack : kServiceStacks) {
    SCOPED_TRACE(StackName(stack));
    ServiceOptions options = TestServiceOptions(stack);
    options.session.cluster.job_overhead_seconds = 0.2;  // modeled, slept out
    options.pace_modeled_latency = true;
    options.num_workers = 2;
    std::unique_ptr<Service> service = MakeService(std::move(options));
    std::shared_ptr<Table> batch = MakeSyntheticTable(TestSpec(/*rows=*/60, /*seed=*/11));

    std::future<ServiceResult> query = service->Submit(SyntheticSumQuery(50));
    // Wait until the query group is dequeued (the queue empties), so the
    // append demonstrably arrives while the query is executing.
    while (service->queue_depth() > 0) {
      std::this_thread::yield();
    }
    std::future<ServiceResult> append = service->SubmitAppend("synthetic", batch);

    ServiceResult append_r = append.get();
    ServiceResult query_r = query.get();
    ASSERT_TRUE(append_r.ok) << append_r.error;
    ASSERT_TRUE(query_r.ok) << query_r.error;
    EXPECT_LT(append_r.stats.exec_begin, query_r.stats.exec_end);
    EXPECT_LT(query_r.stats.exec_begin, append_r.stats.exec_end);
    service->Shutdown();
  }
}

// Every Submit* call counts in `submitted`, appends included, and lands in
// exactly one outcome counter — through queue-full rejections, shutdown
// rejections (queued and late) and served work alike.
TEST_F(ServiceTest, CountersBalanceForQueriesAndAppends) {
  auto balanced = [](const ServiceCounters& c) {
    return c.submitted ==
           c.executed + c.appends + c.expired + c.rejected_queue_full + c.rejected_shutdown;
  };
  std::shared_ptr<Table> batch = MakeSyntheticTable(TestSpec(/*rows=*/50, /*seed=*/5));
  {
    ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
    options.autostart = false;
    options.max_queue_depth = 2;
    std::unique_ptr<Service> service = MakeService(std::move(options));
    std::vector<std::future<ServiceResult>> full;
    std::vector<std::future<ServiceResult>> shut;
    shut.push_back(service->Submit(SyntheticSumQuery(40)));       // queued
    shut.push_back(service->SubmitAppend("synthetic", batch));    // queued
    full.push_back(service->Submit(SyntheticSumQuery(40)));       // queue full
    full.push_back(service->SubmitAppend("synthetic", batch));    // queue full
    service->Shutdown(/*drain=*/false);                           // fails the queued two
    shut.push_back(service->Submit(SyntheticSumQuery(40)));       // after shutdown
    shut.push_back(service->SubmitAppend("synthetic", batch));    // after shutdown
    for (auto& f : full) {
      EXPECT_EQ(f.get().stats.admission, AdmissionOutcome::kRejectedQueueFull);
    }
    for (auto& f : shut) {
      EXPECT_EQ(f.get().stats.admission, AdmissionOutcome::kRejectedShutdown);
    }
    const ServiceCounters c = service->counters();
    EXPECT_EQ(c.submitted, 6u);
    EXPECT_EQ(c.rejected_queue_full, 2u);
    EXPECT_EQ(c.rejected_shutdown, 4u);
    EXPECT_TRUE(balanced(c));
  }
  {
    std::unique_ptr<Service> service = MakeService(TestServiceOptions(BackendKind::kSeabed));
    SubmitOptions expired;
    expired.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    std::vector<std::future<ServiceResult>> futures;
    futures.push_back(service->Submit(SyntheticSumQuery(40)));
    futures.push_back(service->Submit(SyntheticSumQuery(40), expired));
    futures.push_back(service->SubmitAppend("synthetic", batch));
    for (auto& f : futures) {
      f.wait();
    }
    service->Shutdown();
    const ServiceCounters c = service->counters();
    EXPECT_EQ(c.submitted, 3u);
    EXPECT_EQ(c.appends, 1u);
    EXPECT_EQ(c.expired, 1u);
    EXPECT_TRUE(balanced(c));
  }
}

TEST_F(ServiceTest, InteractiveLaneDispatchesBeforeBatchLane) {
  ServiceOptions options = TestServiceOptions(BackendKind::kSeabed);
  options.autostart = false;
  options.num_workers = 1;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  SubmitOptions batch_lane;
  batch_lane.lane = ServiceLane::kBatch;
  std::future<ServiceResult> slow1 = service->Submit(SyntheticGroupByQuery(kGroups), batch_lane);
  std::future<ServiceResult> slow2 = service->Submit(SyntheticSumQuery(60), batch_lane);
  std::future<ServiceResult> probe = service->Submit(SyntheticSumQuery(10));  // interactive
  service->Start();

  ServiceResult probe_r = probe.get();
  ServiceResult slow1_r = slow1.get();
  ServiceResult slow2_r = slow2.get();
  service->Shutdown();
  ASSERT_TRUE(probe_r.ok && slow1_r.ok && slow2_r.ok);
  EXPECT_EQ(probe_r.stats.lane, ServiceLane::kInteractive);
  EXPECT_EQ(slow1_r.stats.lane, ServiceLane::kBatch);
  // Queued last, dispatched first: the interactive lane outranks the backlog.
  EXPECT_LT(probe_r.stats.dispatch_seq, slow1_r.stats.dispatch_seq);
  EXPECT_LT(probe_r.stats.dispatch_seq, slow2_r.stats.dispatch_seq);
}

TEST_F(ServiceTest, ResultCacheMissesAfterServiceAppends) {
  std::unique_ptr<Service> service =
      MakeService(TestServiceOptions(ServiceStack{BackendKind::kSeabed, 16u << 20}));
  const Query q = SyntheticSumQuery(100);

  ServiceResult cold = service->Submit(q).get();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(RowsAsStrings(cold.rows), RowsAsStrings(plain_.Execute(q)));

  ServiceResult warm = service->Submit(q).get();
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.stats.query.cache_hit);

  std::shared_ptr<Table> batch = MakeSyntheticTable(TestSpec(/*rows=*/150, /*seed=*/321));
  ASSERT_TRUE(service->SubmitAppend("synthetic", batch).get().ok);
  plain_.Append("synthetic", *batch);

  ServiceResult fresh = service->Submit(q).get();
  ASSERT_TRUE(fresh.ok);
  EXPECT_FALSE(fresh.stats.query.cache_hit);  // the append published a new version
  EXPECT_TRUE(fresh.stats.query.plan_cache_hit);
  EXPECT_EQ(RowsAsStrings(fresh.rows), RowsAsStrings(plain_.Execute(q)));
  service->Shutdown();
}

// The TSan centerpiece: many submitter threads, every backend stack, results
// must match a sequential plain session query-for-query.
class ServiceConcurrencyTest : public ServiceTest,
                               public ::testing::WithParamInterface<ServiceStack> {};

TEST_P(ServiceConcurrencyTest, ConcurrentSubmittersMatchPlainReference) {
  ServiceOptions options = TestServiceOptions(GetParam());
  options.num_workers = 6;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  const std::vector<Query> pool = MixedQueries();
  std::vector<std::vector<std::string>> expected;
  expected.reserve(pool.size());
  for (const Query& q : pool) {
    expected.push_back(RowsAsStrings(plain_.Execute(q)));
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::pair<size_t, std::future<ServiceResult>>> local;
      for (int i = 0; i < kPerThread; ++i) {
        const size_t pick = static_cast<size_t>((t * 7 + i) % pool.size());
        SubmitOptions submit;
        submit.lane = (i % 3 == 0) ? ServiceLane::kBatch : ServiceLane::kInteractive;
        local.emplace_back(pick, service->Submit(pool[pick], submit));
      }
      for (auto& [pick, future] : local) {
        ServiceResult r = future.get();
        if (!r.ok || RowsAsStrings(r.rows) != expected[pick]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  service->Shutdown();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service->counters().executed, static_cast<uint64_t>(kThreads * kPerThread));
}

// The same traffic with an append stream to the queried table racing it:
// every answer must equal kPlain's at SOME append prefix (each query pins one
// published version), every append must be acknowledged, and once the last
// append is acknowledged a query sees the final prefix exactly.
TEST_P(ServiceConcurrencyTest, SubmittersRacingAnAppenderMatchPlainAtSomePrefix) {
  ServiceOptions options = TestServiceOptions(GetParam());
  options.num_workers = 6;
  std::unique_ptr<Service> service = MakeService(std::move(options));

  constexpr size_t kAppends = 10;
  std::vector<std::shared_ptr<Table>> batches;
  for (size_t j = 0; j < kAppends; ++j) {
    batches.push_back(MakeSyntheticTable(TestSpec(/*rows=*/40, /*seed=*/1000 + j)));
  }
  const std::vector<Query> pool = MixedQueries();
  // expected[j][q]: query q's plain answer after the first j appends.
  std::vector<std::vector<std::vector<std::string>>> expected(kAppends + 1);
  for (size_t j = 0; j <= kAppends; ++j) {
    for (const Query& q : pool) {
      expected[j].push_back(RowsAsStrings(plain_.Execute(q)));
    }
    if (j < kAppends) {
      plain_.Append("synthetic", *batches[j]);
    }
  }
  auto matches_some_prefix = [&](size_t pick, const ServiceResult& r) {
    if (!r.ok) {
      return false;
    }
    const std::vector<std::string> got = RowsAsStrings(r.rows);
    for (size_t j = 0; j <= kAppends; ++j) {
      if (got == expected[j][pick]) {
        return true;
      }
    }
    return false;
  };

  constexpr int kThreads = 4;
  constexpr int kMinPerThread = 10;
  std::atomic<bool> appends_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      // Closed loop until the append stream is over, so queries keep racing
      // every append.
      for (int i = 0; i < kMinPerThread || !appends_done.load(); ++i) {
        const size_t pick = static_cast<size_t>((t * 7 + i) % pool.size());
        SubmitOptions submit;
        submit.lane = (i % 3 == 0) ? ServiceLane::kBatch : ServiceLane::kInteractive;
        if (!matches_some_prefix(pick, service->Submit(pool[pick], submit).get())) {
          mismatches.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }
  int acknowledged = 0;
  std::thread appender([&] {
    for (size_t j = 0; j < kAppends; ++j) {
      acknowledged += service->SubmitAppend("synthetic", batches[j]).get().ok ? 1 : 0;
    }
    appends_done.store(true);
  });
  appender.join();
  for (std::thread& t : submitters) {
    t.join();
  }
  EXPECT_EQ(acknowledged, static_cast<int>(kAppends));
  EXPECT_EQ(mismatches.load(), 0);
  for (size_t pick = 0; pick < pool.size(); ++pick) {
    ServiceResult r = service->Submit(pool[pick]).get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(RowsAsStrings(r.rows), expected[kAppends][pick]);
  }
  service->Shutdown();
  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.appends, kAppends);
  EXPECT_EQ(c.executed, static_cast<uint64_t>(answered.load()) + pool.size());
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceConcurrencyTest, ::testing::ValuesIn(kServiceStacks),
                         [](const ::testing::TestParamInfo<ServiceStack>& info) {
                           return StackName(info.param);
                         });

// Appends overlap in-flight queries, which only the Seabed engine's
// published versions make safe, so Service refuses every other backend at
// construction with a message — with or without a result-cache budget,
// which kPlain and kPaillier ignore.
TEST(ServiceDeathTest, RefusesStacksOtherThanTheSeabedEngine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const ServiceStack& stack :
       {ServiceStack{BackendKind::kPlain, 0}, ServiceStack{BackendKind::kPaillier, 0},
        ServiceStack{BackendKind::kPlain, 16u << 20}}) {
    SCOPED_TRACE(BackendKindName(stack.backend));
    ServiceOptions options = TestServiceOptions(stack);
    options.session.paillier.modulus_bits = 256;
    options.autostart = false;
    EXPECT_DEATH({ Service service(options); },
                 std::string("Service serves only the Seabed engine.*not ") +
                     BackendKindName(stack.backend));
  }
}

}  // namespace
}  // namespace seabed
