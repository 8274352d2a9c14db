#include "src/engine/cluster.h"

#include <gtest/gtest.h>

#include <atomic>

namespace seabed {
namespace {

ClusterConfig FastConfig(size_t workers) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  cfg.job_overhead_seconds = 0.1;
  cfg.task_overhead_seconds = 0.001;
  return cfg;
}

TEST(ClusterTest, RunsEveryTask) {
  const Cluster cluster(FastConfig(4));
  std::vector<std::atomic<int>> hits(37);
  const JobStats stats = cluster.RunJob(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(stats.num_tasks, 37u);
}

TEST(ClusterTest, ZeroTasksCostsJobOverheadOnly) {
  const Cluster cluster(FastConfig(4));
  const JobStats stats = cluster.RunJob(0, [](size_t) {});
  EXPECT_DOUBLE_EQ(stats.server_seconds, 0.1);
}

TEST(ClusterTest, ServerSecondsIncludesOverheads) {
  const Cluster cluster(FastConfig(2));
  const JobStats stats = cluster.RunJob(4, [](size_t) {});
  // 4 tasks round-robin over 2 workers: each worker gets 2 tasks of ~0 compute
  // + 1ms task overhead -> max worker ~2ms, + 100ms job overhead.
  EXPECT_GE(stats.server_seconds, 0.1 + 0.002);
  EXPECT_LT(stats.server_seconds, 0.2);
}

TEST(ClusterTest, MoreWorkersReduceSimulatedLatency) {
  // No-op tasks: the gap comes from the modeled per-task overhead, 16 tasks
  // round-robin at 1 ms each (8 ms on the busiest of 2 workers, 2 ms on 8
  // workers), which measured compute on a loaded host cannot erase.
  auto noop = [](size_t) {};
  const Cluster small(FastConfig(2));
  const Cluster large(FastConfig(8));
  const double t_small = small.RunJob(16, noop).server_seconds;
  const double t_large = large.RunJob(16, noop).server_seconds;
  EXPECT_LT(t_large, t_small);
  EXPECT_GE(t_small - t_large, 0.006 - 0.001);
}

TEST(ClusterTest, WorkerAccountingSumsToTotal) {
  const Cluster cluster(FastConfig(3));
  const JobStats stats = cluster.RunJob(9, [](size_t) {
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) {
      x += i;
    }
  });
  double busy = 0;
  for (double w : stats.worker_seconds) {
    busy += w;
  }
  // Worker busy time = compute + per-task overhead.
  EXPECT_NEAR(busy, stats.total_compute_seconds + 9 * 0.001, 1e-6);
}

TEST(ClusterTest, ShuffleSecondsScalesWithBytes) {
  const Cluster cluster(FastConfig(10));
  const double one_mb = cluster.ShuffleSeconds(1 << 20, 10);
  const double two_mb = cluster.ShuffleSeconds(2 << 20, 10);
  EXPECT_NEAR(two_mb, 2 * one_mb, 1e-9);
}

TEST(ClusterTest, FewReducersBottleneckShuffle) {
  // The Section 4.5 effect: the same bytes over 1 reducer vs 10 reducers.
  const Cluster cluster(FastConfig(10));
  const double narrow = cluster.ShuffleSeconds(10 << 20, 1);
  const double wide = cluster.ShuffleSeconds(10 << 20, 10);
  EXPECT_NEAR(narrow, 10 * wide, 1e-9);
}

TEST(ClusterTest, ShuffleReducersClampedToWorkers) {
  const Cluster cluster(FastConfig(4));
  EXPECT_DOUBLE_EQ(cluster.ShuffleSeconds(1 << 20, 100), cluster.ShuffleSeconds(1 << 20, 4));
}

TEST(ClusterTest, ZeroBytesShuffleIsFree) {
  const Cluster cluster(FastConfig(4));
  EXPECT_DOUBLE_EQ(cluster.ShuffleSeconds(0, 1), 0.0);
}

TEST(NetworkModelTest, TransferSeconds) {
  const NetworkModel fast = NetworkModel::InCluster();
  const NetworkModel slow = NetworkModel::Wan10Mbps();
  EXPECT_LT(fast.TransferSeconds(1 << 20), slow.TransferSeconds(1 << 20));
  // Latency floor applies to tiny transfers.
  EXPECT_GE(slow.TransferSeconds(1), 0.1);
}

}  // namespace
}  // namespace seabed
