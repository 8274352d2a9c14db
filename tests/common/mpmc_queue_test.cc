#include "src/common/mpmc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace seabed {
namespace {

struct Item {
  int id = 0;
  std::string shape;
  bool barrier = false;
};

bool SameShape(const Item& a, const Item& b) { return a.shape == b.shape; }
bool IsBarrier(const Item& x) { return x.barrier; }

TEST(MpmcQueueTest, TryPushRejectsBeyondDepth) {
  MpmcQueue<Item> q(/*max_depth=*/3, /*lanes=*/2);
  EXPECT_TRUE(q.TryPush({1, "a", false}, 0));
  EXPECT_TRUE(q.TryPush({2, "a", false}, 1));
  EXPECT_TRUE(q.TryPush({3, "a", false}, 0));
  EXPECT_FALSE(q.TryPush({4, "a", false}, 0));  // depth budget shared by lanes
  EXPECT_EQ(q.size(), 3u);
}

TEST(MpmcQueueTest, TryPushRejectsAfterClose) {
  MpmcQueue<Item> q(8);
  q.Close();
  EXPECT_FALSE(q.TryPush({1, "a", false}));
}

TEST(MpmcQueueTest, PopGroupBatchesConsecutiveSameShape) {
  MpmcQueue<Item> q(16);
  for (int i = 0; i < 3; ++i) q.TryPush({i, "sum", false});
  q.TryPush({3, "groupby", false});
  q.TryPush({4, "sum", false});

  std::vector<Item> group;
  EXPECT_EQ(q.PopGroup(&group, 8, SameShape, IsBarrier), 3u);
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(group[0].id, 0);
  EXPECT_EQ(group[2].id, 2);

  group.clear();
  EXPECT_EQ(q.PopGroup(&group, 8, SameShape, IsBarrier), 1u);
  EXPECT_EQ(group[0].id, 3);

  group.clear();
  EXPECT_EQ(q.PopGroup(&group, 8, SameShape, IsBarrier), 1u);
  EXPECT_EQ(group[0].id, 4);
}

TEST(MpmcQueueTest, PopGroupHonorsMaxBatch) {
  MpmcQueue<Item> q(16);
  for (int i = 0; i < 5; ++i) q.TryPush({i, "sum", false});
  std::vector<Item> group;
  EXPECT_EQ(q.PopGroup(&group, 2, SameShape, IsBarrier), 2u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(MpmcQueueTest, LowerLaneWins) {
  MpmcQueue<Item> q(16, /*lanes=*/2);
  q.TryPush({1, "batch", false}, 1);
  q.TryPush({2, "interactive", false}, 0);
  std::vector<Item> group;
  EXPECT_EQ(q.PopGroup(&group, 8, SameShape, IsBarrier), 1u);
  EXPECT_EQ(group[0].id, 2);  // lane 0 first even though pushed later
}

TEST(MpmcQueueTest, CloseDrainsThenReturnsZero) {
  MpmcQueue<Item> q(16);
  q.TryPush({1, "a", false});
  q.Close();
  std::vector<Item> group;
  EXPECT_EQ(q.PopGroup(&group, 8, SameShape, IsBarrier), 1u);
  group.clear();
  EXPECT_EQ(q.PopGroup(&group, 8, SameShape, IsBarrier), 0u);  // drained + closed
}

TEST(MpmcQueueTest, DrainRipsOutBacklog) {
  MpmcQueue<Item> q(16, 2);
  q.TryPush({1, "a", false}, 1);
  q.TryPush({2, "a", false}, 0);
  std::vector<Item> dropped = q.Drain();
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[0].id, 2);  // lane order
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.TryPush({3, "a", false}));  // drain does not close
}

// The barrier orders, it does not exclude: it pops while a group popped
// before it is still unfinished, and holds back everything queued after it
// until Thaw().
TEST(MpmcQueueTest, BarrierPopsBesideUnfinishedGroupsAndHoldsLaterItemsUntilThaw) {
  MpmcQueue<Item> q(16);
  q.TryPush({1, "sum", false});
  q.TryPush({2, "", true});  // barrier
  q.TryPush({3, "sum", false});

  std::vector<Item> first;
  ASSERT_EQ(q.PopGroup(&first, 8, SameShape, IsBarrier), 1u);
  EXPECT_EQ(first[0].id, 1);  // group stops at the barrier

  // Group 1 is never reported finished, yet the barrier pops at once.
  std::vector<Item> barrier;
  ASSERT_EQ(q.PopGroup(&barrier, 8, SameShape, IsBarrier), 1u);
  EXPECT_TRUE(barrier[0].barrier);

  std::atomic<bool> popped{false};
  std::vector<Item> last;
  std::thread consumer([&] {
    ASSERT_EQ(q.PopGroup(&last, 8, SameShape, IsBarrier), 1u);
    popped.store(true);
  });
  // Item 3 is queued but frozen behind the barrier.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(popped.load());
  EXPECT_EQ(q.size(), 1u);

  q.Thaw();
  consumer.join();
  EXPECT_TRUE(popped.load());
  EXPECT_EQ(last[0].id, 3);
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kItemsPer = 200;
  MpmcQueue<Item> q(64, 2);
  std::atomic<int> seen{0};
  std::vector<std::atomic<int>> counts(kProducers * kItemsPer);

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<Item> group;
      for (;;) {
        group.clear();
        if (q.PopGroup(&group, 4, SameShape, IsBarrier) == 0) return;
        for (const Item& item : group) {
          counts[static_cast<size_t>(item.id)].fetch_add(1);
          seen.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsPer; ++i) {
        Item item{p * kItemsPer + i, p % 2 == 0 ? "even" : "odd", false};
        while (!q.TryPush(item, static_cast<size_t>(p % 2))) {
          std::this_thread::yield();  // backpressure: retry until admitted
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  while (seen.load() < kProducers * kItemsPer) std::this_thread::yield();
  q.Close();
  for (std::thread& t : consumers) t.join();

  for (const std::atomic<int>& n : counts) EXPECT_EQ(n.load(), 1);
}

}  // namespace
}  // namespace seabed
