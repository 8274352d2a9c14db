// LruCache: cost-budgeted eviction in recency order, replacement of a
// resident key, hit/miss counters, and entries costlier than the budget.
#include "src/common/lru_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace seabed {
namespace {

std::shared_ptr<const int> Boxed(int v) { return std::make_shared<const int>(v); }

TEST(LruCacheTest, FindCountsHitsAndMisses) {
  LruCache<int> cache(4);
  EXPECT_EQ(cache.Find("a"), nullptr);
  cache.Insert("a", Boxed(1));
  const std::shared_ptr<const int> hit = cache.Find("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cost(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedUntilTheCostFits) {
  LruCache<int> cache(10);
  cache.Insert("a", Boxed(1), 4);
  cache.Insert("b", Boxed(2), 4);
  ASSERT_NE(cache.Find("a"), nullptr);  // b is now the LRU entry
  cache.Insert("c", Boxed(3), 4);       // 12 > 10: evicts b only
  EXPECT_EQ(cache.Find("b"), nullptr);
  EXPECT_NE(cache.Find("a"), nullptr);
  EXPECT_NE(cache.Find("c"), nullptr);
  EXPECT_EQ(cache.cost(), 8u);

  cache.Insert("d", Boxed(4), 9);  // needs every other entry gone
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cost(), 9u);
  EXPECT_NE(cache.Find("d"), nullptr);
}

TEST(LruCacheTest, InsertReplacesAResidentKeyAndItsCost) {
  LruCache<int> cache(10);
  cache.Insert("a", Boxed(1), 3);
  cache.Insert("a", Boxed(2), 5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cost(), 5u);
  EXPECT_EQ(*cache.Find("a"), 2);
}

TEST(LruCacheTest, AnEntryCostlierThanTheBudgetEvictsItself) {
  LruCache<int> cache(10);
  cache.Insert("a", Boxed(1), 4);
  cache.Insert("huge", Boxed(2), 11);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cost(), 0u);
  EXPECT_EQ(cache.Find("huge"), nullptr);
}

TEST(LruCacheTest, AHitOutlivesItsEviction) {
  LruCache<int> cache(1);
  cache.Insert("a", Boxed(7));
  const std::shared_ptr<const int> held = cache.Find("a");
  cache.Insert("b", Boxed(8));  // evicts a
  EXPECT_EQ(cache.Find("a"), nullptr);
  EXPECT_EQ(*held, 7);
}

TEST(LruCacheTest, ConcurrentFindsAndInsertsKeepTheBudget) {
  LruCache<int> cache(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string key = std::to_string((i * 7 + t) % 40);
        if (cache.Find(key) == nullptr) {
          cache.Insert(key, Boxed(i));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_EQ(cache.cost(), cache.size());
  EXPECT_EQ(cache.hits() + cache.misses(), 8000u);
}

}  // namespace
}  // namespace seabed
