// A bounded, thread-safe LRU map from string keys to immutable shared values.
//
// Every entry carries a cost, and the cache holds at most `budget` total
// cost: an insert evicts least-recently-used entries until the total fits
// again (an entry costlier than the whole budget evicts itself). The Seabed
// engine keeps two of them: its translated-plan cache charges 1 per plan (an
// entry budget) and its result cache charges each result's estimated bytes.
// Values are shared_ptrs, so a hit outlives its own eviction and callers
// copy out of it without holding the lock.
#ifndef SEABED_SRC_COMMON_LRU_CACHE_H_
#define SEABED_SRC_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace seabed {

template <typename V>
class LruCache {
 public:
  explicit LruCache(size_t budget) : budget_(budget) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Returns the cached value, or nullptr (counting a hit / miss). A hit
  // becomes the most recently used entry.
  std::shared_ptr<const V> Find(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  // Publishes `value` under `key` as the most recently used entry, replacing
  // any entry already there, then evicts down to the budget.
  void Insert(std::string key, std::shared_ptr<const V> value, size_t cost = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      Erase(it->second);
    }
    lru_.push_front(Node{std::move(key), std::move(value), cost});
    index_.emplace(lru_.front().key, lru_.begin());
    total_cost_ += cost;
    while (total_cost_ > budget_) {
      Erase(std::prev(lru_.end()));
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }
  size_t cost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_cost_;
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Node {
    std::string key;
    std::shared_ptr<const V> value;
    size_t cost = 0;
  };
  using NodeIt = typename std::list<Node>::iterator;

  // Requires `mu_` held.
  void Erase(NodeIt node) {
    total_cost_ -= node->cost;
    index_.erase(node->key);
    lru_.erase(node);
  }

  const size_t budget_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // most recently used at the front
  std::map<std::string_view, NodeIt> index_;  // views each node's own key
  size_t total_cost_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace seabed

#endif  // SEABED_SRC_COMMON_LRU_CACHE_H_
