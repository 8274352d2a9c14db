// Bounded multi-lane MPMC queue with group-pop and barrier jobs — the
// submission spine of seabed::Service.
//
// Producers TryPush into one of `lanes` FIFO lanes sharing a single depth
// budget (`max_depth`): admission control is a non-blocking reject, never a
// blocking producer. Consumers PopGroup: the head of the lowest-numbered
// non-empty lane is popped together with the run of immediately-following
// items in the same lane that the caller's `same_group` predicate accepts
// (shape batching), up to `max_batch`. Lower lane indices strictly win, so
// lane 0 is the interactive/priority lane.
//
// BARRIER items (caller's `is_barrier` predicate) are ordering jobs, always
// delivered alone: a consumer that finds a barrier at the overall front pops
// it at once and freezes the queue, so nothing queued after the barrier
// dispatches until the consumer Thaw()s. The barrier orders, it does not
// exclude: groups popped before it may still be running while it runs (the
// Seabed engine publishes immutable table versions, so an append never needs
// in-flight queries to finish).
//
// Close() wakes everyone; consumers keep draining until empty, then PopGroup
// returns 0 (the shutdown-with-drain path). Drain() instead rips the backlog
// out so the caller can fail it (shutdown-without-drain).
#ifndef SEABED_SRC_COMMON_MPMC_QUEUE_H_
#define SEABED_SRC_COMMON_MPMC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace seabed {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t max_depth, size_t lanes = 1)
      : max_depth_(max_depth), lanes_(lanes) {
    SEABED_CHECK_MSG(lanes >= 1, "MpmcQueue needs at least one lane");
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Non-blocking push to `lane`. Returns false when the shared depth budget
  // is exhausted or the queue is closed — the caller's item is NOT consumed
  // on failure (it is only moved from once admitted), so a rejected job can
  // still be failed through its own promise.
  bool TryPush(T&& item, size_t lane = 0) {
    SEABED_CHECK_MSG(lane < lanes_.size(), "lane " << lane << " out of range");
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ >= max_depth_) {
        return false;
      }
      lanes_[lane].push_back(std::move(item));
      ++size_;
    }
    cv_pop_.notify_one();
    return true;
  }

  bool TryPush(const T& item, size_t lane = 0) { return TryPush(T(item), lane); }

  // Blocks until work is available (or the queue is closed and empty, which
  // returns 0). Appends the popped group to `*out`; the caller MUST Thaw()
  // after running a barrier (is_barrier(front) — always delivered alone).
  //
  // `same_group(a, b)` says b may ride in a group whose first member is a;
  // `is_barrier(x)` marks ordering items.
  template <typename GroupPred, typename BarrierPred>
  size_t PopGroup(std::vector<T>* out, size_t max_batch, GroupPred same_group,
                  BarrierPred is_barrier) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_pop_.wait(lock, [&] { return (closed_ && size_ == 0) || (!frozen_ && size_ > 0); });
    if (size_ == 0) {
      return 0;  // closed and drained
    }
    std::deque<T>& lane = *FirstNonEmptyLaneLocked();
    const size_t first = out->size();
    out->push_back(std::move(lane.front()));
    lane.pop_front();
    --size_;
    if (is_barrier((*out)[first])) {
      frozen_ = true;  // nothing queued after the barrier dispatches until Thaw()
      return 1;
    }
    while (out->size() - first < max_batch && !lane.empty() && !is_barrier(lane.front()) &&
           same_group((*out)[first], lane.front())) {
      out->push_back(std::move(lane.front()));
      lane.pop_front();
      --size_;
    }
    const bool more = size_ > 0;
    lock.unlock();
    if (more) {
      cv_pop_.notify_one();  // baton: there is work left for a sibling
    }
    return out->size() - first;
  }

  // Lifts the freeze a barrier pop installed.
  void Thaw() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      frozen_ = false;
    }
    cv_pop_.notify_all();
  }

  // Rejects future pushes; consumers drain the backlog then PopGroup -> 0.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_pop_.notify_all();
  }

  // Rips out everything still queued (lane order, FIFO within a lane) so the
  // caller can fail it. Does not close.
  std::vector<T> Drain() {
    std::vector<T> dropped;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::deque<T>& lane : lanes_) {
        for (T& item : lane) {
          dropped.push_back(std::move(item));
        }
        lane.clear();
      }
      size_ = 0;
    }
    cv_pop_.notify_all();
    return dropped;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  // Requires mu_ held and size_ > 0.
  std::deque<T>* FirstNonEmptyLaneLocked() {
    for (std::deque<T>& lane : lanes_) {
      if (!lane.empty()) {
        return &lane;
      }
    }
    SEABED_CHECK_MSG(false, "size_ > 0 but all lanes empty");
    return nullptr;
  }

  const size_t max_depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_pop_;  // consumers waiting for work
  std::vector<std::deque<T>> lanes_;
  size_t size_ = 0;  // total across lanes
  bool frozen_ = false;
  bool closed_ = false;
};

}  // namespace seabed

#endif  // SEABED_SRC_COMMON_MPMC_QUEUE_H_
