#ifndef METACOMM_COMMON_SHARDED_BLOCKING_QUEUE_H_
#define METACOMM_COMMON_SHARDED_BLOCKING_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace metacomm {

/// Sharded MPMC FIFO: the Update Manager's queues.
///
/// Each shard is one strict FIFO that any number of threads may pop.
/// The Update Manager keeps two of one shard each: the paper's §4.4
/// global update queue, which every worker pops (per-entry order comes
/// from the LTAP entry locks taken before an update is queued), and
/// the conversations a wave offers its helpers.
///
/// `PopBatch` does NOT drain after `Close`: close means abort, and the
/// owner reclaims unprocessed items via `Drain()` to release their
/// resources (entry locks, caller promises) instead of leaking them.
template <typename T>
class ShardedBlockingQueue {
 public:
  explicit ShardedBlockingQueue(size_t shard_count)
      : shards_(std::max<size_t>(1, shard_count)) {
    for (auto& shard : shards_) shard = std::make_unique<Shard>();
  }
  ShardedBlockingQueue(const ShardedBlockingQueue&) = delete;
  ShardedBlockingQueue& operator=(const ShardedBlockingQueue&) = delete;

  size_t shard_count() const { return shards_.size(); }

  /// Enqueues onto `shard` and wakes one of its workers. Returns false
  /// (dropping the item) when the queue is closed; the caller keeps
  /// ownership of any resources the item references.
  bool Push(size_t shard, T item) {
    Shard& s = *shards_[shard % shards_.size()];
    {
      MutexLock lock(&s.mutex);
      if (closed_.load(std::memory_order_acquire)) return false;
      s.queue.push_back(std::move(item));
    }
    s.cv.NotifyOne();
    return true;
  }

  /// Blocks until `shard` has an item or the queue is closed, then
  /// drains up to `max_n` items from `shard` in one wakeup, preserving
  /// the shard's FIFO order. Returns an empty vector on close — close
  /// means abort and the remaining items (including any the worker
  /// never saw) are left for Drain(). `max_n < 1` is treated as 1.
  std::vector<T> PopBatch(size_t shard, size_t max_n) {
    max_n = std::max<size_t>(1, max_n);
    Shard& s = *shards_[shard % shards_.size()];
    MutexLock lock(&s.mutex);
    while (s.queue.empty() && !closed_.load(std::memory_order_acquire)) {
      s.cv.Wait(lock);
    }
    std::vector<T> items;
    if (closed_.load(std::memory_order_acquire)) return items;
    const size_t n = std::min(max_n, s.queue.size());
    items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      items.push_back(std::move(s.queue.front()));
      s.queue.pop_front();
    }
    return items;
  }

  /// Marks the queue closed and wakes every waiter. Pushes are
  /// rejected and pops return nothing from now on.
  void Close() {
    closed_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
      // Taking the lock orders Close against in-flight Push/PopBatch.
      MutexLock lock(&shard->mutex);
    }
    for (auto& shard : shards_) shard->cv.NotifyAll();
  }

  /// Removes and returns every undelivered item, in shard-then-FIFO
  /// order. Call after Close() (and after workers have exited) so the
  /// owner can release the items' resources.
  std::vector<T> Drain() {
    std::vector<T> items;
    for (auto& shard : shards_) {
      MutexLock lock(&shard->mutex);
      for (T& item : shard->queue) items.push_back(std::move(item));
      shard->queue.clear();
    }
    return items;
  }

  /// Re-admits pushes and pops after a Close (Stop/Start round-trips).
  /// Call only while no workers are blocked on the queue.
  void Reopen() { closed_.store(false, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Items currently queued on `shard`.
  size_t Depth(size_t shard) const {
    const Shard& s = *shards_[shard % shards_.size()];
    MutexLock lock(&s.mutex);
    return s.queue.size();
  }

  /// Items currently queued across all shards.
  size_t Size() const {
    size_t total = 0;
    for (size_t i = 0; i < shards_.size(); ++i) total += Depth(i);
    return total;
  }

 private:
  struct Shard {
    mutable Mutex mutex{LockRank::kUmQueueShard, "um.queue.shard"};
    CondVar cv;
    std::deque<T> queue GUARDED_BY(mutex);
  };

  // unique_ptr keeps shards at stable addresses and avoids false
  // sharing of adjacent shard mutexes being the contention point.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> closed_{false};
};

}  // namespace metacomm

#endif  // METACOMM_COMMON_SHARDED_BLOCKING_QUEUE_H_
