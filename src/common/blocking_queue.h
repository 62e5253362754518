#ifndef METACOMM_COMMON_BLOCKING_QUEUE_H_
#define METACOMM_COMMON_BLOCKING_QUEUE_H_

#include <algorithm>
#include <deque>
#include <iterator>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace metacomm {

/// MPMC FIFO: the Update Manager's queues.
///
/// One strict FIFO that any number of threads may pop. The Update
/// Manager keeps two: the paper's §4.4 global update queue, which every
/// worker pops (per-entry order comes from the LTAP entry locks taken
/// before an update is queued), and the conversations a wave offers its
/// helpers.
///
/// `PopBatch` does NOT drain after `Close`: close means abort, and the
/// owner reclaims unprocessed items via `Drain()` to release their
/// resources (entry locks, caller promises) instead of leaking them.
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueues and wakes one waiting popper. Returns false (dropping the
  /// item) when the queue is closed; the caller keeps ownership of any
  /// resources the item references.
  bool Push(T item) {
    {
      MutexLock lock(&mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(item));
    }
    cv_.NotifyOne();
    return true;
  }

  /// Blocks until an item is queued or the queue is closed, then takes
  /// up to `max_n` items in one wakeup, in FIFO order. Returns an empty
  /// vector on close — close means abort and the remaining items are
  /// left for Drain(). `max_n < 1` is treated as 1.
  std::vector<T> PopBatch(size_t max_n) {
    max_n = std::max<size_t>(1, max_n);
    MutexLock lock(&mutex_);
    while (queue_.empty() && !closed_) cv_.Wait(lock);
    std::vector<T> items;
    if (closed_) return items;
    const size_t n = std::min(max_n, queue_.size());
    items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      items.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return items;
  }

  /// Marks the queue closed and wakes every waiter. Pushes are
  /// rejected and pops return nothing from now on.
  void Close() {
    {
      MutexLock lock(&mutex_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  /// Removes and returns every undelivered item in FIFO order. Call
  /// after Close() (and after poppers have exited) so the owner can
  /// release the items' resources.
  std::vector<T> Drain() {
    MutexLock lock(&mutex_);
    std::vector<T> items(std::make_move_iterator(queue_.begin()),
                         std::make_move_iterator(queue_.end()));
    queue_.clear();
    return items;
  }

  /// Re-admits pushes and pops after a Close (Stop/Start round-trips).
  void Reopen() {
    MutexLock lock(&mutex_);
    closed_ = false;
  }

  /// Items currently queued.
  size_t Size() const {
    MutexLock lock(&mutex_);
    return queue_.size();
  }

 private:
  mutable Mutex mutex_{LockRank::kBlockingQueue, "common.blocking_queue"};
  CondVar cv_;
  std::deque<T> queue_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace metacomm

#endif  // METACOMM_COMMON_BLOCKING_QUEUE_H_
