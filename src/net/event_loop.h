#ifndef METACOMM_NET_EVENT_LOOP_H_
#define METACOMM_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/blocking_wait.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/socket.h"

namespace metacomm::net {

/// An epoll reactor: the unit the TCP servers are built from. Each loop
/// owns one epoll instance, and fds are registered with an event-mask
/// callback. One thread at a time leads the loop: it polls and runs the
/// callbacks, so two callbacks of a loop never run at once, and a fd's
/// callback runs on one thread at a time — per-connection state needs no
/// locking.
///
/// Leader/Followers hand-off: when a callback is about to block on
/// another thread (it enters a ScopedBlockingWait, common/blocking_wait.h),
/// the loop stops polling that callback's fd and passes leadership, with
/// the rest of the current poll batch, to a stand-in thread, so the
/// loop's other fds keep being served. The waiting thread finishes the
/// callback, re-arms the fd and parks as a stand-in for a later
/// hand-off. Parked stand-ins are reused most-recently-parked first, and
/// a loop keeps one thread more than the most callbacks ever blocked on
/// it at once.
///
/// Cross-thread work (accepting loop handing a connection to a worker
/// loop, Stop() from anywhere) goes through RunInLoop, which enqueues
/// the task and wakes the epoll_wait via an eventfd.
class EventLoop : private BlockingWaitObserver {
 public:
  /// Called with the ready EPOLL* event mask for the registered fd.
  using EventCallback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and starts the leading thread.
  Status Start();

  /// Asks the loop to exit, lets callbacks still running finish (blocked
  /// ones included), joins every thread, then runs any tasks still
  /// queued (so handed-off resources are not leaked). Idempotent.
  void Stop();

  /// Watches `fd` for `events` (EPOLLIN/EPOLLOUT/...); `callback`
  /// fires on the loop's leading thread. Call from the loop thread or
  /// before concurrent use of the fd.
  Status Register(int fd, uint32_t events, EventCallback callback);

  /// Changes the watched event mask of a registered fd. While the fd's
  /// callback is blocked after a hand-off, the mask applies when the
  /// fd is re-armed.
  Status Modify(int fd, uint32_t events);

  /// Stops watching `fd` and drops its callback. Safe to call from
  /// within the fd's own callback, before or after a hand-off.
  void Unregister(int fd);

  /// Enqueues `task` to run on the leading thread and wakes the loop.
  /// Runs inline when already called on it. Tasks must not block.
  void RunInLoop(Task task);

  /// True on the thread currently leading this loop.
  bool InLoopThread() const;

 private:
  struct Worker;
  struct Registration {
    EventCallback callback;
    uint32_t events = 0;
    /// The thread still running this fd's callback after handing the
    /// loop off; while set the fd is out of the epoll set.
    Worker* holder = nullptr;
  };

  void ThreadMain();
  bool Lead(Worker* self);
  void Dispatch(Worker* self, const epoll_event& event);
  bool RearmAndPark(Worker* self);
  void OnBlockingWait() override;
  void DrainTasks();
  void Wakeup();

  /// The Worker of the calling thread, if it belongs to some loop.
  static thread_local Worker* current_;

  ScopedFd epoll_fd_;
  ScopedFd wake_fd_;  // eventfd: RunInLoop / Stop wakeups.
  std::atomic<bool> running_{false};

  // The poll batch. Only the leading thread touches it; it passes to
  // the next leader with leadership, under mutex_.
  static constexpr int kMaxEvents = 128;
  epoll_event events_[kMaxEvents];
  int num_events_ = 0;
  int next_event_ = 0;

  Mutex mutex_{LockRank::kNetEventLoop, "net.event_loop"};
  std::map<int, Registration> callbacks_ GUARDED_BY(mutex_);
  std::vector<Task> pending_ GUARDED_BY(mutex_);
  std::vector<Worker*> parked_ GUARDED_BY(mutex_);  // Most recent last.
  std::vector<std::thread> threads_ GUARDED_BY(mutex_);
};

}  // namespace metacomm::net

#endif  // METACOMM_NET_EVENT_LOOP_H_
