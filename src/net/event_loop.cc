#include "net/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <system_error>
#include <utility>

namespace metacomm::net {

/// One thread of a loop. Everything but `promoted` is the thread's own.
struct EventLoop::Worker {
  explicit Worker(EventLoop* loop_in) : loop(loop_in) {}

  EventLoop* const loop;
  bool leading = false;
  int dispatch_fd = -1;  // Fd whose callback runs now, else -1.
  int held_fd = -1;      // Fd taken out of the epoll set at hand-off.
  CondVar wake;
  bool promoted = false;  // Guarded by loop->mutex_: leadership granted.
};

thread_local EventLoop::Worker* EventLoop::current_ = nullptr;

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return ErrnoStatus("epoll_create1");
  wake_fd_.Reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) return ErrnoStatus("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) <
      0) {
    return ErrnoStatus("epoll_ctl(wakeup)");
  }
  MutexLock lock(&mutex_);
  running_.store(true, std::memory_order_release);
  threads_.emplace_back([this] { ThreadMain(); });
  return Status::Ok();
}

void EventLoop::Stop() {
  std::vector<std::thread> threads;
  {
    // Under mutex_, so no hand-off spawns a thread past this point.
    MutexLock lock(&mutex_);
    running_.store(false, std::memory_order_release);
    threads.swap(threads_);
    for (Worker* worker : parked_) worker->wake.NotifyOne();
    parked_.clear();
  }
  Wakeup();
  for (std::thread& thread : threads) thread.join();
  // Run what RunInLoop queued after the loop exited, so handed-off
  // connections get closed rather than leaked.
  DrainTasks();
}

Status EventLoop::Register(int fd, uint32_t events,
                           EventCallback callback) {
  {
    MutexLock lock(&mutex_);
    callbacks_[fd] = Registration{std::move(callback), events};
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    MutexLock lock(&mutex_);
    callbacks_.erase(fd);
    return ErrnoStatus("epoll_ctl(add)");
  }
  return Status::Ok();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  MutexLock lock(&mutex_);
  auto it = callbacks_.find(fd);
  if (it != callbacks_.end()) {
    it->second.events = events;
    if (it->second.holder != nullptr) return Status::Ok();
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(mod)");
  }
  return Status::Ok();
}

void EventLoop::Unregister(int fd) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  MutexLock lock(&mutex_);
  callbacks_.erase(fd);
}

void EventLoop::RunInLoop(Task task) {
  if (InLoopThread()) {
    task();
    return;
  }
  {
    MutexLock lock(&mutex_);
    pending_.push_back(std::move(task));
  }
  Wakeup();
}

bool EventLoop::InLoopThread() const {
  return current_ != nullptr && current_->loop == this && current_->leading;
}

void EventLoop::Wakeup() {
  if (!wake_fd_.valid()) return;
  uint64_t one = 1;
  ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
  (void)n;  // EAGAIN just means a wakeup is already pending.
}

void EventLoop::DrainTasks() {
  std::vector<Task> tasks;
  {
    MutexLock lock(&mutex_);
    tasks.swap(pending_);
  }
  for (Task& task : tasks) task();
}

void EventLoop::ThreadMain() {
  // Every thread starts out leading: a stand-in is only started when
  // a leader hands off and none is parked.
  Worker self(this);
  current_ = &self;
  while (Lead(&self) && RearmAndPark(&self)) {
  }
  current_ = nullptr;
}

/// Polls and runs callbacks while this thread leads. Returns true once
/// it has handed the loop off and finished the callback that blocked,
/// false when the loop stops.
bool EventLoop::Lead(Worker* self) {
  self->leading = true;
  ScopedBlockingWait::Install(this);
  while (running_.load(std::memory_order_acquire)) {
    if (next_event_ == num_events_) {
      DrainTasks();
      if (!self->leading) return true;
      int n = ::epoll_wait(epoll_fd_.get(), events_, kMaxEvents,
                           /*timeout=*/1000);
      if (n < 0 && errno != EINTR) {
        break;  // Unrecoverable epoll failure; Stop() still joins us.
      }
      num_events_ = n < 0 ? 0 : n;
      next_event_ = 0;
      continue;
    }
    // A copy: once a callback hands off, the next leader reuses events_.
    const epoll_event event = events_[next_event_++];
    Dispatch(self, event);
    if (!self->leading) return true;
  }
  ScopedBlockingWait::Install(nullptr);
  return false;
}

void EventLoop::Dispatch(Worker* self, const epoll_event& event) {
  const int fd = event.data.fd;
  if (fd == wake_fd_.get()) {
    uint64_t drained;
    while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
    }
    return;
  }
  EventCallback callback;
  {
    MutexLock lock(&mutex_);
    auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) return;  // Unregistered mid-batch.
    callback = it->second.callback;  // Copy: callback may unregister itself.
  }
  self->dispatch_fd = fd;
  callback(event.events);
  self->dispatch_fd = -1;
}

void EventLoop::OnBlockingWait() {
  Worker* self = current_;
  Worker* next = nullptr;
  {
    MutexLock lock(&mutex_);
    if (!parked_.empty()) {
      next = parked_.back();
      parked_.pop_back();
      next->promoted = true;
    } else if (running_.load(std::memory_order_acquire)) {
      try {
        threads_.emplace_back([this] { ThreadMain(); });
      } catch (const std::system_error&) {
        // No thread to hand the loop to: keep leading and block in
        // place, as a loop without stand-ins would.
        ScopedBlockingWait::Install(this);
        return;
      }
    }
    self->leading = false;
    auto it = callbacks_.find(self->dispatch_fd);
    if (it != callbacks_.end()) {
      // Out of the epoll set, not a zero mask: epoll reports hang-ups
      // whatever the mask, and the next leader must not touch the fd.
      it->second.holder = self;
      self->held_fd = self->dispatch_fd;
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, self->held_fd, nullptr);
    }
  }
  if (next != nullptr) next->wake.NotifyOne();
}

/// After a hand-off: re-arms the fd whose callback this thread finished
/// and parks until promoted to lead again. False when the loop stops.
bool EventLoop::RearmAndPark(Worker* self) {
  MutexLock lock(&mutex_);
  auto it = callbacks_.find(self->held_fd);
  // A callback that closed its fd no longer holds the registration: a
  // new connection may have registered under the same fd number.
  if (it != callbacks_.end() && it->second.holder == self) {
    it->second.holder = nullptr;
    epoll_event ev{};
    ev.events = it->second.events;
    ev.data.fd = self->held_fd;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, self->held_fd, &ev);
  }
  self->held_fd = -1;
  self->promoted = false;
  if (running_.load(std::memory_order_acquire)) parked_.push_back(self);
  while (!self->promoted && running_.load(std::memory_order_acquire)) {
    self->wake.Wait(lock);
  }
  return self->promoted;
}

}  // namespace metacomm::net
