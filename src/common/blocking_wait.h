#ifndef METACOMM_COMMON_BLOCKING_WAIT_H_
#define METACOMM_COMMON_BLOCKING_WAIT_H_

namespace metacomm {

/// Told when the thread it is installed on is about to block on another
/// thread. net::EventLoop installs itself on the thread leading it, so a
/// request handler's wait hands the loop to a stand-in thread.
class BlockingWaitObserver {
 public:
  virtual void OnBlockingWait() = 0;

 protected:
  ~BlockingWaitObserver() = default;
};

/// Marks a scope in which the calling thread may block waiting on
/// another thread: a completion, an entry lock another session holds, a
/// group-commit flush. On a thread with an observer installed, entering
/// the scope uninstalls the observer and notifies it, once; on any other
/// thread it costs one thread-local load. The observer may take its own
/// lock, so mark a wait only where the thread holds no lock (lockdep
/// checks this: net::EventLoop's lock ranks outermost).
class ScopedBlockingWait {
 public:
  ScopedBlockingWait() {
    if (BlockingWaitObserver* observer = observer_) {
      observer_ = nullptr;
      observer->OnBlockingWait();
    }
  }
  ScopedBlockingWait(const ScopedBlockingWait&) = delete;
  ScopedBlockingWait& operator=(const ScopedBlockingWait&) = delete;

  /// Installs `observer` on the calling thread; nullptr uninstalls.
  static void Install(BlockingWaitObserver* observer) {
    observer_ = observer;
  }

 private:
  static inline constinit thread_local BlockingWaitObserver* observer_ =
      nullptr;
};

}  // namespace metacomm

#endif  // METACOMM_COMMON_BLOCKING_WAIT_H_
