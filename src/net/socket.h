#ifndef METACOMM_NET_SOCKET_H_
#define METACOMM_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"

namespace metacomm::net {

/// RAII file descriptor. Move-only; closes on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset(other.release());
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { Reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int release() { return std::exchange(fd_, -1); }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Disables Nagle on a TCP socket — the protocol is strict
/// request/response, so coalescing delay is pure added latency.
Status SetNoDelay(int fd);

/// Creates a non-blocking listener on 127.0.0.1:`port` (0 picks an
/// ephemeral port). On success returns the fd and stores the actual
/// port in `*bound_port`.
StatusOr<ScopedFd> ListenTcp(uint16_t port, int backlog,
                             uint16_t* bound_port);

/// Blocking connect to `host`:`port` (numeric IPv4 or "localhost").
StatusOr<ScopedFd> ConnectTcp(const std::string& host, uint16_t port);

/// Status::Unavailable annotated with errno.
Status ErrnoStatus(const std::string& what);

}  // namespace metacomm::net

#endif  // METACOMM_NET_SOCKET_H_
