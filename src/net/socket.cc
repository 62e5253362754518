#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace metacomm::net {

void ScopedFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status ErrnoStatus(const std::string& what) {
  return Status::Unavailable(what + ": " + ::strerror(errno));
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

StatusOr<ScopedFd> ListenTcp(uint16_t port, int backlog,
                             uint16_t* bound_port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) < 0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd.get(), backlog) < 0) return ErrnoStatus("listen");
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) < 0) {
      return ErrnoStatus("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

StatusOr<ScopedFd> ConnectTcp(const std::string& host, uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* numeric =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, numeric, &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("connect " + host);
  (void)SetNoDelay(fd.get());
  return fd;
}

}  // namespace metacomm::net
