#ifndef METACOMM_NET_TCP_SERVER_H_
#define METACOMM_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"

namespace metacomm::net {

/// TcpServer tuning and policy knobs (DESIGN.md "Wire boundary").
struct TcpServerConfig {
  /// Listen port on 127.0.0.1; 0 binds an ephemeral port (tests,
  /// benches) — read the actual one back with port().
  uint16_t listen_port = 0;
  int listen_backlog = 511;
  /// Event loops. Loop 0 accepts; connections are pinned round-robin
  /// across all loops, and a connection's requests are handled in order
  /// by the thread leading its loop. A handler about to wait on another
  /// thread (a ScopedBlockingWait: UM completion, contended entry lock,
  /// WAL flush) first hands its loop to a stand-in thread, so io_threads
  /// sets how many loops poll, not how many requests may wait at once
  /// (one per connection, so max_connections bounds that).
  int io_threads = 1;
  /// Concurrent-connection budget. An accept beyond it is answered
  /// with one framed busy_reply and closed (load shedding, not
  /// silent SYN queueing).
  size_t max_connections = 1024;
  /// Largest request payload a frame may declare. Bounds per-connection
  /// memory; a violation sends error_reply and tears the stream down.
  size_t max_request_bytes = 1 << 20;
  /// Per-request admission control: checked before the handler runs;
  /// false sheds the request with busy_reply but keeps the connection.
  /// The wired-up server points this at the UM queue depth. Null
  /// admits everything.
  std::function<bool()> admit;
  /// Payload (unframed) sent when shedding; e.g. "RESULT 51 ... busy".
  std::string busy_reply;
  /// Payload (unframed) sent before closing on a framing violation.
  std::string error_reply;
};

/// An epoll TCP server hosting framed request/response sessions: each
/// accepted connection gets its own handler from the factory (for the
/// LDAP text protocol that handler is a TextProtocolHandler, whose
/// bind state therefore persists across the connection's requests, as
/// LTAP requires), reads length-prefixed frames (net/frame.h), runs
/// the handler per request in order, and writes framed replies.
/// Pipelined requests are legal and answered in order.
class TcpServer {
 public:
  /// One request payload in, one response payload out.
  using Handler = std::function<std::string(const std::string&)>;
  /// Called once per accepted connection, on the connection's loop.
  using HandlerFactory = std::function<Handler()>;

  /// Counters, all monotonic except active_connections.
  struct Stats {
    uint64_t accepted = 0;
    uint64_t active_connections = 0;
    uint64_t shed_connection_limit = 0;  // Accepts answered busy+close.
    uint64_t shed_busy = 0;              // Requests shed by admit().
    uint64_t framing_errors = 0;
    uint64_t requests = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };

  TcpServer(TcpServerConfig config, HandlerFactory factory);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the io threads.
  Status Start();

  /// Graceful shutdown: stops accepting, finishes the requests being
  /// handled, closes every connection, joins the io threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (after Start).
  uint16_t port() const { return port_; }

  Stats stats() const;

 private:
  struct Connection;

  void OnAcceptable();
  void OnConnectionEvent(Connection* conn, uint32_t events);
  /// Answers the decoded requests in order and writes the replies. A
  /// backlog the kernel will not take stops it (flow control) until
  /// EPOLLOUT drains the backlog. False once the connection is closed.
  bool Serve(Connection* conn);
  /// Writes what the kernel takes; on a short write arms EPOLLOUT in
  /// place of EPOLLIN. False once the connection is closed.
  bool FlushWrites(Connection* conn);
  /// Unregisters and destroys `conn`; the pointer dangles afterwards.
  void CloseConnection(Connection* conn);

  TcpServerConfig config_;
  HandlerFactory factory_;
  ScopedFd listen_fd_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  size_t next_loop_ = 0;  // Acceptor-thread only.
  bool started_ = false;

  mutable Mutex conn_mutex_{LockRank::kNetServerConns,
                            "net.tcp_server.conns"};
  std::map<int, std::unique_ptr<Connection>> connections_
      GUARDED_BY(conn_mutex_);

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> shed_connection_limit_{0};
  std::atomic<uint64_t> shed_busy_{0};
  std::atomic<uint64_t> framing_errors_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace metacomm::net

#endif  // METACOMM_NET_TCP_SERVER_H_
