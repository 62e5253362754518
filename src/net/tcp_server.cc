#include "net/tcp_server.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace metacomm::net {

/// Per-connection state. Owned by the server's connection map but only
/// ever touched by one thread at a time: the thread leading the
/// connection's loop, or the thread the loop handed off while this
/// connection's handler waited (net/event_loop.h) — plus Stop(), which
/// runs after every loop has joined.
struct TcpServer::Connection {
  ScopedFd fd;
  EventLoop* loop = nullptr;
  FrameDecoder decoder;
  Handler handler;
  std::string outbuf;      // Framed replies not yet written.
  size_t out_pos = 0;      // Prefix of outbuf already written.
  bool want_write = false; // Backlog: EPOLLOUT armed instead of EPOLLIN.
  bool closing = false;    // Close once outbuf drains.

  Connection(ScopedFd fd_in, EventLoop* loop_in, size_t max_frame,
             Handler handler_in)
      : fd(std::move(fd_in)),
        loop(loop_in),
        decoder(max_frame),
        handler(std::move(handler_in)) {}
};

namespace {

/// Unwritten reply bytes past which a connection flushes before
/// answering its next pipelined request.
constexpr size_t kFlushBytes = 64 * 1024;

}  // namespace

TcpServer::TcpServer(TcpServerConfig config, HandlerFactory factory)
    : config_(std::move(config)), factory_(std::move(factory)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  METACOMM_ASSIGN_OR_RETURN(
      listen_fd_, ListenTcp(config_.listen_port, config_.listen_backlog,
                            &port_));
  int io_threads = std::max(1, config_.io_threads);
  loops_.reserve(static_cast<size_t>(io_threads));
  for (int i = 0; i < io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    METACOMM_RETURN_IF_ERROR(loops_.back()->Start());
  }
  METACOMM_RETURN_IF_ERROR(loops_[0]->Register(
      listen_fd_.get(), EPOLLIN, [this](uint32_t) { OnAcceptable(); }));
  started_ = true;
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!started_) return;
  started_ = false;
  // Stop accepting first so no connection is added behind our back,
  // then join every loop: afterwards no handler is running and the
  // connection map is ours alone.
  loops_[0]->RunInLoop(
      [this] { loops_[0]->Unregister(listen_fd_.get()); });
  for (auto& loop : loops_) loop->Stop();
  MutexLock lock(&conn_mutex_);
  connections_.clear();  // ScopedFd closes each socket.
  active_.store(0, std::memory_order_relaxed);
}

TcpServer::Stats TcpServer::stats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.active_connections = active_.load(std::memory_order_relaxed);
  stats.shed_connection_limit =
      shed_connection_limit_.load(std::memory_order_relaxed);
  stats.shed_busy = shed_busy_.load(std::memory_order_relaxed);
  stats.framing_errors = framing_errors_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return stats;
}

void TcpServer::OnAcceptable() {
  while (true) {
    int raw = ::accept4(listen_fd_.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // EMFILE etc.: drop this wakeup, stay listening.
    }
    ScopedFd fd(raw);
    (void)SetNoDelay(fd.get());
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (active_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      // Connection budget exhausted: answer one framed busy reply
      // (best effort into the empty send buffer) and close. The
      // client sees RESULT 51, not a hang.
      shed_connection_limit_.fetch_add(1, std::memory_order_relaxed);
      if (!config_.busy_reply.empty()) {
        std::string frame = EncodeFrame(config_.busy_reply);
        ssize_t n = ::write(fd.get(), frame.data(), frame.size());
        (void)n;
      }
      continue;
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    EventLoop* loop = loops_[next_loop_++ % loops_.size()].get();
    // Finish setup on the owning loop so all connection state stays
    // on one thread.
    int conn_fd = fd.get();
    auto conn = std::make_shared<std::unique_ptr<Connection>>(
        std::make_unique<Connection>(std::move(fd), loop,
                                     config_.max_request_bytes,
                                     factory_()));
    loop->RunInLoop([this, conn, conn_fd, loop] {
      Connection* raw_conn = conn->get();
      {
        MutexLock lock(&conn_mutex_);
        connections_[conn_fd] = std::move(*conn);
      }
      Status status = loop->Register(
          conn_fd, EPOLLIN,
          [this, raw_conn](uint32_t events) {
            OnConnectionEvent(raw_conn, events);
          });
      if (!status.ok()) CloseConnection(raw_conn);
    });
  }
}

void TcpServer::OnConnectionEvent(Connection* conn, uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    // The backlog drains: answer the requests it held back. EPOLLIN is
    // re-armed once every reply is written.
    if (FlushWrites(conn)) Serve(conn);
    return;
  }
  char buf[64 * 1024];
  while (!conn->want_write &&
         conn->decoder.state() == FrameDecoder::State::kOk) {
    ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      if (!conn->decoder.Feed(std::string_view(buf,
                                               static_cast<size_t>(n)))) {
        framing_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!Serve(conn)) return;
      continue;
    }
    if (n == 0) {  // Peer closed.
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
}

bool TcpServer::Serve(Connection* conn) {
  std::string request;
  while (!conn->want_write && conn->decoder.Pop(&request)) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (config_.admit != nullptr && !config_.admit()) {
      shed_busy_.fetch_add(1, std::memory_order_relaxed);
      conn->outbuf += EncodeFrame(config_.busy_reply);
    } else {
      conn->outbuf += EncodeFrame(conn->handler(request));
    }
    if (conn->outbuf.size() - conn->out_pos >= kFlushBytes &&
        !FlushWrites(conn)) {
      return false;
    }
  }
  if (!conn->want_write && !conn->closing &&
      conn->decoder.state() != FrameDecoder::State::kOk) {
    // Every frame decoded before the framing violation is answered:
    // answer the violation once, then close after flushing.
    if (!config_.error_reply.empty()) {
      conn->outbuf += EncodeFrame(config_.error_reply);
    }
    conn->closing = true;
  }
  return FlushWrites(conn);
}

bool TcpServer::FlushWrites(Connection* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    ssize_t n = ::write(conn->fd.get(), conn->outbuf.data() + conn->out_pos,
                        conn->outbuf.size() - conn->out_pos);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full (a slow or non-reading client): keep the
      // rest, stop reading requests and let EPOLLOUT drive the
      // remainder — per-connection backpressure without blocking the
      // loop.
      if (!conn->want_write) {
        conn->want_write = true;
        (void)conn->loop->Modify(conn->fd.get(), EPOLLOUT);
      }
      return true;
    }
    CloseConnection(conn);
    return false;
  }
  // Fully drained.
  conn->outbuf.clear();
  conn->out_pos = 0;
  if (conn->closing) {
    CloseConnection(conn);
    return false;
  }
  if (conn->want_write) {
    conn->want_write = false;
    (void)conn->loop->Modify(conn->fd.get(), EPOLLIN);
  }
  return true;
}

void TcpServer::CloseConnection(Connection* conn) {
  conn->loop->Unregister(conn->fd.get());
  active_.fetch_sub(1, std::memory_order_relaxed);
  MutexLock lock(&conn_mutex_);
  connections_.erase(conn->fd.get());  // Destroys conn; fd closes.
}

}  // namespace metacomm::net
