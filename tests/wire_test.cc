// Socket-level torture tests for the TCP wire boundary: adversarial
// byte patterns (1-byte writes, frames split or coalesced across
// write() calls, pipelining), framing violations, load shedding, reply
// backpressure, the guarantee that a reply over the wire is
// byte-identical to the in-process handler's answer, and the event
// loop's hand-off while a handler waits on another thread.

#include <dirent.h>
#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_wait.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/metacomm.h"
#include "ldap/server.h"
#include "ldap/text_protocol.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"

namespace metacomm::net {
namespace {

using ldap::BusyReply;
using ldap::Entry;
using ldap::FramingErrorReply;
using ldap::LdapServer;
using ldap::Schema;
using ldap::ServerConfig;
using ldap::TextProtocolHandler;

std::unique_ptr<LdapServer> MakeDirectory(bool anonymous_writes = true) {
  auto server = std::make_unique<LdapServer>(
      Schema::Standard(),
      ServerConfig{.allow_anonymous_writes = anonymous_writes});
  Entry suffix(*ldap::Dn::Parse("o=Lucent"));
  suffix.AddObjectClass("top");
  suffix.AddObjectClass("organization");
  suffix.SetOne("o", "Lucent");
  EXPECT_TRUE(server->backend().Add(suffix).ok());
  server->AddUser(*ldap::Dn::Parse("cn=admin,o=Lucent"), "secret");
  return server;
}

std::unique_ptr<TcpServer> Serve(ldap::LdapService* directory,
                                 TcpServerConfig config = {}) {
  config.busy_reply = BusyReply();
  config.error_reply = FramingErrorReply();
  auto server = std::make_unique<TcpServer>(
      std::move(config), [directory] {
        auto session = std::make_shared<TextProtocolHandler>(directory);
        return [session](const std::string& request) {
          return session->Handle(request);
        };
      });
  EXPECT_TRUE(server->Start().ok());
  return server;
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Blocking read of one length-prefixed frame; empty optional on EOF
/// or malformed header.
std::optional<std::string> ReadFrame(int fd) {
  std::string header;
  char c = 0;
  while (true) {
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return std::nullopt;
    if (c == '\n') break;
    if (c < '0' || c > '9' || header.size() > 12) return std::nullopt;
    header.push_back(c);
  }
  std::optional<uint64_t> parsed = ParseUint64(header);
  if (!parsed.has_value()) return std::nullopt;
  size_t length = static_cast<size_t>(*parsed);
  std::string payload(length, '\0');
  size_t got = 0;
  while (got < length) {
    ssize_t n = ::read(fd, payload.data() + got, length - got);
    if (n <= 0) return std::nullopt;
    got += static_cast<size_t>(n);
  }
  return payload;
}

/// True when read() reports EOF (server closed the connection).
bool ReadEof(int fd) {
  char c = 0;
  return ::read(fd, &c, 1) == 0;
}

/// True when `fd` has bytes to read within `timeout_ms`.
bool Readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) == 1;
}

/// Threads of this process, from /proc/self/task.
int CountThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

const char kAddAda[] =
    "ADD\ndn: cn=Ada,o=Lucent\nobjectClass: top\n"
    "objectClass: person\ncn: Ada\nsn: L\n";
const char kSearchAll[] =
    "SEARCH base: o=Lucent\nscope: sub\nfilter: (objectClass=*)\n";

TEST(WireTortureTest, OneByteWritesReassembleIntoOneRequest) {
  auto directory = MakeDirectory();
  auto server = Serve(directory.get());
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());

  std::string frame = EncodeFrame(kAddAda);
  for (char byte : frame) {
    ASSERT_TRUE(WriteAll(fd->get(), std::string_view(&byte, 1)));
  }
  auto reply = ReadFrame(fd->get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(StartsWith(*reply, "RESULT 0")) << *reply;
}

TEST(WireTortureTest, SplitAndCoalescedWritesKeepFrameBoundaries) {
  auto directory = MakeDirectory();
  auto server = Serve(directory.get());
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());

  // Two frames coalesced into a single write(), plus a third split in
  // the middle of its length header and again inside its payload.
  std::string first = EncodeFrame(kAddAda);
  std::string second = EncodeFrame(kSearchAll);
  ASSERT_TRUE(WriteAll(fd->get(), first + second));
  std::string third = EncodeFrame(kSearchAll);
  ASSERT_TRUE(WriteAll(fd->get(), third.substr(0, 1)));
  ASSERT_TRUE(WriteAll(fd->get(), third.substr(1, 7)));
  ASSERT_TRUE(WriteAll(fd->get(), third.substr(8)));

  auto add_reply = ReadFrame(fd->get());
  ASSERT_TRUE(add_reply.has_value());
  EXPECT_TRUE(StartsWith(*add_reply, "RESULT 0")) << *add_reply;
  auto search_reply = ReadFrame(fd->get());
  ASSERT_TRUE(search_reply.has_value());
  EXPECT_NE(search_reply->find("cn=Ada,o=Lucent"), std::string::npos);
  auto split_reply = ReadFrame(fd->get());
  ASSERT_TRUE(split_reply.has_value());
  EXPECT_EQ(*split_reply, *search_reply);
}

TEST(WireTortureTest, PipelinedRequestsAnsweredInOrder) {
  auto directory = MakeDirectory();
  auto server = Serve(directory.get());
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());

  std::string burst;
  constexpr int kCount = 16;
  for (int i = 0; i < kCount; ++i) {
    std::string cn = "Pipe" + std::to_string(i);
    burst += EncodeFrame("ADD\ndn: cn=" + cn +
                         ",o=Lucent\nobjectClass: top\n"
                         "objectClass: person\ncn: " +
                         cn + "\nsn: P\n");
    burst += EncodeFrame("SEARCH base: cn=" + cn +
                         ",o=Lucent\nscope: base\nfilter: (cn=" + cn +
                         ")\n");
  }
  ASSERT_TRUE(WriteAll(fd->get(), burst));
  for (int i = 0; i < kCount; ++i) {
    auto add_reply = ReadFrame(fd->get());
    ASSERT_TRUE(add_reply.has_value()) << i;
    EXPECT_TRUE(StartsWith(*add_reply, "RESULT 0")) << *add_reply;
    auto search_reply = ReadFrame(fd->get());
    ASSERT_TRUE(search_reply.has_value()) << i;
    // In-order: reply i must surface the entry ADDed by request i.
    EXPECT_NE(search_reply->find("Pipe" + std::to_string(i)),
              std::string::npos)
        << *search_reply;
  }
}

TEST(WireTortureTest, RepliesByteIdenticalToInProcessHandler) {
  // Same request sequence against two identically-seeded directories:
  // once through the socket server, once by calling the handler as a
  // function. Every reply must match byte for byte.
  auto wire_directory = MakeDirectory();
  auto local_directory = MakeDirectory();
  auto server = Serve(wire_directory.get());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  TextProtocolHandler local(local_directory.get());

  const std::string requests[] = {
      kAddAda,
      "COMPARE dn: cn=Ada,o=Lucent\nattr: sn\nvalue: L",
      "COMPARE dn: cn=Ada,o=Lucent\nattr: sn\nvalue: X",
      kSearchAll,
      "MODIFY\ndn: cn=Ada,o=Lucent\nchangetype: modify\n"
      "replace: description\ndescription: line one\n-\n",
      "DELETE dn: cn=Ada,o=Lucent",
      "DELETE dn: cn=Ada,o=Lucent",  // NotFound error text too.
      "FROBNICATE",                  // Protocol errors too.
  };
  for (const std::string& request : requests) {
    EXPECT_EQ(client.Call(request), local.Handle(request)) << request;
  }
}

TEST(WireTortureTest, OversizedFrameAnsweredThenConnectionClosed) {
  auto directory = MakeDirectory();
  TcpServerConfig config;
  config.max_request_bytes = 128;
  auto server = Serve(directory.get(), std::move(config));
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());

  // An in-budget request still works on this connection...
  ASSERT_TRUE(WriteAll(fd->get(), EncodeFrame(kSearchAll)));
  ASSERT_TRUE(ReadFrame(fd->get()).has_value());
  // ...then a frame declaring 10 KiB draws the framing error and EOF,
  // before any payload bytes are even sent.
  ASSERT_TRUE(WriteAll(fd->get(), "10240\n"));
  auto reply = ReadFrame(fd->get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(StartsWith(*reply, "RESULT 2")) << *reply;
  EXPECT_TRUE(ReadEof(fd->get()));
  EXPECT_EQ(server->stats().framing_errors, 1u);
}

TEST(WireTortureTest, MalformedLengthHeaderClosesConnection) {
  auto directory = MakeDirectory();
  auto server = Serve(directory.get());
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());

  ASSERT_TRUE(WriteAll(fd->get(), "SEARCH base: o=Lucent\n"));  // No header.
  auto reply = ReadFrame(fd->get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(StartsWith(*reply, "RESULT 2")) << *reply;
  EXPECT_TRUE(ReadEof(fd->get()));
}

TEST(WireTortureTest, AdmissionControlShedsWithBusyAndRecovers) {
  auto directory = MakeDirectory();
  std::atomic<bool> overloaded{false};
  TcpServerConfig config;
  config.admit = [&overloaded] { return !overloaded.load(); };
  auto server = Serve(directory.get(), std::move(config));
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  EXPECT_TRUE(StartsWith(client.Call(kSearchAll), "RESULT 0"));
  overloaded.store(true);
  // Shed with the LDAP busy code — but the connection survives.
  EXPECT_TRUE(StartsWith(client.Call(kSearchAll), "RESULT 51"));
  overloaded.store(false);
  EXPECT_TRUE(StartsWith(client.Call(kSearchAll), "RESULT 0"));
  EXPECT_EQ(server->stats().shed_busy, 1u);
}

TEST(WireTortureTest, ConnectionBudgetShedsExtraConnections) {
  auto directory = MakeDirectory();
  TcpServerConfig config;
  config.max_connections = 2;
  auto server = Serve(directory.get(), std::move(config));

  TcpClient first, second;
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()).ok());
  EXPECT_TRUE(StartsWith(first.Call(kSearchAll), "RESULT 0"));
  EXPECT_TRUE(StartsWith(second.Call(kSearchAll), "RESULT 0"));

  // The third connection is told "busy" and closed.
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  auto reply = ReadFrame(fd->get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(StartsWith(*reply, "RESULT 51")) << *reply;
  EXPECT_TRUE(ReadEof(fd->get()));
  EXPECT_EQ(server->stats().shed_connection_limit, 1u);

  // Releasing a slot re-admits new connections (poll: the server sees
  // the close asynchronously).
  first.Close();
  TcpClient third;
  std::string verdict;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_TRUE(third.Connect("127.0.0.1", server->port()).ok());
    verdict = third.Call(kSearchAll);
    if (StartsWith(verdict, "RESULT 0")) break;
    third.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(StartsWith(verdict, "RESULT 0")) << verdict;
}

TEST(WireTortureTest, BindStateIsPerConnection) {
  auto directory = MakeDirectory(/*anonymous_writes=*/false);
  auto server = Serve(directory.get());
  TcpClient alice, mallory;
  ASSERT_TRUE(alice.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(mallory.Connect("127.0.0.1", server->port()).ok());

  const std::string bind =
      "BIND dn: cn=admin,o=Lucent\npassword: secret";
  EXPECT_TRUE(StartsWith(alice.Call(bind), "RESULT 0"));
  // Alice's session is authorized; Mallory's connection is not, even
  // though both talk to the same server.
  EXPECT_TRUE(StartsWith(alice.Call(kAddAda), "RESULT 0"));
  EXPECT_TRUE(StartsWith(
      mallory.Call("DELETE dn: cn=Ada,o=Lucent"), "RESULT 50"));
  // UNBIND drops Alice's privileges on her own session.
  EXPECT_TRUE(StartsWith(alice.Call("UNBIND"), "RESULT 0"));
  EXPECT_TRUE(StartsWith(
      alice.Call("DELETE dn: cn=Ada,o=Lucent"), "RESULT 50"));
}

TEST(WireTortureTest, ManyConnectionsWithInterleavedTraffic) {
  auto directory = MakeDirectory();
  auto server = Serve(directory.get());
  constexpr size_t kConns = 64;
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (size_t i = 0; i < kConns; ++i) {
    clients.push_back(std::make_unique<TcpClient>());
    ASSERT_TRUE(
        clients.back()->Connect("127.0.0.1", server->port()).ok());
  }
  // Round-robin across all of them a few times; every connection's
  // session stays coherent.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < kConns; ++i) {
      EXPECT_TRUE(
          StartsWith(clients[i]->Call(kSearchAll), "RESULT 0"));
    }
  }
  EXPECT_EQ(server->stats().accepted, kConns);
  EXPECT_EQ(server->stats().requests, kConns * 3);
}

TEST(WireTortureTest, GracefulStopClosesClients) {
  auto directory = MakeDirectory();
  auto server = Serve(directory.get());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  EXPECT_TRUE(StartsWith(client.Call(kSearchAll), "RESULT 0"));
  server->Stop();
  // The transport error comes back in-band as RESULT 52 (unavailable).
  EXPECT_TRUE(StartsWith(client.Call(kSearchAll), "RESULT 52"));
}

TEST(WireTortureTest, ReplyBacklogStopsReadingUntilItDrains) {
  // A client that pipelines requests and never reads its replies must
  // not make the server run requests and buffer replies without bound.
  auto directory = MakeDirectory();
  for (int i = 0; i < 32; ++i) {  // Makes every reply ~70 KiB.
    Entry bulk(*ldap::Dn::Parse("cn=Bulk" + std::to_string(i) + ",o=Lucent"));
    bulk.AddObjectClass("top");
    bulk.AddObjectClass("person");
    bulk.SetOne("cn", "Bulk" + std::to_string(i));
    bulk.SetOne("sn", "B");
    bulk.SetOne("description", std::string(2048, 'x'));
    ASSERT_TRUE(directory->backend().Add(bulk).ok());
  }
  constexpr int kRequests = 256;  // ~18 MiB of replies.
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    std::string cn = "Mark" + std::to_string(i);
    Entry mark(*ldap::Dn::Parse("cn=" + cn + ",o=Lucent"));
    mark.AddObjectClass("top");
    mark.AddObjectClass("person");
    mark.SetOne("cn", cn);
    mark.SetOne("sn", "M");
    ASSERT_TRUE(directory->backend().Add(mark).ok());
    burst += EncodeFrame("SEARCH base: o=Lucent\nscope: sub\nfilter: "
                         "(|(cn=Bulk*)(cn=" + cn + "))\n");
  }
  auto server = Serve(directory.get());
  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(fd->get(), burst));

  // Wait until the server stops making progress.
  uint64_t served = 0;
  for (int still = 0; still < 30;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    uint64_t now = server->stats().requests;
    still = now == served ? still + 1 : 0;
    served = now;
  }
  EXPECT_GT(served, 0u);
  EXPECT_LT(served, static_cast<uint64_t>(kRequests));

  // Reading drains the backlog: every reply arrives, in order.
  for (int i = 0; i < kRequests; ++i) {
    auto reply = ReadFrame(fd->get());
    ASSERT_TRUE(reply.has_value()) << i;
    EXPECT_TRUE(StartsWith(*reply, "RESULT 0")) << i;
    EXPECT_NE(reply->find("cn=Mark" + std::to_string(i) + ",o=Lucent"),
              std::string::npos)
        << i;
  }
  EXPECT_EQ(server->stats().requests, static_cast<uint64_t>(kRequests));
}

// ---------------------------------------------------------------------
// Hand-off: a handler that waits on another thread (inside a
// ScopedBlockingWait) must not stall its loop's other connections.

const char kWait[] = "WAIT";

/// A latch the test opens; "WAIT" requests block on it inside a
/// ScopedBlockingWait, as a wire write waits on the Update Manager.
class Gate {
 public:
  void Pass() {
    ScopedBlockingWait wait;
    MutexLock lock(&mu_);
    ++waiting_;
    cv_.NotifyAll();
    while (!open_) cv_.Wait(lock);
  }
  void Open() {
    MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  /// Blocks until `count` requests are waiting at the gate.
  void AwaitWaiting(int count) {
    MutexLock lock(&mu_);
    while (waiting_ < count) cv_.Wait(lock);
  }

 private:
  Mutex mu_{LockRank::kLeaf, "wire_test.gate"};
  CondVar cv_;
  bool open_ GUARDED_BY(mu_) = false;
  int waiting_ GUARDED_BY(mu_) = 0;
};

/// One io loop, so every connection shares the loop a WAIT blocks.
std::unique_ptr<TcpServer> ServeGated(LdapServer* directory, Gate* gate) {
  TcpServerConfig config;
  config.io_threads = 1;
  auto server = std::make_unique<TcpServer>(
      std::move(config), [directory, gate] {
        auto session = std::make_shared<TextProtocolHandler>(directory);
        return [session, gate](const std::string& request) {
          if (request != kWait) return session->Handle(request);
          gate->Pass();
          return std::string("RESULT 0 waited\n");
        };
      });
  EXPECT_TRUE(server->Start().ok());
  return server;
}

TEST(WireHandoffTest, WaitingRequestLeavesItsLoopServing) {
  auto directory = MakeDirectory();
  Gate gate;
  auto server = ServeGated(directory.get(), &gate);
  auto waiter = ConnectTcp("127.0.0.1", server->port());
  auto reader = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(waiter.ok());
  ASSERT_TRUE(reader.ok());

  ASSERT_TRUE(WriteAll(waiter->get(), EncodeFrame(kWait)));
  gate.AwaitWaiting(1);
  ASSERT_TRUE(WriteAll(reader->get(), EncodeFrame(kSearchAll)));
  // Answered while the first request still waits on the only loop.
  EXPECT_TRUE(Readable(reader->get(), 10000));
  EXPECT_FALSE(Readable(waiter->get(), 0));
  gate.Open();
  auto search_reply = ReadFrame(reader->get());
  ASSERT_TRUE(search_reply.has_value());
  EXPECT_TRUE(StartsWith(*search_reply, "RESULT 0")) << *search_reply;
  auto wait_reply = ReadFrame(waiter->get());
  ASSERT_TRUE(wait_reply.has_value());
  EXPECT_EQ(*wait_reply, "RESULT 0 waited\n");
}

TEST(WireHandoffTest, RequestsPipelinedBehindAWaitAnsweredInOrder) {
  auto directory = MakeDirectory();
  Gate gate;
  auto server = ServeGated(directory.get(), &gate);
  auto fd = ConnectTcp("127.0.0.1", server->port());
  auto other = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(other.ok());

  ASSERT_TRUE(WriteAll(fd->get(), EncodeFrame(kWait)));
  gate.AwaitWaiting(1);
  // Queued in the socket behind the waiting request: the stand-in
  // leading the loop must leave them alone while it serves others.
  ASSERT_TRUE(WriteAll(fd->get(), EncodeFrame(kAddAda) +
                                      EncodeFrame(kSearchAll)));
  ASSERT_TRUE(WriteAll(other->get(), EncodeFrame(kSearchAll)));
  EXPECT_TRUE(Readable(other->get(), 10000));
  EXPECT_FALSE(Readable(fd->get(), 50));
  gate.Open();
  auto other_reply = ReadFrame(other->get());
  ASSERT_TRUE(other_reply.has_value());
  EXPECT_TRUE(StartsWith(*other_reply, "RESULT 0")) << *other_reply;
  auto wait_reply = ReadFrame(fd->get());
  ASSERT_TRUE(wait_reply.has_value());
  EXPECT_EQ(*wait_reply, "RESULT 0 waited\n");
  auto add_reply = ReadFrame(fd->get());
  ASSERT_TRUE(add_reply.has_value());
  EXPECT_TRUE(StartsWith(*add_reply, "RESULT 0")) << *add_reply;
  auto search_reply = ReadFrame(fd->get());
  ASSERT_TRUE(search_reply.has_value());
  EXPECT_NE(search_reply->find("cn=Ada,o=Lucent"), std::string::npos);
  // The connection is polled again once its handler returned.
  ASSERT_TRUE(WriteAll(fd->get(), EncodeFrame(kSearchAll)));
  auto again = ReadFrame(fd->get());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *search_reply);
}

TEST(WireHandoffTest, StopFinishesAWaitingRequestAndJoinsEveryThread) {
  const int threads_before = CountThreads();
  auto directory = MakeDirectory();
  Gate gate;
  auto server = ServeGated(directory.get(), &gate);
  auto first = ConnectTcp("127.0.0.1", server->port());
  auto second = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Two waiting requests: the loop has handed off twice.
  ASSERT_TRUE(WriteAll(first->get(), EncodeFrame(kWait)));
  ASSERT_TRUE(WriteAll(second->get(), EncodeFrame(kWait)));
  gate.AwaitWaiting(2);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server->Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load());  // Stop waits for the waiting requests.
  gate.Open();
  stopper.join();
  for (int fd : {first->get(), second->get()}) {
    auto reply = ReadFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "RESULT 0 waited\n");
    EXPECT_TRUE(ReadEof(fd));
  }
  // Joined threads leave /proc/self/task shortly after join returns.
  int threads_after = CountThreads();
  for (int i = 0; i < 200 && threads_after != threads_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    threads_after = CountThreads();
  }
  EXPECT_EQ(threads_after, threads_before);
}

TEST(WireHandoffTest, WireWriteAnsweredAfterPropagationWhileReadsProceed) {
  core::SystemConfig config;
  config.um.threaded = true;
  auto system = core::MetaCommSystem::Create(config);
  ASSERT_TRUE(system.ok()) << system.status();
  ASSERT_TRUE((*system)
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  (*system)->pbx("pbx1")->latency().set_rtt_micros(250'000);
  TcpServerConfig server_config;
  server_config.io_threads = 1;
  auto server = Serve(&(*system)->gateway(), std::move(server_config));
  auto writer = ConnectTcp("127.0.0.1", server->port());
  auto reader = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());

  const std::string dn = "cn=John Doe,ou=People,o=Lucent";
  ASSERT_TRUE(WriteAll(
      writer->get(),
      EncodeFrame("MODIFY\ndn: " + dn +
                  "\nchangetype: modify\nreplace: roomNumber\n"
                  "roomNumber: 4B-401\n-\n")));
  // Committed to the directory: the UM now propagates to pbx1.
  ldap::Client client = (*system)->NewClient();
  for (int i = 0; i < 2000; ++i) {
    auto entry = client.Get(dn);
    if (entry.ok() && entry->GetFirst("roomNumber") == "4B-401") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(WriteAll(reader->get(),
                       EncodeFrame("SEARCH base: " + dn +
                                   "\nscope: base\nfilter: (cn=*)\n")));
  auto search_reply = ReadFrame(reader->get());
  ASSERT_TRUE(search_reply.has_value());
  EXPECT_NE(search_reply->find("roomNumber: 4B-401"), std::string::npos)
      << *search_reply;
  EXPECT_FALSE(Readable(writer->get(), 0));  // Still propagating.
  auto modify_reply = ReadFrame(writer->get());
  ASSERT_TRUE(modify_reply.has_value());
  EXPECT_TRUE(StartsWith(*modify_reply, "RESULT 0")) << *modify_reply;
  // §4.4: LTAP answers only once the UM has updated the device.
  auto station = (*system)->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok());
  EXPECT_EQ(station->GetFirst("Room"), "4B-401");
  server->Stop();
  (*system)->update_manager().Stop();
}

}  // namespace
}  // namespace metacomm::net
