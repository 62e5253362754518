// kill_restart_harness: the durability subsystem's proof by violence.
// Spawns metacomm_serve with a data dir, drives a seeded multi-thread
// write storm over the real TCP wire, SIGKILLs the server at a random
// point mid-storm, restarts it on the same data dir, and verifies:
//
//   * zero acked-but-lost updates — every write the wire acknowledged
//     is present (or superseded by a later write to the same key)
//     after recovery. Each storm thread owns one person entry and
//     writes strictly increasing counter-encoded telephoneNumbers, so
//     "present or superseded" reduces to: stored counter >= highest
//     acked counter for that key;
//   * no phantoms — the stored counter never exceeds the highest
//     counter the thread ever sent;
//   * the recovered server serves reads and accepts new writes (the
//     storm of the next iteration runs against it).
//
// Each iteration is one crash point; --iterations=10 sweeps ten of
// them at seeded-random offsets into the storm.
//
//   kill_restart_harness --serve=./tools/metacomm_serve
//       --data-dir=/dev/shm/mc_kill --iterations=10 --seed=42
//       (one command line)

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "net/tcp_client.h"
#include "storage/durability_config.h"
#include "storage/fs.h"
#include "flags.h"

namespace {

struct Options {
  std::string serve = "./tools/metacomm_serve";
  std::string data_dir = "/dev/shm/metacomm_kill_restart";
  int iterations = 10;
  int threads = 4;
  uint64_t seed = 42;
  metacomm::storage::FsyncPolicy wal_fsync =
      metacomm::storage::FsyncPolicy::kBatch;
  int64_t checkpoint_interval_s = 1;
  int64_t min_storm_ms = 150;
  int64_t max_storm_ms = 1200;
};

/// One running metacomm_serve child: pid + the pipe carrying its
/// stdout (where the "listening on 127.0.0.1:PORT" line appears).
struct Server {
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;
};

/// fork/execs the server and blocks until it prints its listening
/// port. Returns nullopt (with a diagnostic) if the child dies first.
std::optional<Server> SpawnServer(const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    return std::nullopt;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return std::nullopt;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::string data_dir = "--data-dir=" + opt.data_dir;
    std::string fsync = std::string("--wal-fsync=") +
                        metacomm::storage::FsyncPolicyName(opt.wal_fsync);
    std::string checkpoint =
        "--checkpoint-interval-s=" +
        std::to_string(opt.checkpoint_interval_s);
    const char* args[] = {opt.serve.c_str(),
                          "--port=0",
                          "--stats-interval-seconds=0",
                          data_dir.c_str(),
                          fsync.c_str(),
                          checkpoint.c_str(),
                          nullptr};
    ::execv(opt.serve.c_str(), const_cast<char**>(args));
    std::perror("execv");
    ::_exit(127);
  }
  ::close(fds[1]);

  Server server;
  server.pid = pid;
  server.out_fd = fds[0];
  std::string line;
  char ch;
  while (::read(fds[0], &ch, 1) == 1) {
    if (ch != '\n') {
      line.push_back(ch);
      continue;
    }
    constexpr std::string_view kMark = "listening on 127.0.0.1:";
    size_t at = line.find(kMark);
    if (at != std::string::npos) {
      std::string_view rest =
          std::string_view(line).substr(at + kMark.size());
      size_t end = rest.find(' ');
      if (end != std::string_view::npos) rest = rest.substr(0, end);
      std::optional<uint64_t> port = metacomm::ParseUint64(rest);
      if (!port.has_value() || *port > 65535) {
        std::fprintf(stderr, "unparsable listen line: %s\n",
                     line.c_str());
        break;
      }
      server.port = static_cast<uint16_t>(*port);
      return server;
    }
    line.clear();
  }
  std::fprintf(stderr, "server exited before listening\n");
  ::close(fds[0]);
  ::waitpid(pid, nullptr, 0);
  return std::nullopt;
}

void KillServer(Server* server, int signo) {
  if (server->pid < 0) return;
  ::kill(server->pid, signo);
  ::waitpid(server->pid, nullptr, 0);
  ::close(server->out_fd);
  server->pid = -1;
  server->out_fd = -1;
}

int ReplyCode(const std::string& reply) {
  if (!metacomm::StartsWith(reply, "RESULT ")) return -1;
  size_t end = reply.find(' ', 7);
  std::optional<int64_t> code = metacomm::ParseInt64(
      std::string_view(reply).substr(
          7, end == std::string::npos ? std::string::npos : end - 7));
  return code.has_value() ? static_cast<int>(*code) : -1;
}

/// Per-storm-thread ledger. `acked` and `sent` are the highest
/// counters acknowledged / attempted; both persist across crash
/// iterations (the invariant spans the process's whole history).
struct Ledger {
  uint64_t acked = 0;
  uint64_t sent = 0;
  bool added = false;  // The initial ADD has been acknowledged.
  uint64_t modify_acks = 0;
};

std::string StormDn(int t) {
  return "cn=Storm " + std::to_string(t) + ",ou=People,o=Lucent";
}

/// Thread t owns extensions [1000 + 1000t, 1000 + 1000t + 999]; the
/// counter cycles through them, keeping every MODIFY a device-routed
/// telephoneNumber change (an LDAP write, so it logs WAL change
/// records but no intent: only direct device updates do), while the
/// unambiguous monotone counter itself rides in `description`.
std::string StormNumber(int t, uint64_t counter) {
  return "+1 908 582 " +
         std::to_string(1000 + 1000 * t + counter % 1000);
}

std::string StormDescription(uint64_t counter) {
  return "storm-" + std::to_string(counter);
}

std::string AddRequest(int t) {
  std::string cn = "Storm " + std::to_string(t);
  return "ADD\ndn: " + StormDn(t) +
         "\nobjectClass: top\nobjectClass: person\n"
         "objectClass: organizationalPerson\n"
         "objectClass: inetOrgPerson\ncn: " +
         cn + "\nsn: Storm\ntelephoneNumber: " + StormNumber(t, 0) +
         "\ndescription: " + StormDescription(0) + "\n";
}

std::string ModifyRequest(int t, uint64_t counter) {
  return "MODIFY\ndn: " + StormDn(t) +
         "\nchangetype: modify\nreplace: telephoneNumber\n"
         "telephoneNumber: " +
         StormNumber(t, counter) + "\n-\nreplace: description\n" +
         "description: " + StormDescription(counter) + "\n-\n";
}

/// Drives one thread's slice of the storm until the server dies (the
/// SIGKILL lands mid-storm) or `stop` is raised.
void StormThread(uint16_t port, int t,
                 std::atomic<bool>* stop, Ledger* ledger) {
  metacomm::net::TcpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return;
  if (!ledger->added) {
    int code = ReplyCode(client.Call(AddRequest(t)));
    if (code == 0) {
      ledger->added = true;  // Counter 0 is now acked.
    } else if (code != -1 && code != 52) {
      // Entry survived an earlier crash after an un-acked ADD.
      if (code == 68) ledger->added = true;
      else return;
    } else {
      return;  // Transport death before the ADD resolved.
    }
  }
  while (!stop->load(std::memory_order_relaxed)) {
    uint64_t counter = ledger->sent + 1;
    ledger->sent = counter;
    int code = ReplyCode(client.Call(ModifyRequest(t, counter)));
    if (code == 0) {
      ledger->acked = counter;
      ++ledger->modify_acks;
    } else if (code == 51) {
      continue;  // Shed — unacked; the counter may or may not land.
    } else {
      return;  // Transport torn down: the kill landed.
    }
  }
}

/// Reads thread t's stored counter back through the wire.
std::optional<uint64_t> ReadCounter(uint16_t port, int t) {
  metacomm::net::TcpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return std::nullopt;
  std::string reply = client.Call("SEARCH base: " + StormDn(t) +
                                  "\nscope: base\nfilter: "
                                  "(objectClass=*)\n");
  if (ReplyCode(reply) != 0) return std::nullopt;
  constexpr std::string_view kAttr = "description: storm-";
  size_t at = reply.find(kAttr);
  if (at == std::string::npos) return std::nullopt;
  std::string_view rest = std::string_view(reply).substr(
      at + kAttr.size());
  size_t end = rest.find('\n');
  if (end != std::string_view::npos) rest = rest.substr(0, end);
  return metacomm::ParseUint64(rest);
}

/// The acked-but-lost check after a restart.
bool Verify(uint16_t port, const std::vector<Ledger>& ledgers) {
  bool ok = true;
  for (size_t t = 0; t < ledgers.size(); ++t) {
    const Ledger& ledger = ledgers[t];
    if (!ledger.added) continue;  // Never acked anything for this key.
    std::optional<uint64_t> stored =
        ReadCounter(port, static_cast<int>(t));
    if (!stored.has_value()) {
      std::fprintf(stderr,
                   "FAIL thread %zu: acked entry missing after "
                   "recovery (acked=%llu)\n",
                   t, static_cast<unsigned long long>(ledger.acked));
      ok = false;
      continue;
    }
    if (*stored < ledger.acked) {
      std::fprintf(
          stderr,
          "FAIL thread %zu: acked-but-lost — stored=%llu acked=%llu\n",
          t, static_cast<unsigned long long>(*stored),
          static_cast<unsigned long long>(ledger.acked));
      ok = false;
    }
    if (*stored > ledger.sent) {
      std::fprintf(
          stderr,
          "FAIL thread %zu: phantom write — stored=%llu sent=%llu\n",
          t, static_cast<unsigned long long>(*stored),
          static_cast<unsigned long long>(ledger.sent));
      ok = false;
    }
  }
  return ok;
}

/// Clears previous runs' state files so every harness run starts from
/// an empty directory (dir itself is kept).
void WipeDataDir(const std::string& dir) {
  auto names = metacomm::storage::ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    metacomm::Status removed =
        metacomm::storage::RemoveFile(dir + "/" + name);
    (void)removed;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  metacomm::tools::FlagSet flags(
      "SIGKILL metacomm_serve mid-storm in a loop; verify recovery");
  flags.Text("serve", &opt.serve, "path to the metacomm_serve binary");
  flags.Text("data-dir", &opt.data_dir,
             "durability directory (wiped at start)");
  flags.Numeric("iterations", &opt.iterations,
                "crash points to sweep (SIGKILLs)");
  flags.Numeric("threads", &opt.threads, "storm threads");
  flags.Numeric("seed", &opt.seed, "crash-point RNG seed");
  flags.Choice<metacomm::storage::FsyncPolicy>(
      "wal-fsync", &opt.wal_fsync, "{off,batch,always}",
      metacomm::storage::ParseFsyncPolicy, "server WAL fsync policy");
  flags.Numeric("checkpoint-interval-s", &opt.checkpoint_interval_s,
                "server checkpoint cadence");
  flags.Numeric("min-storm-ms", &opt.min_storm_ms,
                "earliest kill offset into the storm");
  flags.Numeric("max-storm-ms", &opt.max_storm_ms,
                "latest kill offset into the storm");
  if (!flags.Parse(argc, argv)) return 2;
  if (opt.threads < 1 || opt.threads > 8) {
    std::fprintf(stderr, "--threads must be in [1,8]\n");
    return 2;
  }

  ::signal(SIGPIPE, SIG_IGN);
  if (!metacomm::storage::MakeDirs(opt.data_dir).ok()) {
    std::fprintf(stderr, "cannot create %s\n", opt.data_dir.c_str());
    return 1;
  }
  WipeDataDir(opt.data_dir);

  std::mt19937_64 rng(opt.seed);
  std::vector<Ledger> ledgers(static_cast<size_t>(opt.threads));

  std::optional<Server> server = SpawnServer(opt);
  if (!server.has_value()) return 1;

  for (int iteration = 0; iteration < opt.iterations; ++iteration) {
    // Storm against the live server...
    std::atomic<bool> stop{false};
    std::vector<std::thread> storm;
    for (int t = 0; t < opt.threads; ++t) {
      storm.emplace_back(StormThread, server->port, t, &stop,
                         &ledgers[static_cast<size_t>(t)]);
    }
    // ...SIGKILL it at a seeded-random point mid-storm...
    std::uniform_int_distribution<int64_t> offset(opt.min_storm_ms,
                                                  opt.max_storm_ms);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(offset(rng)));
    KillServer(&*server, SIGKILL);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& thread : storm) thread.join();

    // ...restart on the same data dir and check the invariants.
    server = SpawnServer(opt);
    if (!server.has_value()) return 1;
    if (!Verify(server->port, ledgers)) {
      std::fprintf(stderr, "kill_restart_harness: FAILED at "
                           "iteration %d (seed %llu)\n",
                   iteration,
                   static_cast<unsigned long long>(opt.seed));
      KillServer(&*server, SIGTERM);
      return 1;
    }
    uint64_t acks = 0;
    for (const Ledger& ledger : ledgers) acks += ledger.modify_acks;
    std::printf("iteration %d: recovery verified (%llu acked "
                "modifies so far)\n",
                iteration, static_cast<unsigned long long>(acks));
    std::fflush(stdout);
  }

  KillServer(&*server, SIGTERM);
  uint64_t acks = 0;
  for (const Ledger& ledger : ledgers) acks += ledger.modify_acks;
  std::printf("kill_restart_harness: PASSED — %d kills, %llu acked "
              "modifies, zero acked-but-lost (seed %llu)\n",
              opt.iterations, static_cast<unsigned long long>(acks),
              static_cast<unsigned long long>(opt.seed));
  return 0;
}
