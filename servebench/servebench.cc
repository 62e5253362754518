// servebench: the served MetaComm deployment, assembled in-process the
// way tools/metacomm_serve assembles it, driven by closed-loop clients.
//
// The deployment: threaded Update Manager (2 workers, batch 16), LTAP
// gateway, pbx1 + mp1, a durable data dir (WAL fsync=batch, checkpoints
// several times per window slice) and a TcpServer (2 io threads,
// admission at UM queue depth 1024) on loopback. A run sets it up
// kSetups times; each deployment serves an equal slice of the window
// and the slices are pooled. It runs in-process because direct
// device updates enter at the PBX terminal, which the wire does not
// carry, and because the per-layer counters are public functions of
// in-process objects.
//
// Workloads (README.md says why each exists):
//   lookup     4 wire clients: 90% point lookups, 8% name browses,
//              2% roomNumber changes.
//   provision  4 wire clients at 200 us device RTT: 50% room changes,
//              25% new-hire ADDs, 25% DELETEs of the client's oldest hire.
//   ddu        4 PBX technicians: `change station` at pbx1, each waiting
//              for the directory commit that reflects it.
//
// Every reply and every deployment's end state are checked. Output is
// `record ...` lines, one `metric <name> <value> <unit>` line per metric,
// and a final `result correct=<0|1> attempted=<n> failed=<n>`. With
// --trace=1 each deployment serves an untraced slice and then a traced
// one (spans around each call into a layer), and the run prints the
// per-layer metrics instead of the end-to-end ones.

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/workload.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/integrated_schema.h"
#include "core/metacomm.h"
#include "ldap/ldif.h"
#include "ldap/text_protocol.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "servebench/stats.h"
#include "tools/flags.h"

namespace metacomm::servebench {
namespace {

namespace fs = std::filesystem;

/// A run sets up this many deployments (setup_s is their median), and
/// each serves an equal slice of the window after its own warm-up.
constexpr int kSetups = 3;
constexpr int64_t kWarmupMs = 1'000;
constexpr int kClients = 4;
constexpr int kUmWorkers = 2;
constexpr int kUmBatch = 16;
constexpr int kIoThreads = 2;
constexpr size_t kAdmissionQueueLimit = 1024;
constexpr int64_t kProvisionRttMicros = 200;
/// A provisioning client keeps at most this many live hires, so the
/// directory size stays within population + 4 * kMaxLiveHires.
constexpr size_t kMaxLiveHires = 16;
constexpr int64_t kDduDeadlineNanos = 2'000'000'000;
constexpr char kPeopleBase[] = "ou=People,o=Lucent";
constexpr char kPhonePrefix[] = "+1 908 582 ";
constexpr char kHello[] = "SERVEBENCH-HELLO ";

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

enum OpClass { kPoint, kBrowse, kModify, kAdd, kDelete, kDdu, kClassCount };
const char* const kClassNames[kClassCount] = {
    "search_point", "search_browse", "modify", "add", "delete", "ddu"};

enum class Workload { kLookup, kProvision, kDdu };

std::optional<Workload> ParseWorkload(std::string_view text) {
  if (text == "lookup") return Workload::kLookup;
  if (text == "provision") return Workload::kProvision;
  if (text == "ddu") return Workload::kDdu;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLookup:
      return "lookup";
    case Workload::kProvision:
      return "provision";
    case Workload::kDdu:
      return "ddu";
  }
  return "?";
}

struct Options {
  Workload workload = Workload::kLookup;
  uint64_t seed = 1;
  int64_t window_ms = 10'000;
  int trace = 0;
  size_t population = 2000;
  std::string data_root = ".bench_build/servebench/data";
  std::string commit = "unknown";
  std::string span_file;
};

// ---------------------------------------------------------------------
// Output

void PrintMetric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.12g %s\n", name.c_str(), value, unit);
}

void PrintMissing(const std::string& name, const char* unit,
                  const char* why) {
  std::printf("metric %s n/a %s (%s)\n", name.c_str(), unit, why);
}

/// `num / den`, or n/a when the denominator is empty.
void PrintRatio(const std::string& name, double num, double den,
                const char* unit, const char* why) {
  if (den <= 0) {
    PrintMissing(name, unit, why);
  } else {
    PrintMetric(name, num / den, unit);
  }
}

// ---------------------------------------------------------------------
// Host and process probes

struct ProcStat {
  uint64_t total = 0, idle = 0, steal = 0;
};

ProcStat ReadProcStat() {
  ProcStat out;
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[10] = {};
  if (in >> cpu) {
    for (uint64_t& x : v) in >> x;
  }
  // user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already folded into user/nice.
  for (int i = 0; i < 8; ++i) out.total += v[i];
  out.idle = v[3] + v[4];
  out.steal = v[7];
  return out;
}

/// Resets the process's peak RSS to its current RSS, so that a later
/// ReadPeakRssMiB() covers only what ran since.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double ReadPeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    double kib = 0;
    if (key == "VmHWM:" && in >> kib) return kib / 1024.0;
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

std::string StorageMedium(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0x01021994:
      return "tmpfs";
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "fs-0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each call it makes
// into a layer. client.call (TcpClient::Call) contains server.handle
// (the TcpServer handler around TextProtocolHandler::Handle), which
// contains ltap.op (an LdapService decorator in front of the gateway).

struct ServerSpan {
  int client = -1;
  uint64_t seq = 0;
  Interval handle;
  Interval ltap;
};

/// The server span being handled on this io thread, if recording.
thread_local ServerSpan* t_server_span = nullptr;

/// ltap.op: times the one service call a text-protocol request makes.
class TracingService : public ldap::LdapService {
 public:
  explicit TracingService(ldap::LdapService* inner) : inner_(inner) {}

  template <typename F>
  static auto Timed(F&& call) -> decltype(call()) {
    ServerSpan* span = t_server_span;
    if (span == nullptr) return call();
    span->ltap.begin = NowNanos();
    auto result = call();
    span->ltap.end = NowNanos();
    return result;
  }

  Status Add(const ldap::OpContext& ctx,
             const ldap::AddRequest& request) override {
    return Timed([&] { return inner_->Add(ctx, request); });
  }
  Status Delete(const ldap::OpContext& ctx,
                const ldap::DeleteRequest& request) override {
    return Timed([&] { return inner_->Delete(ctx, request); });
  }
  Status Modify(const ldap::OpContext& ctx,
                const ldap::ModifyRequest& request) override {
    return Timed([&] { return inner_->Modify(ctx, request); });
  }
  Status ModifyRdn(const ldap::OpContext& ctx,
                   const ldap::ModifyRdnRequest& request) override {
    return Timed([&] { return inner_->ModifyRdn(ctx, request); });
  }
  StatusOr<ldap::SearchResult> Search(
      const ldap::OpContext& ctx,
      const ldap::SearchRequest& request) override {
    return Timed([&] { return inner_->Search(ctx, request); });
  }
  Status Compare(const ldap::OpContext& ctx,
                 const ldap::CompareRequest& request) override {
    return Timed([&] { return inner_->Compare(ctx, request); });
  }
  StatusOr<std::string> Bind(const ldap::BindRequest& request) override {
    return Timed([&] { return inner_->Bind(request); });
  }
  void Unbind() override { inner_->Unbind(); }

 private:
  ldap::LdapService* inner_;
};

/// One traced connection: its handler, the client it belongs to (set by
/// the hello the client sends after connecting) and its spans.
struct TracedSession {
  explicit TracedSession(ldap::LdapService* service) : handler(service) {}
  ldap::TextProtocolHandler handler;
  int client = -1;  // Loop-thread only.
  Mutex mu{LockRank::kLeaf, "servebench.session"};
  std::vector<ServerSpan> spans GUARDED_BY(mu);
};

struct Tracer {
  std::atomic<bool> recording{false};
  /// The request each client has in flight; the server-side spans link
  /// to it (one request is in flight per connection).
  std::array<std::atomic<uint64_t>, kClients> current_seq{};
  Mutex mu{LockRank::kLeaf, "servebench.tracer"};
  std::vector<std::shared_ptr<TracedSession>> sessions GUARDED_BY(mu);
};

// ---------------------------------------------------------------------
// Deployment

/// A technician's pending DDU, matched by the backend listener against
/// each directory commit.
struct DduSlot {
  Mutex mu{LockRank::kLeaf, "servebench.ddu_slot"};
  CondVar cv;
  bool armed GUARDED_BY(mu) = false;
  std::string room GUARDED_BY(mu);
  std::string dn_norm GUARDED_BY(mu);
  int64_t commit_nanos GUARDED_BY(mu) = 0;
};

/// One set-up's `setup` span is create + serve + provision.
struct SetupPhases {
  Interval create, serve, provision;
  static double Seconds(Interval i) {
    return static_cast<double>(i.duration()) / 1e9;
  }
  Interval total() const { return Interval{create.begin, provision.end}; }
};

struct Deployment {
  std::string data_dir;
  /// Declared before `system`: the backend listener points at them.
  std::array<DduSlot, kClients> ddu_slots;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TracingService> tracing_service;
  std::unique_ptr<core::MetaCommSystem> system;
  std::unique_ptr<net::TcpServer> server;
  std::vector<std::unique_ptr<net::TcpClient>> conns;

  ~Deployment() {
    conns.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    system.reset();
    std::error_code ec;
    if (!data_dir.empty()) fs::remove_all(data_dir, ec);
  }
};

int ResultCode(const std::string& reply) {
  if (!StartsWith(reply, "RESULT ")) return -1;
  size_t end = reply.find_first_of(" \n", 7);
  std::optional<int64_t> code = ParseInt64(
      reply.substr(7, end == std::string::npos ? std::string::npos
                                               : end - 7));
  return code.has_value() ? static_cast<int>(*code) : -1;
}

std::string AddRequestText(const std::string& cn, const std::string& sn,
                           const std::string& extension) {
  return "ADD\ndn: cn=" + cn + "," + kPeopleBase +
         "\nobjectClass: top\nobjectClass: person\n"
         "objectClass: organizationalPerson\n"
         "objectClass: inetOrgPerson\ncn: " +
         cn + "\nsn: " + sn + "\ntelephoneNumber: " + kPhonePrefix +
         extension + "\n";
}

std::string LastToken(const std::string& text) {
  size_t space = text.find_last_of(' ');
  return space == std::string::npos ? text : text.substr(space + 1);
}

/// Several checkpoints complete inside every deployment's window slice.
int64_t CheckpointIntervalMicros(const Options& opt) {
  return std::max<int64_t>(opt.window_ms * 1000 / kSetups / 4, 200'000);
}

/// Creates the deployment and provisions `people` by LDAP ADDs from the
/// kClients connections. Returns nullptr (with a message) on failure.
std::unique_ptr<Deployment> SetUp(const Options& opt, int index,
                                  const std::vector<bench::Person>& people,
                                  SetupPhases* phases) {
  auto d = std::make_unique<Deployment>();
  d->data_dir = opt.data_root + "/setup-" + std::to_string(::getpid()) +
                "-" + std::to_string(index);
  std::error_code ec;
  fs::remove_all(d->data_dir, ec);
  fs::create_directories(d->data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s: %s\n",
                 d->data_dir.c_str(), ec.message().c_str());
    return nullptr;
  }

  int64_t t0 = NowNanos();
  core::SystemConfig config = bench::ConfigForPopulation(people.size());
  config.um.threaded = true;
  config.um.worker_threads = kUmWorkers;
  config.um.max_batch_size = kUmBatch;
  config.durability.data_dir = d->data_dir;
  config.durability.wal_fsync = storage::FsyncPolicy::kBatch;
  config.durability.checkpoint_interval_micros = CheckpointIntervalMicros(opt);
  auto system = core::MetaCommSystem::Create(config);
  if (!system.ok()) {
    std::fprintf(stderr, "servebench: system assembly failed: %s\n",
                 system.status().ToString().c_str());
    return nullptr;
  }
  d->system = std::move(*system);
  int64_t t1 = NowNanos();

  net::TcpServerConfig server_config;
  server_config.listen_port = 0;
  server_config.io_threads = kIoThreads;
  server_config.max_connections = 64;
  server_config.busy_reply = ldap::BusyReply();
  server_config.error_reply = ldap::FramingErrorReply();
  core::UpdateManager* um = &d->system->update_manager();
  server_config.admit = [um] {
    return um->QueueDepth() < kAdmissionQueueLimit;
  };
  ldap::LdapService* gateway = &d->system->gateway();
  if (opt.trace) {
    d->tracer = std::make_unique<Tracer>();
    d->tracing_service = std::make_unique<TracingService>(gateway);
    Tracer* tracer = d->tracer.get();
    ldap::LdapService* service = d->tracing_service.get();
    d->server = std::make_unique<net::TcpServer>(
        std::move(server_config), [tracer, service] {
          auto session = std::make_shared<TracedSession>(service);
          {
            MutexLock lock(&tracer->mu);
            tracer->sessions.push_back(session);
          }
          return [session, tracer](const std::string& request) {
            if (StartsWith(request, kHello)) {
              std::optional<int64_t> client =
                  ParseInt64(Trim(request.substr(sizeof(kHello) - 1)));
              if (!client.has_value() || *client < 0 ||
                  *client >= kClients) {
                return std::string("RESULT 2 bad hello\n");
              }
              session->client = static_cast<int>(*client);
              return std::string("RESULT 0 hello\n");
            }
            if (!tracer->recording.load(std::memory_order_relaxed) ||
                session->client < 0) {
              return session->handler.Handle(request);
            }
            ServerSpan span;
            span.client = session->client;
            span.seq = tracer->current_seq[span.client].load(
                std::memory_order_acquire);
            span.handle.begin = NowNanos();
            t_server_span = &span;
            std::string reply = session->handler.Handle(request);
            t_server_span = nullptr;
            span.handle.end = NowNanos();
            MutexLock lock(&session->mu);
            session->spans.push_back(span);
            return reply;
          };
        });
  } else {
    // Exactly tools/metacomm_serve's handler.
    d->server = std::make_unique<net::TcpServer>(
        std::move(server_config), [gateway] {
          auto session = std::make_shared<ldap::TextProtocolHandler>(gateway);
          return [session](const std::string& request) {
            return session->Handle(request);
          };
        });
  }
  Status status = d->server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "servebench: cannot serve: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  for (int c = 0; c < kClients; ++c) {
    auto conn = std::make_unique<net::TcpClient>();
    status = conn->Connect("127.0.0.1", d->server->port());
    if (!status.ok()) {
      std::fprintf(stderr, "servebench: connect failed: %s\n",
                   status.ToString().c_str());
      return nullptr;
    }
    if (opt.trace &&
        ResultCode(conn->Call(kHello + std::to_string(c))) != 0) {
      std::fprintf(stderr, "servebench: trace hello refused\n");
      return nullptr;
    }
    d->conns.push_back(std::move(conn));
  }
  int64_t t2 = NowNanos();

  std::atomic<bool> failed{false};
  std::vector<std::thread> loaders;
  for (int c = 0; c < kClients; ++c) {
    loaders.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < people.size();
           i += kClients) {
        const bench::Person& p = people[i];
        std::string reply = d->conns[c]->Call(
            AddRequestText(p.cn, LastToken(p.cn), p.extension));
        if (ResultCode(reply) != 0) {
          std::fprintf(stderr, "servebench: provisioning %s: %s",
                       p.cn.c_str(), reply.c_str());
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  if (failed.load()) return nullptr;
  int64_t t3 = NowNanos();

  *phases = SetupPhases{Interval{t0, t1}, Interval{t1, t2},
                        Interval{t2, t3}};
  return d;
}

// ---------------------------------------------------------------------
// Counters sampled at window boundaries

struct Counters {
  int64_t wall_nanos = 0;
  core::UpdateManager::Stats um;
  ltap::LtapGateway::Stats gateway;
  ldap::Backend::ReadStats reads;
  uint64_t changes = 0;
  net::TcpServer::Stats net;
  uint64_t device_mutations = 0;
  uint64_t round_trips = 0;
  uint64_t wal_next_lsn = 0;
  uint64_t wal_segment = 0;
  int64_t process_cpu_nanos = 0;
  int64_t generator_cpu_nanos = 0;
  uint64_t ctx_switches = 0;
  ProcStat host;
};

/// The client threads' own CPU. A technician's ExecuteCommand runs the
/// system's code on the technician's thread (pbx1's commit, its
/// notification and the UM's intake), so each technician adds that time
/// to `in_system` and it is taken back out of the thread's clock.
struct GeneratorCpu {
  std::vector<clockid_t> clocks;
  std::array<std::atomic<int64_t>, kClients> in_system{};

  int64_t OwnNanos() const {
    int64_t total = 0;
    for (clockid_t clock : clocks) total += CpuNanos(clock);
    for (const auto& nanos : in_system) {
      total -= nanos.load(std::memory_order_relaxed);
    }
    return total;
  }
};

Counters Sample(Deployment& d, const GeneratorCpu& generators) {
  Counters c;
  c.wall_nanos = NowNanos();
  core::MetaCommSystem& s = *d.system;
  c.um = s.update_manager().stats();
  c.gateway = s.gateway().stats();
  c.reads = s.server().backend().read_stats();
  c.changes = s.server().backend().ChangeCount();
  c.net = d.server->stats();
  devices::DefinityPbx* pbx = s.pbx("pbx1");
  devices::MessagingPlatform* mp = s.mp("mp1");
  c.device_mutations =
      pbx->faults().mutations_seen() + mp->faults().mutations_seen();
  c.round_trips = pbx->latency().round_trips() + mp->latency().round_trips();
  c.wal_next_lsn = s.durability()->wal()->next_lsn();
  c.wal_segment = s.durability()->wal()->current_segment();
  c.process_cpu_nanos = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
  c.generator_cpu_nanos = generators.OwnNanos();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  c.host = ReadProcStat();
  return c;
}

uint64_t ShardSum(const core::UpdateManager::Stats& s,
                  uint64_t core::UpdateManager::ShardStats::*field) {
  uint64_t total = 0;
  for (const auto& shard : s.shards) total += shard.*field;
  return total;
}

/// What one window changed in the public counters, summed over every
/// deployment the run measured.
struct CounterDeltas {
  double seconds = 0;
  double net_requests = 0, net_bytes = 0, net_shed_busy = 0;
  double searches = 0, candidates_examined = 0, candidates_matched = 0;
  double scan_plans = 0, changes = 0, triggers_fired = 0;
  double gateway_updates = 0;
  double dequeued = 0, queue_wait_micros = 0, batches = 0, coalesced = 0;
  double device_applies = 0, reapplications = 0, generated_info = 0;
  double lock_retries = 0, um_errors = 0, closure_iterations = 0;
  double device_mutations = 0, round_trips = 0, wal_records = 0;
  double checkpoints = 0;
  double server_cpu_nanos = 0;  // Process CPU minus the generators'.
  double ctx_switches = 0;
  double host_total = 0, host_idle = 0, host_steal = 0;
  /// Highest UM queue depth a SlicePoller saw in the window, not a sum.
  size_t max_queue_depth = 0;

  void Add(const Counters& a, const Counters& b) {
    auto d = [](auto after, auto before) {
      return static_cast<double>(after - before);
    };
    using Shard = core::UpdateManager::ShardStats;
    seconds += d(b.wall_nanos, a.wall_nanos) / 1e9;
    net_requests += d(b.net.requests, a.net.requests);
    net_bytes += d(b.net.bytes_in + b.net.bytes_out,
                   a.net.bytes_in + a.net.bytes_out);
    net_shed_busy += d(b.net.shed_busy, a.net.shed_busy);
    searches += d(b.reads.searches, a.reads.searches);
    candidates_examined +=
        d(b.reads.candidates_examined, a.reads.candidates_examined);
    candidates_matched +=
        d(b.reads.candidates_matched, a.reads.candidates_matched);
    scan_plans += d(b.reads.scan_plans, a.reads.scan_plans);
    changes += d(b.changes, a.changes);
    triggers_fired += d(b.gateway.triggers_fired, a.gateway.triggers_fired);
    gateway_updates += d(b.gateway.updates, a.gateway.updates);
    dequeued += d(ShardSum(b.um, &Shard::dequeued),
                  ShardSum(a.um, &Shard::dequeued));
    queue_wait_micros += d(ShardSum(b.um, &Shard::queue_wait_micros),
                           ShardSum(a.um, &Shard::queue_wait_micros));
    batches += d(b.um.batches, a.um.batches);
    coalesced += d(b.um.coalesced, a.um.coalesced);
    device_applies += d(b.um.device_applies, a.um.device_applies);
    reapplications += d(b.um.reapplications, a.um.reapplications);
    generated_info += d(b.um.generated_info, a.um.generated_info);
    lock_retries += d(b.um.lock_retries, a.um.lock_retries);
    um_errors += d(b.um.errors, a.um.errors);
    closure_iterations += d(b.um.closure_iterations, a.um.closure_iterations);
    device_mutations += d(b.device_mutations, a.device_mutations);
    round_trips += d(b.round_trips, a.round_trips);
    wal_records += d(b.wal_next_lsn, a.wal_next_lsn);
    checkpoints += d(b.wal_segment, a.wal_segment);
    server_cpu_nanos += d(b.process_cpu_nanos, a.process_cpu_nanos) -
                        d(b.generator_cpu_nanos, a.generator_cpu_nanos);
    ctx_switches += d(b.ctx_switches, a.ctx_switches);
    host_total += d(b.host.total, a.host.total);
    host_idle += d(b.host.idle, a.host.idle);
    host_steal += d(b.host.steal, a.host.steal);
  }

  double steal_share() const {
    return host_total > 0 ? host_steal / host_total : 0.0;
  }
  double busy_share() const {
    return host_total > 0 ? (host_total - host_idle - host_steal) / host_total
                          : 0.0;
  }
};

/// What a traced slice needs that the public counters do not keep per
/// slice, polled while the slice runs:
/// - appended WAL bytes, tracked per segment file so that segments a
///   checkpoint deletes still count (polled every 5 ms; bytes appended
///   between the last poll and a deletion are missed);
/// - the UM queue depth, sampled every millisecond. Its highest sample
///   is the slice's core.max_queue_depth; the UM's own max_depth is a
///   high-water mark of the deployment's whole life, set-up included.
class SlicePoller {
 public:
  SlicePoller(std::string wal_dir, const core::UpdateManager* um)
      : dir_(std::move(wal_dir)), um_(um) {}
  ~SlicePoller() { Stop(); }
  SlicePoller(const SlicePoller&) = delete;
  SlicePoller& operator=(const SlicePoller&) = delete;

  void Start() {
    PollWal();
    baseline_ = Total();
    thread_ = std::thread([this] {
      for (int tick = 0; !stop_.load(std::memory_order_relaxed); ++tick) {
        max_queue_depth_ = std::max(max_queue_depth_, um_->QueueDepth());
        if (tick % 5 == 0) PollWal();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    PollWal();
  }
  /// After Stop(): bytes appended since Start().
  uint64_t wal_bytes() const { return Total() - baseline_; }
  /// After Stop(): the highest queue depth sampled.
  size_t max_queue_depth() const { return max_queue_depth_; }

 private:
  void PollWal() {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      std::string name = entry.path().filename().string();
      if (!EndsWith(name, ".wal")) continue;
      uint64_t size = entry.file_size(ec);
      if (ec) continue;
      uint64_t& seen = sizes_[name];
      seen = std::max(seen, size);
    }
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& [name, size] : sizes_) total += size;
    return total;
  }

  std::string dir_;
  const core::UpdateManager* um_;
  // Written by the poller thread while it runs.
  std::map<std::string, uint64_t> sizes_;
  size_t max_queue_depth_ = 0;
  uint64_t baseline_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Generators

struct WindowStats {
  std::array<Histogram, kClassCount> latency;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

struct ClientSpan {
  uint64_t seq = 0;
  OpClass cls = kPoint;
  Interval call;
};

struct DduSpan {
  Interval command;   // device.command: ExecuteCommand at pbx1.
  Interval converge;  // core.converge: return until directory commit.
};

struct Hire {
  uint64_t id = 0;
  std::string dn;
};

/// Generator phases besides a window's index: warm-up and the gaps
/// between windows are unmeasured.
constexpr int kUnmeasured = -1;
constexpr int kStopped = 100;

struct Shared {
  const Options* opt = nullptr;
  Deployment* d = nullptr;
  const std::vector<bench::Person>* people = nullptr;
  /// Lower-cased DNs per "<First> <Last>" browse prefix.
  std::map<std::string, std::vector<std::string>> browse_sets;
  /// Last room each person was given; person i is only ever written by
  /// client i % kClients.
  std::vector<std::string> expected_room;
  std::atomic<int> phase{kUnmeasured};
  int traced_window = -1;
  int extension_digits = 5;
  GeneratorCpu generator_cpu;
};

struct Client {
  int index = 0;
  Random rng{1};
  std::vector<WindowStats> windows;
  uint64_t seq = 0;
  uint64_t room_seq = 0;
  std::deque<Hire> hires;
  uint64_t next_hire = 0;
  std::vector<ClientSpan> spans;
  std::vector<DduSpan> ddu_spans;
  std::string first_error;
  /// Operations outside every window (warm-up, gaps): not in the
  /// windows' figures, but in the run's attempted and failed counts.
  uint64_t unmeasured_ops = 0;
  uint64_t unmeasured_failures = 0;
};

std::string HireExtension(const Shared& s, int client, uint64_t id) {
  // Hires of client c take extensions (5+c)xxxx, clear of the
  // population's 4xxxx block.
  int width = s.extension_digits - 1;
  uint64_t span = 1;
  for (int i = 0; i < width; ++i) span *= 10;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d%0*" PRIu64, 5 + client, width,
                id % span);
  return buf;
}

std::string HireCn(int client, uint64_t id) {
  return "Hire " + std::to_string(client) + "-" + std::to_string(id);
}

std::string HireDn(int client, uint64_t id) {
  return "cn=" + HireCn(client, id) + "," + kPeopleBase;
}

/// The lower-cased DNs of a SEARCH reply's entries.
std::vector<std::string> ReplyDns(const std::string& reply) {
  std::vector<std::string> dns;
  size_t pos = reply.find('\n');
  while (pos != std::string::npos && pos + 1 < reply.size()) {
    size_t next = reply.find('\n', pos + 1);
    std::string_view line(reply.data() + pos + 1,
                          (next == std::string::npos ? reply.size() : next) -
                              pos - 1);
    if (StartsWith(line, "dn: ")) {
      dns.push_back(ToLower(line.substr(4)));
    }
    pos = next;
  }
  std::sort(dns.begin(), dns.end());
  return dns;
}

std::string RoomModify(const std::string& dn, const std::string& room) {
  return "MODIFY\ndn: " + dn +
         "\nchangetype: modify\nreplace: roomNumber\nroomNumber: " + room +
         "\n-\n";
}

/// One wire operation: picks it, sends it, checks the reply.
struct WireOp {
  OpClass cls = kPoint;
  std::string request;
  // What the reply must show.
  std::vector<std::string> expect_dns;
  bool check_dns = false;
  // Bookkeeping applied once the reply is checked.
  size_t person = 0;
  std::string room;
  std::optional<Hire> added;
  bool deleted = false;
};

size_t OwnedPerson(Client& c, size_t population) {
  size_t slots = (population - static_cast<size_t>(c.index) + kClients - 1) /
                 kClients;
  return static_cast<size_t>(c.index) + kClients * c.rng.Uniform(slots);
}

WireOp NextLookupOp(Shared& s, Client& c) {
  const auto& people = *s.people;
  WireOp op;
  uint64_t roll = c.rng.Uniform(100);
  if (roll < 90) {
    const bench::Person& p = people[c.rng.Uniform(people.size())];
    op.cls = kPoint;
    op.request = std::string("SEARCH base: ") + kPeopleBase +
                 "\nscope: sub\nfilter: (telephoneNumber=" + kPhonePrefix +
                 p.extension + ")\n";
    op.expect_dns = {ToLower(p.dn)};
    op.check_dns = true;
  } else if (roll < 98) {
    const bench::Person& p = people[c.rng.Uniform(people.size())];
    std::string prefix = p.cn.substr(0, p.cn.find_last_of(' '));
    op.cls = kBrowse;
    op.request = std::string("SEARCH base: ") + kPeopleBase +
                 "\nscope: sub\nfilter: (cn=" + prefix + "*)\n";
    op.expect_dns = s.browse_sets.at(prefix);
    op.check_dns = true;
  } else {
    op.cls = kModify;
    op.person = OwnedPerson(c, people.size());
    op.room = "R" + std::to_string(c.index) + "-" +
              std::to_string(++c.room_seq);
    op.request = RoomModify(people[op.person].dn, op.room);
  }
  return op;
}

WireOp NextProvisionOp(Shared& s, Client& c) {
  const auto& people = *s.people;
  WireOp op;
  uint64_t roll = c.rng.Uniform(100);
  bool want_add = roll >= 50 && roll < 75;
  bool want_delete = roll >= 75;
  // Keep the population constant: an add with a full hire queue becomes
  // a delete, a delete with none becomes an add.
  if (want_add && c.hires.size() >= kMaxLiveHires) {
    want_add = false;
    want_delete = true;
  } else if (want_delete && c.hires.empty()) {
    want_delete = false;
    want_add = true;
  }
  if (want_add) {
    uint64_t id = c.next_hire++;
    std::string cn = HireCn(c.index, id);
    op.cls = kAdd;
    op.request = AddRequestText(cn, "Hire", HireExtension(s, c.index, id));
    op.added = Hire{id, HireDn(c.index, id)};
  } else if (want_delete) {
    op.cls = kDelete;
    op.request = "DELETE dn: " + c.hires.front().dn + "\n";
    op.deleted = true;
  } else {
    op.cls = kModify;
    op.person = OwnedPerson(c, people.size());
    op.room = "P" + std::to_string(c.index) + "-" +
              std::to_string(++c.room_seq);
    op.request = RoomModify(people[op.person].dn, op.room);
  }
  return op;
}

void RecordFailure(Client& c, const std::string& what) {
  if (c.first_error.empty()) c.first_error = what;
}

void RunWireClient(Shared& s, Client& c) {
  net::TcpClient& conn = *s.d->conns[c.index];
  Tracer* tracer = s.d->tracer.get();
  for (;;) {
    if (s.phase.load(std::memory_order_acquire) == kStopped) break;
    WireOp op = s.opt->workload == Workload::kLookup
                    ? NextLookupOp(s, c)
                    : NextProvisionOp(s, c);
    uint64_t seq = ++c.seq;
    if (tracer != nullptr) {
      tracer->current_seq[c.index].store(seq, std::memory_order_release);
    }
    int64_t begin = NowNanos();
    std::string reply = conn.Call(op.request);
    int64_t end = NowNanos();
    int window = s.phase.load(std::memory_order_acquire);

    bool ok = ResultCode(reply) == 0;
    if (ok && op.check_dns && ReplyDns(reply) != op.expect_dns) {
      ok = false;
      RecordFailure(c, "wrong result set for: " + op.request);
    } else if (!ok) {
      RecordFailure(c, op.request + " -> " + reply.substr(0, 200));
    }
    if (op.cls == kModify && ok) s.expected_room[op.person] = op.room;
    if (op.added.has_value() && ok) c.hires.push_back(*op.added);
    if (op.deleted) c.hires.pop_front();

    if (window < 0 || window >= static_cast<int>(c.windows.size())) {
      ++c.unmeasured_ops;
      if (!ok) ++c.unmeasured_failures;
    } else {
      WindowStats& w = c.windows[window];
      ++w.ops;
      if (ok) {
        w.latency[op.cls].Record(static_cast<uint64_t>(end - begin));
      } else {
        ++w.failed;
      }
      if (window == s.traced_window) {
        c.spans.push_back(ClientSpan{seq, op.cls, Interval{begin, end}});
      }
    }
  }
}

void RunTechnician(Shared& s, Client& c) {
  const auto& people = *s.people;
  DduSlot& slot = s.d->ddu_slots[c.index];
  devices::DefinityPbx* pbx = s.d->system->pbx("pbx1");
  // Each technician walks its own slice in a seeded order, so no
  // extension is re-targeted before the rest of the slice has been.
  std::vector<size_t> slice;
  for (size_t i = static_cast<size_t>(c.index); i < people.size();
       i += kClients) {
    slice.push_back(i);
  }
  for (size_t i = slice.size(); i > 1; --i) {
    std::swap(slice[i - 1], slice[c.rng.Uniform(i)]);
  }
  size_t cursor = 0;
  for (;;) {
    if (s.phase.load(std::memory_order_acquire) == kStopped) break;
    size_t person = slice[cursor++ % slice.size()];
    std::string room = "D" + std::to_string(c.index) + "-" +
                       std::to_string(++c.room_seq);
    {
      MutexLock lock(&slot.mu);
      slot.armed = true;
      slot.room = room;
      slot.dn_norm = ToLower(people[person].dn);
      slot.commit_nanos = 0;
    }
    std::string command =
        "change station " + people[person].extension + " Room " + room;
    int64_t cpu_begin = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
    int64_t begin = NowNanos();
    StatusOr<std::string> reply = pbx->ExecuteCommand(command);
    int64_t returned = NowNanos();
    s.generator_cpu.in_system[c.index].fetch_add(
        CpuNanos(CLOCK_THREAD_CPUTIME_ID) - cpu_begin,
        std::memory_order_relaxed);
    int64_t committed = 0;
    bool ok = reply.ok();
    {
      MutexLock lock(&slot.mu);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::nanoseconds(kDduDeadlineNanos);
      while (ok && slot.commit_nanos == 0) {
        if (!slot.cv.WaitUntil(lock, deadline) && slot.commit_nanos == 0) {
          break;
        }
      }
      committed = slot.commit_nanos;
      slot.armed = false;
    }
    if (!reply.ok()) {
      RecordFailure(c, "pbx1 refused: " + reply.status().ToString());
    } else if (committed == 0) {
      ok = false;
      RecordFailure(c, "DDU not converged in 2s: " + room);
    }
    if (ok) s.expected_room[person] = room;
    int window = s.phase.load(std::memory_order_acquire);
    if (window < 0 || window >= static_cast<int>(c.windows.size())) {
      ++c.unmeasured_ops;
      if (!ok) ++c.unmeasured_failures;
    } else {
      WindowStats& w = c.windows[window];
      ++w.ops;
      int64_t end = std::max(committed, returned);
      if (ok) {
        w.latency[kDdu].Record(static_cast<uint64_t>(end - begin));
      } else {
        ++w.failed;
      }
      if (window == s.traced_window && ok) {
        c.ddu_spans.push_back(
            DduSpan{Interval{begin, returned}, Interval{returned, end}});
      }
    }
  }
}

void InstallDduListener(Deployment& d) {
  std::array<DduSlot, kClients>* slots = &d.ddu_slots;
  d.system->server().backend().AddListener(
      [slots](const ldap::ChangeRecord& record) {
        if (!record.new_entry.has_value()) return;
        // Technicians write rooms "D<technician>-<n>"; skip the rest of
        // the commits cheaply.
        std::string room = record.new_entry->GetFirst("roomNumber");
        if (room.empty() || room[0] != 'D') return;
        int64_t now = NowNanos();
        for (DduSlot& slot : *slots) {
          MutexLock lock(&slot.mu);
          if (slot.armed && slot.commit_nanos == 0 && slot.room == room &&
              slot.dn_norm == ToLower(record.dn.ToString())) {
            slot.commit_nanos = now;
            slot.cv.NotifyAll();
          }
        }
      });
}

// ---------------------------------------------------------------------
// End-state audit

struct AuditResult {
  uint64_t mismatches = 0;
  uint64_t error_entries = 0;
  std::string first;
};

AuditResult AuditOnce(Shared& s, const std::vector<Client>& clients) {
  AuditResult out;
  core::MetaCommSystem& sys = *s.d->system;
  ldap::Backend& backend = sys.server().backend();
  devices::DefinityPbx* pbx = sys.pbx("pbx1");
  devices::MessagingPlatform* mp = sys.mp("mp1");
  auto miss = [&out](const std::string& what) {
    ++out.mismatches;
    if (out.first.empty()) out.first = what;
  };
  auto check_live = [&](const std::string& dn_text,
                        const std::string& extension,
                        const std::string& expected_room) {
    StatusOr<ldap::Dn> dn = ldap::Dn::Parse(dn_text);
    StatusOr<ldap::Entry> entry =
        dn.ok() ? backend.Get(*dn) : StatusOr<ldap::Entry>(dn.status());
    if (!entry.ok()) return miss("directory lacks " + dn_text);
    StatusOr<lexpress::Record> station = pbx->GetRecord(extension);
    if (!station.ok()) return miss("pbx1 lacks station " + extension);
    StatusOr<lexpress::Record> mailbox = mp->GetRecord(extension);
    if (!mailbox.ok()) return miss("mp1 lacks mailbox " + extension);
    std::string minted = mailbox->GetFirst("SubscriberId");
    if (minted.empty() || entry->GetFirst("MpSubscriberId") != minted) {
      return miss("subscriber id of " + dn_text + ": directory '" +
                  entry->GetFirst("MpSubscriberId") + "' vs mp1 '" +
                  minted + "'");
    }
    if (!expected_room.empty() &&
        (entry->GetFirst("roomNumber") != expected_room ||
         station->GetFirst("Room") != expected_room)) {
      return miss("room of " + dn_text + ": expected " + expected_room +
                  ", directory '" + entry->GetFirst("roomNumber") +
                  "', pbx1 '" + station->GetFirst("Room") + "'");
    }
  };

  const auto& people = *s.people;
  for (size_t i = 0; i < people.size(); ++i) {
    check_live(people[i].dn, people[i].extension, s.expected_room[i]);
  }
  for (const Client& c : clients) {
    std::set<uint64_t> live;
    for (const Hire& h : c.hires) {
      live.insert(h.id);
      check_live(h.dn, HireExtension(s, c.index, h.id), "");
    }
    std::set<std::string> live_extensions;
    for (uint64_t id : live) {
      live_extensions.insert(HireExtension(s, c.index, id));
    }
    for (uint64_t id = 0; id < c.next_hire; ++id) {
      if (live.count(id) != 0) continue;
      StatusOr<ldap::Dn> dn = ldap::Dn::Parse(HireDn(c.index, id));
      if (dn.ok() && backend.Exists(*dn)) {
        miss("departed hire still in directory: " + HireDn(c.index, id));
      }
      std::string ext = HireExtension(s, c.index, id);
      if (live_extensions.count(ext) != 0) continue;
      if (pbx->GetRecord(ext).ok()) miss("departed station on pbx1: " + ext);
      if (mp->GetRecord(ext).ok()) miss("departed mailbox on mp1: " + ext);
    }
  }

  StatusOr<ldap::Dn> errors_base = ldap::Dn::Parse(sys.config().errors_base);
  StatusOr<ldap::SearchResult> logged = errors_base.status();
  if (errors_base.ok()) {
    ldap::SearchRequest errors;
    errors.base = *errors_base;
    errors.scope = ldap::Scope::kOneLevel;
    logged = backend.Search(errors);
  }
  out.error_entries = logged.ok() ? logged->entries.size() : 1;
  if (out.error_entries != 0 && out.first.empty()) {
    out.first = "cn=errors,o=Lucent holds " +
                std::to_string(out.error_entries) + " entries";
  }
  return out;
}

/// Polls the audit until it passes or the deadline expires: the UM may
/// still be reapplying DDUs to the devices when the clients stop.
AuditResult Audit(Shared& s, const std::vector<Client>& clients) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    AuditResult result = AuditOnce(s, clients);
    bool clean = result.mismatches == 0 && result.error_entries == 0;
    if (clean || std::chrono::steady_clock::now() >= deadline) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ---------------------------------------------------------------------
// lexpress.plan_us: UpdateManager::PlanUpdate over a fixed sample of the
// workload's own update shapes, timed after the window.

double MeasurePlanMicros(Shared& s) {
  core::MetaCommSystem& sys = *s.d->system;
  ldap::Backend& backend = sys.server().backend();
  const auto& people = *s.people;
  std::vector<std::pair<lexpress::UpdateDescriptor, bool>> sample;
  auto record_of = [&](const std::string& dn_text)
      -> std::optional<lexpress::Record> {
    StatusOr<ldap::Dn> dn = ldap::Dn::Parse(dn_text);
    if (!dn.ok()) return std::nullopt;
    StatusOr<ldap::Entry> entry = backend.Get(*dn);
    if (!entry.ok()) return std::nullopt;
    return sys.ldap_filter().ToRecord(*entry);
  };
  for (size_t k = 0; k < 64 && k < people.size(); ++k) {
    size_t i = (k * 7919) % people.size();
    std::optional<lexpress::Record> old = record_of(people[i].dn);
    if (!old.has_value()) continue;
    lexpress::UpdateDescriptor modify;
    modify.op = lexpress::DescriptorOp::kModify;
    modify.schema = "ldap";
    modify.old_record = *old;
    modify.new_record = *old;
    modify.new_record.SetOne("roomNumber", "PLAN-" + std::to_string(k));
    modify.explicit_attrs.insert("roomNumber");
    bool ddu = s.opt->workload == Workload::kDdu;
    modify.source = ddu ? "pbx1" : "ldap";
    modify.new_record.SetOne(core::kLastUpdaterAttr, modify.source);
    sample.emplace_back(modify, !ddu);
    if (s.opt->workload == Workload::kProvision && k % 2 == 0) {
      lexpress::UpdateDescriptor add;
      add.op = lexpress::DescriptorOp::kAdd;
      add.schema = "ldap";
      add.source = "ldap";
      add.new_record.set_schema("ldap");
      add.new_record.SetOne("cn", HireCn(0, 1'000'000 + k));
      add.new_record.SetOne("sn", "Hire");
      add.new_record.SetOne("telephoneNumber",
                            kPhonePrefix + HireExtension(s, 0, k));
      add.new_record.SetOne(core::kLastUpdaterAttr, "ldap");
      add.explicit_attrs = {"cn", "sn", "telephoneNumber"};
      sample.emplace_back(add, true);
      lexpress::UpdateDescriptor remove;
      remove.op = lexpress::DescriptorOp::kDelete;
      remove.schema = "ldap";
      remove.source = "ldap";
      remove.old_record = *old;
      sample.emplace_back(remove, true);
    }
  }
  if (sample.empty()) return 0.0;
  constexpr int kRounds = 20;
  int64_t begin = NowNanos();
  for (int r = 0; r < kRounds; ++r) {
    for (const auto& [update, current] : sample) {
      StatusOr<core::UpdatePlan> plan =
          sys.update_manager().PlanUpdate(update, current);
      if (!plan.ok()) return -1.0;
    }
  }
  return static_cast<double>(NowNanos() - begin) / 1e3 /
         static_cast<double>(kRounds * sample.size());
}

// ---------------------------------------------------------------------
// Reporting

double Micros(double nanos) { return nanos / 1e3; }

/// Adds the clients' stats of `window` into `into`.
void MergeWindow(const std::vector<Client>& clients, int window,
                 WindowStats* into) {
  for (const Client& c : clients) {
    const WindowStats& w = c.windows[window];
    for (int k = 0; k < kClassCount; ++k) into->latency[k].Merge(w.latency[k]);
    into->ops += w.ops;
    into->failed += w.failed;
  }
}

Histogram MergeClasses(const WindowStats& w,
                       std::initializer_list<OpClass> classes) {
  Histogram h;
  for (OpClass k : classes) h.Merge(w.latency[k]);
  return h;
}

Histogram MergeAll(const WindowStats& w) {
  return MergeClasses(w, {kPoint, kBrowse, kModify, kAdd, kDelete, kDdu});
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void PrintLatency(const std::string& prefix, const Histogram& h,
                  const char* why, bool p99) {
  if (h.count() == 0) {
    PrintMissing(prefix + "_p50_us", "us", why);
    PrintMissing(prefix + "_p90_us", "us", why);
    if (p99) PrintMissing(prefix + "_p99_us", "us", why);
    return;
  }
  PrintMetric(prefix + "_p50_us", Micros(h.PercentileNanos(0.50)), "us");
  PrintMetric(prefix + "_p90_us", Micros(h.PercentileNanos(0.90)), "us");
  if (p99) {
    PrintMetric(prefix + "_p99_us", Micros(h.PercentileNanos(0.99)), "us");
  }
}

void PrintEndToEnd(const WindowStats& w, const CounterDeltas& c,
                   double setup_s, double peak_rss_mib, uint64_t attempted,
                   uint64_t failed) {
  PrintMetric("setup_s", setup_s, "s");
  PrintMetric("ops_s", static_cast<double>(w.ops) / c.seconds, "ops/s");
  Histogram all = MergeAll(w);
  PrintMetric("op_p50_us", Micros(all.PercentileNanos(0.50)), "us");
  PrintMetric("op_p90_us", Micros(all.PercentileNanos(0.90)), "us");
  PrintLatency("search", MergeClasses(w, {kPoint, kBrowse}),
               "no searches in this workload", false);
  PrintLatency("write", MergeClasses(w, {kModify, kAdd, kDelete}),
               "no wire writes in this workload", false);
  PrintLatency("ddu", w.latency[kDdu], "no DDUs in this workload", false);
  PrintRatio("cpu_us_per_op", Micros(c.server_cpu_nanos),
             static_cast<double>(w.ops), "us", "no operations");
  PrintMetric("rss_mb", peak_rss_mib, "MiB");
  PrintRatio("failed_share", static_cast<double>(failed),
             static_cast<double>(attempted), "ratio", "no operations");
}

void PrintLayerCounters(const WindowStats& w, const CounterDeltas& c,
                        double plan_us, uint64_t wal_bytes,
                        double space_per_live_byte) {
  double ops = static_cast<double>(w.ops);
  double updates = 0;
  for (OpClass k : {kModify, kAdd, kDelete, kDdu}) {
    updates += static_cast<double>(w.latency[k].count());
  }
  double adds = static_cast<double>(w.latency[kAdd].count());
  double ddus = static_cast<double>(w.latency[kDdu].count());

  PrintRatio("net.bytes_per_request", c.net_bytes, c.net_requests, "B",
             "no wire requests");
  PrintMetric("net.shed_busy", c.net_shed_busy, "count");
  PrintRatio("ldap.candidates_per_search", c.candidates_examined, c.searches,
             "count", "no backend searches");
  PrintRatio("ldap.candidate_hit_ratio", c.candidates_matched,
             c.candidates_examined, "ratio", "no candidates examined");
  PrintMetric("ldap.scan_plans", c.scan_plans, "count");
  PrintRatio("ldap.commits_per_update", c.changes, updates, "count",
             "no updates");
  PrintRatio("ltap.triggers_per_update", c.triggers_fired, c.gateway_updates,
             "count", "no gateway updates");
  PrintRatio("core.queue_wait_us", c.queue_wait_micros, c.dequeued, "us",
             "no UM items");
  PrintMetric("core.max_queue_depth", static_cast<double>(c.max_queue_depth),
              "count");
  PrintRatio("core.batch_size", c.dequeued, c.batches, "count",
             "no UM batches");
  PrintRatio("core.coalesced_share", c.coalesced, c.dequeued, "ratio",
             "no UM items");
  PrintRatio("core.device_applies_per_update", c.device_applies, updates,
             "count", "no updates");
  PrintRatio("core.reapplies_per_ddu", c.reapplications, ddus, "count",
             "no DDUs in this workload");
  PrintRatio("core.backfills_per_add", c.generated_info, adds, "count",
             "no ADDs in this workload");
  PrintMetric("core.lock_retries", c.lock_retries, "count");
  PrintMetric("core.errors", c.um_errors, "count");
  if (plan_us < 0) {
    PrintMissing("lexpress.plan_us", "us", "PlanUpdate failed");
  } else {
    PrintMetric("lexpress.plan_us", plan_us, "us");
  }
  PrintRatio("lexpress.closure_iterations_per_update", c.closure_iterations,
             updates, "count", "no updates");
  PrintRatio("devices.commands_per_update", c.device_mutations, updates,
             "count", "no updates");
  PrintRatio("devices.round_trips_per_update", c.round_trips, updates,
             "count", "no updates");
  PrintRatio("storage.wal_records_per_update", c.wal_records, updates,
             "count", "no updates");
  PrintRatio("storage.wal_bytes_per_update", static_cast<double>(wal_bytes),
             updates, "B", "no updates");
  PrintMetric("storage.checkpoints", c.checkpoints, "count");
  PrintMetric("storage.space_per_live_byte", space_per_live_byte, "ratio");
  PrintRatio("proc.ctx_switches_per_op", c.ctx_switches, ops, "count",
             "no operations");
}

/// Spans of every traced window the run measured, kept until exit.
struct SpanLog {
  struct Call {
    int deployment = 0;
    int client = 0;
    ClientSpan span;
  };
  std::vector<Call> calls;
  std::vector<std::pair<int, ServerSpan>> server;  // (deployment, span)
  std::vector<DduSpan> ddus;
  std::vector<SetupPhases> setups;
};

/// Moves one deployment's traced spans into `log`.
void CollectSpans(int deployment, std::vector<Client>& clients, Deployment& d,
                  SpanLog* log) {
  for (Client& c : clients) {
    for (const ClientSpan& span : c.spans) {
      log->calls.push_back(SpanLog::Call{deployment, c.index, span});
    }
    log->ddus.insert(log->ddus.end(), c.ddu_spans.begin(), c.ddu_spans.end());
  }
  if (d.tracer == nullptr) return;
  MutexLock lock(&d.tracer->mu);
  for (const auto& session : d.tracer->sessions) {
    MutexLock session_lock(&session->mu);
    for (const ServerSpan& span : session->spans) {
      if (span.client >= 0) log->server.emplace_back(deployment, span);
    }
  }
}

/// One class's traced requests: client-observed latency, and the self
/// time of each layer on the class's path.
struct ClassTrace {
  Histogram client;
  std::vector<std::pair<std::string, Histogram>> layers;
};

/// Per-class span accounting of the traced window: mean and p50 self
/// time per layer, their sum against the mean client-observed latency,
/// and the overhead against the untraced window.
void PrintTraceBreakdown(const SpanLog& log, const WindowStats& untraced,
                         const WindowStats& traced) {
  // Server spans by (deployment, client, seq).
  auto key = [](int deployment, int client, uint64_t seq) {
    return (static_cast<uint64_t>(deployment) << 56) |
           (static_cast<uint64_t>(client) << 48) | seq;
  };
  std::unordered_map<uint64_t, const ServerSpan*> server;
  for (const auto& [deployment, span] : log.server) {
    server[key(deployment, span.client, span.seq)] = &span;
  }

  static constexpr std::array<const char*, 3> kWireLayers = {
      "net.self", "ldap.handler_self", "ltap.op"};
  static constexpr std::array<const char*, 3> kDduLayers = {
      "devices.terminal", "core.converge", "ddu.self"};
  std::array<ClassTrace, kClassCount> per_class;
  for (int k = 0; k < kClassCount; ++k) {
    for (const char* layer : k == kDdu ? kDduLayers : kWireLayers) {
      per_class[k].layers.emplace_back(layer, Histogram());
    }
  }
  auto add = [](ClassTrace& t, Interval root,
                std::initializer_list<int64_t> selves) {
    t.client.Record(static_cast<uint64_t>(root.duration()));
    size_t i = 0;
    for (int64_t self : selves) {
      t.layers[i++].second.Record(static_cast<uint64_t>(self));
    }
  };
  uint64_t unmatched = 0;
  for (const SpanLog::Call& call : log.calls) {
    auto it = server.find(key(call.deployment, call.client, call.span.seq));
    if (it == server.end()) {
      ++unmatched;
      continue;
    }
    const ServerSpan& sv = *it->second;
    std::vector<Interval> ltap;
    if (sv.ltap.end > 0) ltap.push_back(sv.ltap);
    add(per_class[call.span.cls], call.span.call,
        {SelfTime(call.span.call, {sv.handle}), SelfTime(sv.handle, ltap),
         sv.ltap.duration()});
  }
  for (const DduSpan& span : log.ddus) {
    Interval root{span.command.begin, span.converge.end};
    add(per_class[kDdu], root,
        {span.command.duration(), span.converge.duration(),
         SelfTime(root, {span.command, span.converge})});
  }

  PrintMetric("trace.unmatched_spans", static_cast<double>(unmatched),
              "count");
  Histogram all_client;
  for (int k = 0; k < kClassCount; ++k) {
    const ClassTrace& t = per_class[k];
    if (t.client.count() == 0) continue;
    std::string prefix = std::string("trace.") + kClassNames[k];
    PrintMetric(prefix + ".requests", static_cast<double>(t.client.count()),
                "count");
    PrintMetric(prefix + ".client_mean_us", Micros(t.client.MeanNanos()),
                "us");
    PrintMetric(prefix + ".client_p50_us",
                Micros(t.client.PercentileNanos(0.5)), "us");
    double self_sum = 0;
    for (const auto& [layer, self] : t.layers) {
      PrintMetric(prefix + "." + layer + "_mean_us",
                  Micros(self.MeanNanos()), "us");
      PrintMetric(prefix + "." + layer + "_p50_us",
                  Micros(self.PercentileNanos(0.5)), "us");
      self_sum += self.MeanNanos();
    }
    PrintMetric(prefix + ".self_sum_mean_us", Micros(self_sum), "us");
    double untraced_p50 = untraced.latency[k].PercentileNanos(0.5);
    if (untraced_p50 > 0) {
      PrintMetric(prefix + ".overhead_share",
                  traced.latency[k].PercentileNanos(0.5) / untraced_p50 - 1.0,
                  "ratio");
    }
    all_client.Merge(t.client);
  }

  // A layer's self time merged over the given classes.
  auto layer_of = [&](std::initializer_list<OpClass> classes,
                      const std::string& name) {
    Histogram merged;
    for (OpClass k : classes) {
      for (const auto& [layer, self] : per_class[k].layers) {
        if (layer == name) merged.Merge(self);
      }
    }
    return merged;
  };
  // The per-layer metrics proper: means over every request that passed
  // through the layer.
  auto print_mean = [&](const std::string& name,
                        std::initializer_list<OpClass> classes,
                        const char* layer, const char* why) {
    Histogram merged = layer_of(classes, layer);
    if (merged.count() > 0) {
      PrintMetric(name, Micros(merged.MeanNanos()), "us");
    } else {
      PrintMissing(name, "us", why);
    }
  };
  const char* kNoWire = "bypassed: no wire requests in this workload";
  print_mean("net.self_us", {kPoint, kBrowse, kModify, kAdd, kDelete},
             "net.self", kNoWire);
  print_mean("ldap.handler_self_us",
             {kPoint, kBrowse, kModify, kAdd, kDelete}, "ldap.handler_self",
             kNoWire);
  print_mean("ldap.search_point_us", {kPoint}, "ltap.op",
             "no point lookups in this workload");
  print_mean("ldap.search_browse_us", {kBrowse}, "ltap.op",
             "no browses in this workload");
  print_mean("ltap.add_us", {kAdd}, "ltap.op", "no ADDs in this workload");
  print_mean("ltap.modify_us", {kModify}, "ltap.op",
             "no MODIFYs in this workload");
  print_mean("ltap.delete_us", {kDelete}, "ltap.op",
             "no DELETEs in this workload");
  print_mean("core.converge_us", {kDdu}, "core.converge",
             "bypassed: no DDUs in this workload");
  print_mean("devices.terminal_us", {kDdu}, "devices.terminal",
             "bypassed: no DDUs in this workload");

  if (all_client.count() > 0) {
    PrintMetric("trace.client_us", Micros(all_client.MeanNanos()), "us");
  } else {
    PrintMissing("trace.client_us", "us", "no traced requests");
  }
  // Each layer's share of the client-observed time, over every traced
  // request: defined on every workload (0 where the workload bypasses
  // the layer), and with trace.client_us it gives the layer's time.
  for (const char* layer : {"net.self", "ldap.handler_self", "ltap.op",
                            "devices.terminal", "core.converge"}) {
    Histogram merged =
        layer_of({kPoint, kBrowse, kModify, kAdd, kDelete, kDdu}, layer);
    PrintRatio(std::string(layer) + "_share",
               static_cast<double>(merged.SumNanos()),
               static_cast<double>(all_client.SumNanos()), "ratio",
               "no traced requests");
  }
  Histogram untraced_all = MergeAll(untraced);
  Histogram traced_all = MergeAll(traced);
  if (untraced_all.count() > 0 && traced_all.count() > 0) {
    PrintMetric("trace.overhead_share",
                traced_all.PercentileNanos(0.5) /
                        untraced_all.PercentileNanos(0.5) -
                    1.0,
                "ratio");
  } else {
    PrintMissing("trace.overhead_share", "ratio", "no operations");
  }
  PrintLatency("search", MergeClasses(traced, {kPoint, kBrowse}),
               "no searches in this workload", true);
  PrintLatency("write", MergeClasses(traced, {kModify, kAdd, kDelete}),
               "no wire writes in this workload", true);
  PrintLatency("ddu", traced.latency[kDdu], "no DDUs in this workload", true);
}

void WriteSpanFile(const std::string& path, const SpanLog& log) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "# span\tdeployment\tclient\tseq\tclass\tbegin_ns\tend_ns\n");
  auto line = [out](const char* span, int deployment, int client,
                    uint64_t seq, const char* cls, Interval i) {
    std::fprintf(out, "%s\t%d\t%d\t%" PRIu64 "\t%s\t%" PRId64 "\t%" PRId64
                      "\n",
                 span, deployment, client, seq, cls, i.begin, i.end);
  };
  for (size_t i = 0; i < log.setups.size(); ++i) {
    const SetupPhases& p = log.setups[i];
    int d = static_cast<int>(i);
    line("setup", d, -1, 0, "-", p.total());
    line("setup.create", d, -1, 0, "-", p.create);
    line("setup.serve", d, -1, 0, "-", p.serve);
    line("setup.provision", d, -1, 0, "-", p.provision);
  }
  for (const SpanLog::Call& call : log.calls) {
    line("client.call", call.deployment, call.client, call.span.seq,
         kClassNames[call.span.cls], call.span.call);
  }
  for (const auto& [deployment, span] : log.server) {
    line("server.handle", deployment, span.client, span.seq, "-",
         span.handle);
    if (span.ltap.end > 0) {
      line("ltap.op", deployment, span.client, span.seq, "-", span.ltap);
    }
  }
  uint64_t n = 0;
  for (const DduSpan& span : log.ddus) {
    ++n;
    line("device.command", -1, -1, n, "ddu", span.command);
    line("core.converge", -1, -1, n, "ddu", span.converge);
  }
  std::fclose(out);
}

/// Each deployment of a run serves an equal slice of the window.
/// Sampling the host at several points of the run evens out the slow
/// swings in steal that one contiguous window would inherit whole.
int64_t SliceMs(const Options& opt) {
  return std::max<int64_t>(opt.window_ms / kSetups, 1);
}

/// Everything a run measures, pooled over its deployments.
struct RunTotals {
  explicit RunTotals(int windows) : stats(windows), deltas(windows) {}
  std::vector<WindowStats> stats;     // Per window.
  std::vector<CounterDeltas> deltas;  // Per window.
  std::vector<double> peak_rss_mib;   // Each slice's peak.
  /// Operations outside the windows.
  uint64_t unmeasured_ops = 0;
  /// Audit mismatches, error entries, UM errors and failed operations
  /// outside the windows.
  uint64_t run_failures = 0;
  uint64_t wal_bytes = 0;       // Traced window.
  double space_per_live_byte = 0;  // Last deployment, traced.
  double plan_us = 0;              // Last deployment, traced.
  SpanLog spans;
};

/// Drives deployment `index` through its windows, audits its end state
/// and adds what it measured to `totals`.
void Measure(const Options& opt, int index, Deployment& d,
             const std::vector<bench::Person>& people,
             const std::map<std::string, std::vector<std::string>>& browse,
             RunTotals* totals) {
  int windows = static_cast<int>(totals->stats.size());
  Shared s;
  s.opt = &opt;
  s.d = &d;
  s.people = &people;
  s.browse_sets = browse;
  s.expected_room.assign(people.size(), "");
  s.extension_digits = bench::ExtensionDigits(people.size());
  s.traced_window = opt.trace ? windows - 1 : -1;
  if (opt.workload == Workload::kProvision) {
    d.system->pbx("pbx1")->latency().set_rtt_micros(kProvisionRttMicros);
    d.system->mp("mp1")->latency().set_rtt_micros(kProvisionRttMicros);
  }
  if (opt.workload == Workload::kDdu) InstallDduListener(d);

  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[c].index = c;
    clients[c].rng = Random(opt.seed * 1'000'003 +
                            static_cast<uint64_t>(index * kClients + c));
    clients[c].windows.resize(windows);
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&s, &clients, c] {
      if (s.opt->workload == Workload::kDdu) {
        RunTechnician(s, clients[c]);
      } else {
        RunWireClient(s, clients[c]);
      }
    });
    clockid_t clock;
    if (pthread_getcpuclockid(threads.back().native_handle(), &clock) == 0) {
      s.generator_cpu.clocks.push_back(clock);
    }
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  std::unique_ptr<SlicePoller> poller;
  Counters first;
  for (int w = 0; w < windows; ++w) {
    if (w == s.traced_window) {
      poller = std::make_unique<SlicePoller>(d.data_dir,
                                             &d.system->update_manager());
      poller->Start();
      d.tracer->recording.store(true);
    }
    ResetPeakRss();
    Counters before = Sample(d, s.generator_cpu);
    if (w == 0) first = before;
    s.phase.store(w, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(SliceMs(opt)));
    // Operations completing between windows count in neither.
    s.phase.store(w + 1 < windows ? kUnmeasured : kStopped,
                  std::memory_order_release);
    totals->deltas[w].Add(before, Sample(d, s.generator_cpu));
    totals->peak_rss_mib.push_back(ReadPeakRssMiB());
    if (w == s.traced_window) {
      d.tracer->recording.store(false);
      poller->Stop();
      totals->wal_bytes += poller->wal_bytes();
      totals->deltas[w].max_queue_depth = std::max(
          totals->deltas[w].max_queue_depth, poller->max_queue_depth());
    }
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < windows; ++w) {
    MergeWindow(clients, w, &totals->stats[w]);
  }

  AuditResult audit = Audit(s, clients);
  uint64_t um_errors =
      d.system->update_manager().stats().errors - first.um.errors;
  totals->run_failures += audit.mismatches + audit.error_entries + um_errors;
  for (const Client& c : clients) {
    totals->unmeasured_ops += c.unmeasured_ops;
    totals->run_failures += c.unmeasured_failures;
    if (!c.first_error.empty()) {
      std::fprintf(stderr, "servebench: deployment %d client %d: %s\n",
                   index, c.index, c.first_error.c_str());
    }
  }
  if (!audit.first.empty()) {
    std::fprintf(stderr,
                 "servebench: deployment %d audit: %s (%" PRIu64
                 " mismatches, %" PRIu64 " error entries)\n",
                 index, audit.first.c_str(), audit.mismatches,
                 audit.error_entries);
  }
  if (um_errors != 0) {
    std::fprintf(stderr, "servebench: deployment %d: %" PRIu64
                         " UM errors logged\n",
                 index, um_errors);
  }
  if (opt.trace) {
    uint64_t live_ldif =
        ldap::ToLdif(d.system->server().backend().DumpAll()).size();
    totals->space_per_live_byte =
        live_ldif > 0 ? static_cast<double>(DirectoryBytes(d.data_dir)) /
                            static_cast<double>(live_ldif)
                      : 0.0;
    totals->plan_us = MeasurePlanMicros(s);
    CollectSpans(index, clients, d, &totals->spans);
  }
}

int Run(const Options& opt) {
  bench::WorkloadGenerator gen(opt.seed);
  std::vector<bench::Person> people = gen.People(opt.population);
  std::map<std::string, std::vector<std::string>> browse;
  for (const bench::Person& p : people) {
    browse[p.cn.substr(0, p.cn.find_last_of(' '))].push_back(ToLower(p.dn));
  }
  for (auto& [prefix, dns] : browse) std::sort(dns.begin(), dns.end());

  std::printf("record workload=%s seed=%" PRIu64 " trace=%d\n",
              WorkloadName(opt.workload), opt.seed, opt.trace);
#if METACOMM_LOCKDEP
  const char* lockdep = "on";
#else
  const char* lockdep = "off";
#endif
  std::error_code ec;
  fs::create_directories(opt.data_root, ec);
  std::printf(
      "record build_type=%s lockdep=%s commit=%s nproc=%ld\n"
      "record storage=%s wal_fsync=batch checkpoint_interval_ms=%" PRId64
      "\n"
      "record population=%zu clients=%d device_rtt_us=%" PRId64
      " window_s=%.3f warmup_s=%.3f setups=%d\n",
      SERVEBENCH_BUILD_TYPE, lockdep, opt.commit.c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), StorageMedium(opt.data_root).c_str(),
      CheckpointIntervalMicros(opt) / 1000, opt.population, kClients,
      opt.workload == Workload::kProvision ? kProvisionRttMicros : 0,
      static_cast<double>(opt.window_ms) / 1e3,
      static_cast<double>(kWarmupMs) / 1e3, kSetups);
  std::fflush(stdout);

  int windows = opt.trace ? 2 : 1;
  RunTotals totals(windows);
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    if (d != nullptr) {
      d.reset();
      // Hand the torn-down deployment's memory back, so that the next
      // one starts from the RSS a fresh process would have.
      malloc_trim(0);
    }
    SetupPhases phases;
    d = SetUp(opt, i, people, &phases);
    if (d == nullptr) return 1;
    totals.spans.setups.push_back(phases);
    Measure(opt, i, *d, people, browse, &totals);
  }
  d.reset();

  const std::vector<SetupPhases>& setups = totals.spans.setups;
  const WindowStats& measured = totals.stats[windows - 1];
  const CounterDeltas& counters = totals.deltas[windows - 1];
  // Every window's operations and failures count, the untraced slices
  // of a traced run too.
  uint64_t attempted = totals.unmeasured_ops;
  uint64_t failed = totals.run_failures;
  for (const WindowStats& w : totals.stats) {
    attempted += w.ops;
    failed += w.failed;
  }
  std::printf("record steal_share=%.4f busy_share=%.4f\n",
              counters.steal_share(), counters.busy_share());
  auto median_of = [&setups](Interval SetupPhases::*phase) {
    std::vector<double> values;
    for (const SetupPhases& p : setups) {
      values.push_back(SetupPhases::Seconds(p.*phase));
    }
    return Median(values);
  };
  std::vector<double> totals_s;
  for (const SetupPhases& p : setups) {
    totals_s.push_back(SetupPhases::Seconds(p.total()));
  }
  if (opt.trace) {
    PrintLayerCounters(measured, counters, totals.plan_us, totals.wal_bytes,
                       totals.space_per_live_byte);
    PrintMetric("setup.create_s", median_of(&SetupPhases::create), "s");
    PrintMetric("setup.serve_s", median_of(&SetupPhases::serve), "s");
    PrintMetric("setup.provision_s", median_of(&SetupPhases::provision), "s");
    PrintMetric("host.steal_share", counters.steal_share(), "ratio");
    PrintTraceBreakdown(totals.spans, totals.stats[0], measured);
    if (!opt.span_file.empty()) WriteSpanFile(opt.span_file, totals.spans);
  } else {
    PrintEndToEnd(measured, counters, Median(totals_s),
                  Median(totals.peak_rss_mib), attempted, failed);
  }

  std::printf("result correct=%d attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              failed == 0 && measured.ops > 0 ? 1 : 0, attempted, failed);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace metacomm::servebench

int main(int argc, char** argv) {
  using metacomm::servebench::Options;
  using metacomm::servebench::Workload;
  Options opt;
  std::string workload = "lookup";
  metacomm::tools::FlagSet flags(
      "MetaComm served-system benchmark (see servebench/README.md)");
  flags.Text("workload", &workload, "lookup | provision | ddu");
  flags.Numeric("seed", &opt.seed, "workload seed");
  flags.Numeric("window-ms", &opt.window_ms, "measured window");
  flags.Numeric("trace", &opt.trace, "1: traced run (per-layer metrics)");
  flags.Numeric("population", &opt.population, "people provisioned");
  flags.Text("data-root", &opt.data_root, "where data dirs are created");
  flags.Text("commit", &opt.commit, "source revision, for the run record");
  flags.Text("span-file", &opt.span_file, "traced run: write spans here");
  if (!flags.Parse(argc, argv)) return 2;
  std::optional<Workload> parsed =
      metacomm::servebench::ParseWorkload(workload);
  if (!parsed.has_value() || opt.window_ms <= 0 || opt.population < 8) {
    std::fprintf(stderr, "servebench: bad arguments\n");
    return 2;
  }
  opt.workload = *parsed;
  return metacomm::servebench::Run(opt);
}
