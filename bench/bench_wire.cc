// End-to-end wire benchmarks: the full MetaComm deployment (LDAP
// server + LTAP gateway + threaded Update Manager + device filters)
// behind the epoll TcpServer, reached over real loopback sockets by
// in-process TcpClients. This is the socket-level counterpart of
// bench_gateway_vs_library: the WBA admin storm and the interactive
// Search mix pay real framing, syscalls and loopback RTTs.
//
// The load is closed-loop: kDriverThreads threads each issue one
// request at a time and wait for its reply, so at most kDriverThreads
// requests are in flight however many connections are open. The
// argument (100 or 1000) is the number of open persistent
// connections the drivers rotate over, which exercises the server's
// connection bookkeeping, not its concurrency. Each point reports
// `connections` and `in_flight` side by side.
//
// BM_WireAdminStorm reports end-to-end admin items/sec; BM_WireSearch
// reports Search p50/p99 over the wire.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_main.h"
#include "bench/workload.h"
#include "common/strings.h"
#include "core/metacomm.h"
#include "ldap/text_protocol.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"

namespace metacomm::bench {
namespace {

using ldap::TextProtocolHandler;

constexpr size_t kPopulation = 1000;
// Ops issued per timed iteration, spread over the worker threads.
constexpr size_t kWaveOps = 256;
// Closed-loop driver threads, one request each in flight at a time.
constexpr int kDriverThreads = 4;

/// One live wire deployment: populated system, TcpServer on an
/// ephemeral port, and `conns` persistent client connections. Cached
/// per connection count so the storm and search benches at the same
/// scale share the (expensive) setup.
struct Wire {
  std::unique_ptr<core::MetaCommSystem> system;
  std::unique_ptr<net::TcpServer> server;
  std::vector<std::unique_ptr<net::TcpClient>> conns;
  // Fresh admin ids; unique per deployment so ADDed extensions never
  // collide within one directory.
  std::atomic<uint64_t> next_id{0};
};

Wire* GetWire(size_t conns) {
  static std::map<size_t, std::unique_ptr<Wire>> cache;
  auto it = cache.find(conns);
  if (it != cache.end()) return it->second.get();

  auto wire = std::make_unique<Wire>();
  core::SystemConfig config = ConfigForPopulation(kPopulation);
  config.um.threaded = true;
  config.um.worker_threads = 2;
  config.um.max_batch_size = 16;
  WorkloadGenerator gen(17);
  wire->system =
      BuildPopulatedSystem(gen.People(kPopulation), std::move(config));

  net::TcpServerConfig server_config;
  server_config.listen_port = 0;
  server_config.io_threads = 2;
  server_config.max_connections = conns + 64;
  server_config.busy_reply = ldap::BusyReply();
  server_config.error_reply = ldap::FramingErrorReply();
  ldap::LdapService* gateway = &wire->system->gateway();
  wire->server = std::make_unique<net::TcpServer>(
      std::move(server_config), [gateway] {
        auto session = std::make_shared<TextProtocolHandler>(gateway);
        return [session](const std::string& request) {
          return session->Handle(request);
        };
      });
  Status status = wire->server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "bench_wire: cannot serve: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  for (size_t i = 0; i < conns; ++i) {
    auto client = std::make_unique<net::TcpClient>();
    status = client->Connect("127.0.0.1", wire->server->port());
    if (!status.ok()) {
      std::fprintf(stderr, "bench_wire: connect %zu failed: %s\n", i,
                   status.ToString().c_str());
      std::abort();
    }
    wire->conns.push_back(std::move(client));
  }
  Wire* raw = wire.get();
  cache[conns] = std::move(wire);
  return raw;
}

/// The population holds extensions 4000-4999; storm ADDs take
/// 5000-9999, and once those are exhausted the storm churns its own
/// entries with MODIFYs (the WBA's day-2 admin traffic).
constexpr uint64_t kStormIds = 5000;

std::string AdminRequest(uint64_t id, uint64_t seq) {
  if (id < kStormIds) {
    std::string ext = std::to_string(5000 + id);
    std::string cn = "Storm " + std::to_string(id);
    return "ADD\ndn: cn=" + cn +
           ",ou=People,o=Lucent\n"
           "objectClass: top\nobjectClass: person\n"
           "objectClass: organizationalPerson\n"
           "objectClass: inetOrgPerson\ncn: " +
           cn + "\nsn: Storm\ntelephoneNumber: +1 908 582 " + ext + "\n";
  }
  std::string cn = "Storm " + std::to_string(id % kStormIds);
  return "MODIFY\ndn: cn=" + cn +
         ",ou=People,o=Lucent\nchangetype: modify\n"
         "replace: description\ndescription: storm-" +
         std::to_string(seq) + "\n-\n";
}

double LatencyPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

/// Drives one wave of `kWaveOps` requests across the driver threads;
/// each thread owns a disjoint slice of the connections and
/// round-robins over it (per-thread `seq` persists across waves so
/// every connection stays in rotation). `make_request(thread, seq)`
/// builds the payload; replies not matching `expect_prefix` fail the
/// bench. Per-op latencies append to `latencies[thread]`.
bool DriveWave(Wire* wire, uint64_t* seqs,
               std::vector<double>* latencies,
               const std::function<std::string(int, uint64_t)>& make_request,
               const char* expect_prefix) {
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  const size_t conns = wire->conns.size();
  for (int t = 0; t < kDriverThreads; ++t) {
    workers.emplace_back([&, t] {
      size_t lo = conns * static_cast<size_t>(t) / kDriverThreads;
      size_t hi = conns * static_cast<size_t>(t + 1) / kDriverThreads;
      if (lo == hi) return;
      uint64_t& seq = seqs[t];
      for (size_t i = 0; i < kWaveOps / kDriverThreads; ++i, ++seq) {
        net::TcpClient& client = *wire->conns[lo + seq % (hi - lo)];
        std::string request = make_request(t, seq);
        auto begin = std::chrono::steady_clock::now();
        std::string reply = client.Call(request);
        auto end = std::chrono::steady_clock::now();
        if (!StartsWith(reply, expect_prefix)) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        latencies[t].push_back(
            std::chrono::duration<double, std::micro>(end - begin)
                .count());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return !failed.load();
}

/// The paper's WBA admin storm over real sockets: ADD/MODIFY person
/// entries (each fanning out through the UM to the PBX and MP filters)
/// from kDriverThreads closed-loop drivers, rotating over
/// state.range(0) open connections.
void BM_WireAdminStorm(benchmark::State& state) {
  Wire* wire = GetWire(static_cast<size_t>(state.range(0)));
  uint64_t seqs[kDriverThreads] = {};
  std::vector<double> latencies[kDriverThreads];
  auto make_request = [wire](int, uint64_t seq) {
    uint64_t id = wire->next_id.fetch_add(1, std::memory_order_relaxed);
    return AdminRequest(id, seq);
  };
  for (auto _ : state) {
    if (!DriveWave(wire, seqs, latencies, make_request, "RESULT 0")) {
      state.SkipWithError("admin op failed over the wire");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWaveOps));
  std::vector<double> all;
  for (auto& per_thread : latencies)
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  state.counters["admin_p50_us"] = LatencyPercentile(all, 0.50);
  state.counters["admin_p99_us"] = LatencyPercentile(all, 0.99);
  state.counters["connections"] =
      static_cast<double>(wire->conns.size());
  state.counters["in_flight"] = kDriverThreads;
}
BENCHMARK(BM_WireAdminStorm)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Interactive lookups (the LEXPRESS-style number search) from
/// kDriverThreads closed-loop drivers over the same open connections —
/// the latency a caller sees while the deployment idles between storms.
void BM_WireSearch(benchmark::State& state) {
  Wire* wire = GetWire(static_cast<size_t>(state.range(0)));
  WorkloadGenerator gen(17);
  auto people = std::make_shared<std::vector<Person>>(
      gen.People(kPopulation));
  uint64_t seqs[kDriverThreads] = {};
  std::vector<double> latencies[kDriverThreads];
  auto make_request = [people](int thread, uint64_t seq) {
    const Person& target =
        (*people)[(seq * 2654435761u + static_cast<uint64_t>(thread)) %
                  people->size()];
    return "SEARCH base: ou=People,o=Lucent\nscope: sub\n"
           "filter: (telephoneNumber=+1 908 582 " +
           target.extension + ")\nlimit: 10\n";
  };
  for (auto _ : state) {
    if (!DriveWave(wire, seqs, latencies, make_request, "RESULT 0")) {
      state.SkipWithError("search failed over the wire");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWaveOps));
  std::vector<double> all;
  for (auto& per_thread : latencies)
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  state.counters["search_p50_us"] = LatencyPercentile(all, 0.50);
  state.counters["search_p99_us"] = LatencyPercentile(all, 0.99);
  state.counters["connections"] =
      static_cast<double>(wire->conns.size());
  state.counters["in_flight"] = kDriverThreads;
}
BENCHMARK(BM_WireSearch)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace metacomm::bench

int main(int argc, char** argv) {
  return metacomm::bench::RunBenchMain("wire", argc, argv);
}
