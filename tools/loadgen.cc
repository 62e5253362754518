// loadgen: multi-connection load generator for metacomm_serve — the
// WBA admin storm of the paper driven over real sockets. Opens N
// persistent connections, spreads them across worker threads, and
// drives a write/read mix (ADD/MODIFY person entries that fan out to
// the devices, plus indexed SEARCHes), reporting per-class throughput,
// latency percentiles and busy-shed counts.
//
//   metacomm_serve --port=3890 &
//   loadgen --port=3890 --connections=1000 --threads=8
//           --duration-seconds=30 --write-pct=20     (one command line)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "net/tcp_client.h"
#include "flags.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 3890;
  size_t connections = 100;
  int threads = 4;
  int duration_seconds = 10;
  int write_pct = 20;  // Percent of ops that are ADD/MODIFY.
};

struct ClassStats {
  uint64_t ok = 0;
  uint64_t busy = 0;     // RESULT 51 sheds.
  uint64_t errors = 0;   // Any other non-zero RESULT.
  std::vector<double> latency_us;
};

/// Result code from a framed text-protocol reply ("RESULT <code> ...").
int ReplyCode(const std::string& reply) {
  if (!metacomm::StartsWith(reply, "RESULT ")) return -1;
  size_t end = reply.find(' ', 7);
  std::optional<int64_t> code = metacomm::ParseInt64(
      std::string_view(reply).substr(7, end == std::string::npos
                                            ? std::string::npos
                                            : end - 7));
  return code.has_value() ? static_cast<int>(*code) : -1;
}

void Record(ClassStats* stats, const std::string& reply, double micros) {
  int code = ReplyCode(reply);
  if (code == 0 || code == 5 || code == 6) {
    ++stats->ok;
  } else if (code == 51) {
    ++stats->busy;
  } else {
    ++stats->errors;
  }
  stats->latency_us.push_back(micros);
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t rank =
      static_cast<size_t>(p * static_cast<double>(values->size()));
  if (rank >= values->size()) rank = values->size() - 1;
  return (*values)[rank];
}

std::string AddRequest(uint64_t id) {
  std::string ext = std::to_string(1000 + id % 9000);
  std::string cn = "Load " + std::to_string(id);
  return "ADD\ndn: cn=" + cn +
         ",ou=People,o=Lucent\n"
         "objectClass: top\nobjectClass: person\n"
         "objectClass: organizationalPerson\n"
         "objectClass: inetOrgPerson\ncn: " +
         cn + "\nsn: Load\ntelephoneNumber: +1 908 582 " + ext + "\n";
}

std::string ModifyRequest(uint64_t id, uint64_t seq) {
  std::string cn = "Load " + std::to_string(id);
  return "MODIFY\ndn: cn=" + cn +
         ",ou=People,o=Lucent\nchangetype: modify\n"
         "replace: description\ndescription: storm-" +
         std::to_string(seq) + "\n-\n";
}

std::string SearchRequest(uint64_t id) {
  std::string ext = std::to_string(1000 + id % 9000);
  return "SEARCH base: ou=People,o=Lucent\nscope: sub\n"
         "filter: (telephoneNumber=+1 908 582 " +
         ext + ")\nlimit: 10\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  metacomm::tools::FlagSet flags(
      "multi-connection load generator for metacomm_serve");
  flags.Text("host", &opt.host, "server host");
  flags.Numeric("port", &opt.port, "server port");
  flags.Numeric("connections", &opt.connections,
                "persistent connections to open");
  flags.Numeric("threads", &opt.threads, "driver threads");
  flags.Numeric("duration-seconds", &opt.duration_seconds,
                "storm duration");
  flags.Numeric("write-pct", &opt.write_pct,
                "percent of ops that are ADD/MODIFY");
  if (!flags.Parse(argc, argv)) return 2;
  opt.threads = std::max(1, opt.threads);
  opt.connections = std::max<size_t>(1, opt.connections);

  // Open every persistent connection up front; the storm reuses them
  // for its whole duration (LTAP-style persistent sessions).
  std::vector<std::unique_ptr<metacomm::net::TcpClient>> clients;
  clients.reserve(opt.connections);
  for (size_t i = 0; i < opt.connections; ++i) {
    auto client = std::make_unique<metacomm::net::TcpClient>();
    metacomm::Status status = client->Connect(opt.host, opt.port);
    if (!status.ok()) {
      std::fprintf(stderr,
                   "connect %zu/%zu failed: %s\n", i + 1,
                   opt.connections, status.ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(client));
  }
  std::printf("loadgen: %zu persistent connections to %s:%u\n",
              opt.connections, opt.host.c_str(), opt.port);

  std::atomic<uint64_t> next_id{0};
  std::vector<ClassStats> write_stats(
      static_cast<size_t>(opt.threads));
  std::vector<ClassStats> read_stats(static_cast<size_t>(opt.threads));
  Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(opt.duration_seconds);

  std::vector<std::thread> workers;
  for (int t = 0; t < opt.threads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread owns a disjoint slice of the connections and
      // round-robins across it, so every connection stays active.
      size_t lo = (opt.connections * static_cast<size_t>(t)) /
                  static_cast<size_t>(opt.threads);
      size_t hi = (opt.connections * static_cast<size_t>(t + 1)) /
                  static_cast<size_t>(opt.threads);
      if (lo == hi) return;
      uint64_t seq = 0;
      while (Clock::now() < deadline) {
        metacomm::net::TcpClient& client = *clients[lo + seq % (hi - lo)];
        ++seq;
        bool write =
            static_cast<int>(seq % 100) < opt.write_pct;
        std::string request;
        ClassStats* stats;
        if (write) {
          uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
          // The first 9000 writes ADD fresh people; beyond that the
          // storm churns the existing ones with MODIFYs (the WBA's
          // day-2 admin traffic).
          request = id < 9000 ? AddRequest(id)
                              : ModifyRequest(id % 9000, seq);
          stats = &write_stats[static_cast<size_t>(t)];
        } else {
          request = SearchRequest(seq * 2654435761u);
          stats = &read_stats[static_cast<size_t>(t)];
        }
        Clock::time_point begin = Clock::now();
        std::string reply = client.Call(request);
        double micros =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - begin)
                .count() /
            1e3;
        Record(stats, reply, micros);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  auto report = [&](const char* label,
                    std::vector<ClassStats>& per_thread) {
    ClassStats total;
    for (ClassStats& stats : per_thread) {
      total.ok += stats.ok;
      total.busy += stats.busy;
      total.errors += stats.errors;
      total.latency_us.insert(total.latency_us.end(),
                              stats.latency_us.begin(),
                              stats.latency_us.end());
    }
    double per_sec =
        static_cast<double>(total.ok) / opt.duration_seconds;
    std::printf(
        "%s: ok=%llu busy=%llu errors=%llu  %.0f ops/s  "
        "p50=%.0fus p99=%.0fus\n",
        label, static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.busy),
        static_cast<unsigned long long>(total.errors), per_sec,
        Percentile(&total.latency_us, 0.50),
        Percentile(&total.latency_us, 0.99));
  };
  report("admin(write)", write_stats);
  report("search(read)", read_stats);
  return 0;
}
