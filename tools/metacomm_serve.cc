// metacomm_serve: the integrated MetaComm deployment behind a real TCP
// wire. Assembles core::MetaCommSystem (LDAP server, LTAP gateway,
// device filters, threaded Update Manager) and serves the LDAP text
// protocol on an epoll TcpServer with persistent per-connection
// sessions, connection limits, and UM-queue admission control.
//
// With --data-dir the deployment is durable: every directory write is
// journaled to a WAL before it is acknowledged, snapshots checkpoint in
// the background, and a restart recovers the newest checkpoint plus the
// WAL suffix and replays acked-but-unapplied device updates.
//
//   metacomm_serve --port=3890 --io-threads=2 --um-workers=2 --batch=16
//                  --data-dir=/var/lib/metacomm --wal-fsync=batch
//
// Drive it with tools/loadgen, or by hand:
//   printf '33\nSEARCH base: o=Lucent\nscope: sub\n' | nc 127.0.0.1 3890

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/strings.h"
#include "core/metacomm.h"
#include "ldap/text_protocol.h"
#include "net/tcp_server.h"
#include "storage/durability_config.h"
#include "flags.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

struct Options {
  uint16_t port = 3890;
  int io_threads = 2;
  int um_workers = 2;
  int batch = 16;
  size_t max_connections = 4096;
  size_t max_request_bytes = 1 << 20;
  size_t admission_queue_limit = 1024;
  int64_t rtt_micros = 0;
  int stats_interval_seconds = 10;
  std::string data_dir;
  metacomm::storage::FsyncPolicy wal_fsync =
      metacomm::storage::FsyncPolicy::kBatch;
  int64_t checkpoint_interval_s = 30;
};

}  // namespace

int main(int argc, char** argv) {
  using metacomm::ldap::TextProtocolHandler;
  using metacomm::storage::FsyncPolicy;

  Options opt;
  metacomm::tools::FlagSet flags(
      "MetaComm LDAP/LTAP deployment on a TCP wire");
  flags.Numeric("port", &opt.port, "listen port (0 picks a free one)");
  flags.Numeric("io-threads", &opt.io_threads,
                "epoll event loops (a write waiting on the UM hands its "
                "loop to a stand-in thread, so this is no cap on writes "
                "in flight)");
  flags.Numeric("um-workers", &opt.um_workers, "Update Manager workers");
  flags.Numeric("batch", &opt.batch, "UM max batch size");
  flags.Numeric("max-connections", &opt.max_connections,
                "concurrent connection cap");
  flags.Numeric("max-request-bytes", &opt.max_request_bytes,
                "per-request frame size cap");
  flags.Numeric("admission-queue-limit", &opt.admission_queue_limit,
                "shed writes when the UM queue exceeds this");
  flags.Numeric("rtt-micros", &opt.rtt_micros,
                "emulated device admin-link round trip");
  flags.Numeric("stats-interval-seconds", &opt.stats_interval_seconds,
                "periodic stats line cadence (0 disables)");
  flags.Text("data-dir", &opt.data_dir,
             "durability directory (empty = in-memory only)");
  flags.Choice<FsyncPolicy>("wal-fsync", &opt.wal_fsync,
                            "{off,batch,always}",
                            metacomm::storage::ParseFsyncPolicy,
                            "WAL fsync policy");
  flags.Numeric("checkpoint-interval-s", &opt.checkpoint_interval_s,
                "background checkpoint cadence (0 disables)");
  if (!flags.Parse(argc, argv)) return 2;

  metacomm::core::SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = opt.um_workers;
  config.um.max_batch_size = opt.batch;
  config.device_command_rtt_micros = opt.rtt_micros;
  config.durability.data_dir = opt.data_dir;
  config.durability.wal_fsync = opt.wal_fsync;
  config.durability.checkpoint_interval_micros =
      opt.checkpoint_interval_s * 1'000'000;
  auto system = metacomm::core::MetaCommSystem::Create(config);
  if (!system.ok()) {
    std::fprintf(stderr, "system assembly failed: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }
  metacomm::core::UpdateManager& um = (*system)->update_manager();

  if (!opt.data_dir.empty()) {
    const auto& rec = (*system)->recovery_stats();
    std::printf(
        "metacomm_serve: recovered data-dir=%s snapshot=v%llu "
        "(%llu entries%s) wal-records=%llu replayed=%llu skipped=%llu "
        "intents=%llu truncated-bytes=%llu\n",
        opt.data_dir.c_str(),
        static_cast<unsigned long long>(rec.snapshot_version),
        static_cast<unsigned long long>(rec.snapshot_entries),
        rec.from_ldif_fallback ? ", ldif fallback" : "",
        static_cast<unsigned long long>(rec.wal_records),
        static_cast<unsigned long long>(rec.changes_replayed),
        static_cast<unsigned long long>(rec.changes_skipped),
        static_cast<unsigned long long>(rec.intents_pending),
        static_cast<unsigned long long>(rec.wal_truncated_bytes));
    // Recovered intents were re-submitted during Create(); fold in a
    // full resync so devices that moved while we were down converge
    // before the wire opens.
    metacomm::Status sync = um.SynchronizeAll();
    if (!sync.ok()) {
      std::fprintf(stderr, "post-recovery resync: %s\n",
                   sync.ToString().c_str());
    }
  }

  metacomm::net::TcpServerConfig server_config;
  server_config.listen_port = opt.port;
  server_config.io_threads = opt.io_threads;
  server_config.max_connections = opt.max_connections;
  server_config.max_request_bytes = opt.max_request_bytes;
  server_config.busy_reply = metacomm::ldap::BusyReply();
  server_config.error_reply = metacomm::ldap::FramingErrorReply();
  size_t queue_limit = opt.admission_queue_limit;
  server_config.admit = [&um, queue_limit] {
    return um.QueueDepth() < queue_limit;
  };

  metacomm::ldap::LdapService* gateway = &(*system)->gateway();
  metacomm::net::TcpServer server(
      std::move(server_config), [gateway] {
        auto session = std::make_shared<TextProtocolHandler>(gateway);
        return [session](const std::string& request) {
          return session->Handle(request);
        };
      });
  metacomm::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot serve: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("metacomm_serve: listening on 127.0.0.1:%u "
              "(io-threads=%d um-workers=%d batch=%d wal-fsync=%s)\n",
              server.port(), opt.io_threads, opt.um_workers, opt.batch,
              opt.data_dir.empty()
                  ? "none"
                  : metacomm::storage::FsyncPolicyName(opt.wal_fsync));
  std::fflush(stdout);

  ::signal(SIGINT, HandleSignal);
  ::signal(SIGTERM, HandleSignal);
  int since_stats = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    if (opt.stats_interval_seconds > 0 &&
        ++since_stats >= opt.stats_interval_seconds) {
      since_stats = 0;
      metacomm::net::TcpServer::Stats s = server.stats();
      std::printf(
          "conns=%llu/%llu requests=%llu shed_busy=%llu "
          "shed_conn=%llu framing_errors=%llu um_queue=%zu\n",
          static_cast<unsigned long long>(s.active_connections),
          static_cast<unsigned long long>(s.accepted),
          static_cast<unsigned long long>(s.requests),
          static_cast<unsigned long long>(s.shed_busy),
          static_cast<unsigned long long>(s.shed_connection_limit),
          static_cast<unsigned long long>(s.framing_errors),
          um.QueueDepth());
      std::fflush(stdout);
    }
  }
  std::printf("metacomm_serve: shutting down\n");
  server.Stop();
  return 0;
}
