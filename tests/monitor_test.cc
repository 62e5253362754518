#include "core/monitor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/metacomm.h"
#include "ldap/text_protocol.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "storage/ldif_file.h"

namespace metacomm::core {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto system = MetaCommSystem::Create(SystemConfig{});
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(*system);
  }

  /// Reads "key=value" out of an entry's monitorInfo values.
  static std::string Counter(const ldap::Entry& entry,
                             const std::string& key) {
    for (const std::string& info : entry.GetAll("monitorInfo")) {
      size_t eq = info.find('=');
      if (eq != std::string::npos && info.substr(0, eq) == key) {
        return info.substr(eq + 1);
      }
    }
    return "";
  }

  std::unique_ptr<MetaCommSystem> system_;
};

TEST_F(MonitorTest, RefreshPublishesAllSections) {
  ldap::Client client = system_->NewClient();
  auto entries = client.Search("cn=monitor,o=Lucent",
                               "(objectClass=monitoredObject)");
  ASSERT_TRUE(entries.ok()) << entries.status();
  // Container + gateway + update-manager + um-batches + directory +
  // ldap-reads + one um-shard-N per update-queue shard (one at default
  // worker_threads=1) + one um-health-<repo> per repository (pbx1 and
  // mp1 in the default assembly).
  EXPECT_EQ(entries->size(), 9u);

  auto health = client.Get("cn=um-health-mp1,cn=monitor,o=Lucent");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(Counter(*health, "breakerState"), "closed");
  EXPECT_EQ(Counter(*health, "replayBacklog"), "0");
  EXPECT_EQ(Counter(*health, "reachable"), "1");

  auto reads = client.Get("cn=ldap-reads,cn=monitor,o=Lucent");
  ASSERT_TRUE(reads.ok());
  EXPECT_NE(Counter(*reads, "searches"), "");
  EXPECT_NE(Counter(*reads, "snapshotVersion"), "0");
}

TEST_F(MonitorTest, CountersTrackActivity) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  ldap::Client client = system_->NewClient();
  auto um = client.Get("cn=update-manager,cn=monitor,o=Lucent");
  ASSERT_TRUE(um.ok());
  EXPECT_EQ(Counter(*um, "ldapUpdates"), "1");
  EXPECT_EQ(Counter(*um, "errors"), "0");
  EXPECT_NE(Counter(*um, "deviceApplies"), "0");

  auto gateway = client.Get("cn=gateway,cn=monitor,o=Lucent");
  ASSERT_TRUE(gateway.ok());
  EXPECT_EQ(Counter(*gateway, "updates"), "1");

  auto directory = client.Get("cn=directory,cn=monitor,o=Lucent");
  ASSERT_TRUE(directory.ok());
  EXPECT_NE(Counter(*directory, "entries"), "");
}

TEST_F(MonitorTest, RefreshIsRepeatableAndUpdatesInPlace) {
  ldap::Client client = system_->NewClient();
  auto before = client.Get("cn=gateway,cn=monitor,o=Lucent");
  ASSERT_TRUE(before.ok());
  std::string reads_before = Counter(*before, "reads");

  // Generate read traffic, read again: same entry, new numbers.
  for (int i = 0; i < 5; ++i) {
    (void)client.Get("cn=monitor,o=Lucent");
  }
  auto after = client.Get("cn=gateway,cn=monitor,o=Lucent");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(Counter(*after, "reads"), reads_before);

  auto entries = client.Search("cn=monitor,o=Lucent",
                               "(objectClass=monitoredObject)");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 9u);  // No duplicates.
}

TEST_F(MonitorTest, ScopeFilterAndMissingEntriesFollowLdap) {
  ldap::Client client = system_->NewClient();
  auto children = client.Search("cn=monitor,o=Lucent", "(objectClass=*)",
                                ldap::Scope::kOneLevel);
  ASSERT_TRUE(children.ok()) << children.status();
  EXPECT_EQ(children->size(), 8u);  // Every section, not the container.
  auto container = client.Search("cn=monitor,o=Lucent", "(objectClass=*)",
                                 ldap::Scope::kBase);
  ASSERT_TRUE(container.ok());
  ASSERT_EQ(container->size(), 1u);
  EXPECT_EQ(container->front().GetFirst("cn"), "monitor");
  auto shards = client.Search("cn=monitor,o=Lucent", "(cn=um-shard-*)");
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(shards->size(), 1u);

  auto missing = client.Get("cn=no-such-section,cn=monitor,o=Lucent");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // A search based above cn=monitor reads only stored entries.
  auto suffix = client.Search("o=Lucent", "(objectClass=monitoredObject)");
  ASSERT_TRUE(suffix.ok());
  EXPECT_TRUE(suffix->empty());
}

/// Looking at the monitor must not write into the directory it
/// reports on: no commit, no WAL record, no propagation.
TEST(MonitorReadOnlyTest, ReadingTheMonitorWritesNothing) {
  const std::string data_dir =
      std::string(::testing::TempDir()) + "/metacomm_monitor_read_only";
  std::filesystem::remove_all(data_dir);
  SystemConfig config;
  config.durability.data_dir = data_dir;
  config.durability.checkpoint_interval_micros = 0;
  {
    auto created = MetaCommSystem::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    MetaCommSystem& system = **created;
    storage::Wal* wal = system.durability()->wal();
    const uint64_t lsn_before = wal->next_lsn();
    const uint64_t changes_before = system.server().backend().ChangeCount();
    const std::string ldif_before =
        storage::ExportLdif(system.server().backend());

    ldap::Client client = system.NewClient();
    for (int round = 0; round < 3; ++round) {
      auto entries = client.Search("cn=monitor,o=Lucent", "(objectClass=*)");
      ASSERT_TRUE(entries.ok()) << entries.status();
      // The nine sections of MonitorTest plus cn=durability: a data dir
      // is attached.
      ASSERT_EQ(entries->size(), 10u);
      for (const ldap::Entry& entry : *entries) {
        auto got = client.Get(entry.dn().ToString());
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->GetFirst("cn"), entry.GetFirst("cn"));
      }
      auto same = client.Compare("cn=um-health-pbx1,cn=monitor,o=Lucent",
                                 "monitorInfo", "breakerState=closed");
      ASSERT_TRUE(same.ok()) << same.status();
      EXPECT_TRUE(*same);
    }

    EXPECT_EQ(wal->next_lsn(), lsn_before);
    EXPECT_EQ(system.server().backend().ChangeCount(), changes_before);
    EXPECT_EQ(storage::ExportLdif(system.server().backend()), ldif_before);
    EXPECT_EQ(system.update_manager().stats().ldap_updates, 0u);
    EXPECT_EQ(system.pbx("pbx1")->StationCount(), 0u);
  }
  std::filesystem::remove_all(data_dir);
}

/// Number of entries in a text-protocol SEARCH reply.
size_t EntriesInReply(const std::string& reply) {
  std::istringstream lines(reply);
  size_t count = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("dn: ", 0) == 0) ++count;
  }
  return count;
}

/// A TcpServer serving `gateway` the way metacomm_serve does.
std::unique_ptr<net::TcpServer> ServeOverTcp(ldap::LdapService* gateway) {
  net::TcpServerConfig config;
  config.busy_reply = ldap::BusyReply();
  config.error_reply = ldap::FramingErrorReply();
  return std::make_unique<net::TcpServer>(std::move(config), [gateway] {
    auto session = std::make_shared<ldap::TextProtocolHandler>(gateway);
    return [session](const std::string& request) {
      return session->Handle(request);
    };
  });
}

/// cn=monitor over TCP, wired the way metacomm_serve serves the
/// gateway: live on every read, with nothing refreshing it.
TEST_F(MonitorTest, LiveOverTheWire) {
  std::unique_ptr<net::TcpServer> tcp = ServeOverTcp(&system_->gateway());
  net::TcpServer& server = *tcp;
  ASSERT_TRUE(server.Start().ok());
  net::TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const std::string search = "SEARCH base: cn=monitor,o=Lucent\nscope: sub\n";
  std::string reply = client.Call(search);
  ASSERT_EQ(reply.rfind("RESULT 0", 0), 0u) << reply;
  EXPECT_EQ(EntriesInReply(reply), 9u) << reply;
  EXPECT_NE(reply.find("monitorInfo: ldapUpdates=0"), std::string::npos);

  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  reply = client.Call(search);
  ASSERT_EQ(reply.rfind("RESULT 0", 0), 0u) << reply;
  EXPECT_EQ(EntriesInReply(reply), 9u);
  EXPECT_NE(reply.find("monitorInfo: ldapUpdates=1"), std::string::npos)
      << reply;
  server.Stop();
}

/// With a data dir, cn=durability reports the WAL and its checkpoints
/// over the wire, and reading it appends nothing to the WAL.
TEST(MonitorDurabilityTest, DurabilitySectionOverTheWire) {
  const std::string data_dir =
      std::string(::testing::TempDir()) + "/metacomm_monitor_durability";
  std::filesystem::remove_all(data_dir);
  SystemConfig config;
  config.durability.data_dir = data_dir;
  config.durability.checkpoint_interval_micros = 0;
  {
    auto created = MetaCommSystem::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    MetaCommSystem& system = **created;
    storage::DurabilityManager& durability = *system.durability();
    ASSERT_TRUE(system.AddPerson("John Doe").ok());
    ASSERT_TRUE(durability.Checkpoint(system.server().backend()).ok());

    std::unique_ptr<net::TcpServer> server =
        ServeOverTcp(&system.gateway());
    ASSERT_TRUE(server->Start().ok());
    net::TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
    const uint64_t lsn_before = durability.wal()->next_lsn();
    const std::string search =
        "SEARCH base: cn=durability,cn=monitor,o=Lucent\nscope: base\n";
    for (int round = 0; round < 3; ++round) {
      const std::string reply = client.Call(search);
      ASSERT_EQ(reply.rfind("RESULT 0", 0), 0u) << reply;
      EXPECT_EQ(EntriesInReply(reply), 1u) << reply;
      for (const std::string& info :
           {"walFsyncs=" + std::to_string(durability.wal_fsyncs()),
            "nextLsn=" + std::to_string(lsn_before),
            "walSegments=" +
                std::to_string(durability.wal()->segment_count()),
            "walBytes=" + std::to_string(durability.wal()->SizeBytes()),
            std::string("pendingIntents=0"), std::string("checkpoints=1"),
            std::string("lastCheckpointError=OK")}) {
        EXPECT_NE(reply.find("monitorInfo: " + info), std::string::npos)
            << info << " missing from\n" << reply;
      }
    }
    EXPECT_GT(durability.wal_fsyncs(), 0u);
    EXPECT_EQ(durability.wal()->next_lsn(), lsn_before);
    server->Stop();
  }
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace metacomm::core
