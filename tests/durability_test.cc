// The durability subsystem end to end, in process: checkpoint-vs-replay
// equivalence (a recovered directory is byte-identical to the pre-kill
// export), the intent log's lifecycle across crashes and checkpoints,
// lost-history detection, and full MetaCommSystem restarts on a data
// dir.

#include "storage/durability.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/metacomm.h"
#include "storage/fs.h"
#include "storage/ldif_file.h"

namespace metacomm::storage {
namespace {

ldap::Entry Person(const std::string& dn_text, const std::string& cn) {
  ldap::Entry entry(*ldap::Dn::Parse(dn_text));
  entry.AddObjectClass("top");
  entry.AddObjectClass("person");
  entry.SetOne("cn", cn);
  entry.SetOne("sn", "X");
  return entry;
}

/// o=Lucent with ou=People holding cn=A: an entry with a child.
void AddSubtree(ldap::Backend* backend) {
  ldap::Entry suffix(*ldap::Dn::Parse("o=Lucent"));
  suffix.AddObjectClass("top");
  suffix.SetOne("o", "Lucent");
  ASSERT_TRUE(backend->Add(suffix).ok());
  ldap::Entry people(*ldap::Dn::Parse("ou=People,o=Lucent"));
  people.AddObjectClass("top");
  people.AddObjectClass("organizationalUnit");
  people.SetOne("ou", "People");
  ASSERT_TRUE(backend->Add(people).ok());
  ASSERT_TRUE(backend->Add(Person("cn=A,ou=People,o=Lucent", "A")).ok());
}

lexpress::UpdateDescriptor DeviceAdd(const std::string& extension) {
  lexpress::Record image("pbx");
  image.SetOne("Extension", extension);
  image.SetOne("Name", "Storm, Test");
  lexpress::UpdateDescriptor d;
  d.op = lexpress::DescriptorOp::kAdd;
  d.schema = "pbx";
  d.source = "pbx1";
  d.new_record = image;
  return d;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.data_dir = std::string(::testing::TempDir()) +
                       "/metacomm_dur_" +
                       std::to_string(reinterpret_cast<uintptr_t>(this));
    // In-process "crashes": the page cache survives, fsync is noise.
    config_.wal_fsync = FsyncPolicy::kOff;
    config_.checkpoint_interval_micros = 0;  // Checkpoint by hand only.
    Wipe();
  }

  void TearDown() override { Wipe(); }

  void Wipe() {
    auto names = ListDir(config_.data_dir);
    if (!names.ok()) return;
    for (const std::string& name : *names) {
      Status removed = RemoveFile(config_.data_dir + "/" + name);
      (void)removed;
    }
  }

  /// Opens a manager, recovers into `backend` and attaches it.
  std::unique_ptr<DurabilityManager> OpenAttached(
      ldap::Backend* backend,
      DurabilityManager::RecoveryStats* stats = nullptr) {
    auto mgr = DurabilityManager::Open(config_);
    EXPECT_TRUE(mgr.ok()) << mgr.status();
    if (!mgr.ok()) return nullptr;
    auto recovered = (*mgr)->RecoverBackend(backend);
    EXPECT_TRUE(recovered.ok()) << recovered.status();
    if (!recovered.ok()) return nullptr;
    if (stats != nullptr) *stats = *recovered;
    (*mgr)->AttachBackend(backend);
    return std::move(*mgr);
  }

  void AddTree(ldap::Backend* backend) {
    ldap::Entry suffix(*ldap::Dn::Parse("o=Lucent"));
    suffix.AddObjectClass("top");
    suffix.SetOne("o", "Lucent");
    ASSERT_TRUE(backend->Add(suffix).ok());
    ASSERT_TRUE(backend->Add(Person("cn=A,o=Lucent", "A")).ok());
    ASSERT_TRUE(backend->Add(Person("cn=B,o=Lucent", "B")).ok());
  }

  DurabilityConfig config_;
};

TEST_F(DurabilityTest, PureWalReplayRestoresExactExport) {
  std::string expected;
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    AddTree(&backend);
    ASSERT_TRUE(
        backend
            .Modify(*ldap::Dn::Parse("cn=A,o=Lucent"),
                    {ldap::Modification{
                        ldap::Modification::Type::kReplace,
                        "telephoneNumber",
                        {"+1 908 582 4567"}}})
            .ok());
    ASSERT_TRUE(backend.Delete(*ldap::Dn::Parse("cn=B,o=Lucent")).ok());
    expected = ExportLdif(backend);
    backend.ClearJournal();  // "Crash": no checkpoint ever ran.
  }
  ldap::Backend recovered;
  DurabilityManager::RecoveryStats stats;
  auto mgr = OpenAttached(&recovered, &stats);
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(ExportLdif(recovered), expected);
  EXPECT_EQ(stats.snapshot_version, 0u);
  EXPECT_EQ(stats.changes_replayed, 5u);
  recovered.ClearJournal();
}

TEST_F(DurabilityTest, CheckpointPlusSuffixRestoresExactExport) {
  std::string expected;
  uint64_t checkpoint_version = 0;
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    AddTree(&backend);
    auto checkpoint = mgr->Checkpoint(backend);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    checkpoint_version = checkpoint->version;
    EXPECT_GT(checkpoint_version, 0u);
    // Post-checkpoint suffix: only these should need replay.
    ASSERT_TRUE(backend.Add(Person("cn=C,o=Lucent", "C")).ok());
    ASSERT_TRUE(backend
                    .ModifyRdn(*ldap::Dn::Parse("cn=C,o=Lucent"),
                               ldap::Rdn("cn", "C2"), true)
                    .ok());
    expected = ExportLdif(backend);
    backend.ClearJournal();
  }
  ldap::Backend recovered;
  DurabilityManager::RecoveryStats stats;
  auto mgr = OpenAttached(&recovered, &stats);
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(ExportLdif(recovered), expected);
  EXPECT_EQ(stats.snapshot_version, checkpoint_version);
  EXPECT_EQ(stats.snapshot_entries, 3u);
  EXPECT_GT(stats.changes_replayed, 0u);
  EXPECT_EQ(stats.changes_skipped, 0u);  // Old segments were pruned.
  recovered.ClearJournal();
}

TEST_F(DurabilityTest, SubtreeRenameRestoresExactExport) {
  // Renaming an entry with children moves the whole subtree; replay
  // must too, rather than try to delete a non-leaf.
  std::string expected;
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    AddSubtree(&backend);
    ASSERT_TRUE(backend
                    .ModifyRdn(*ldap::Dn::Parse("ou=People,o=Lucent"),
                               ldap::Rdn("ou", "Staff"), true)
                    .ok());
    expected = ExportLdif(backend);
    backend.ClearJournal();  // "Crash" before any checkpoint.
  }
  ldap::Backend recovered;
  auto mgr = OpenAttached(&recovered);
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(ExportLdif(recovered), expected);
  EXPECT_TRUE(recovered.Exists(*ldap::Dn::Parse("cn=A,ou=Staff,o=Lucent")));
  recovered.ClearJournal();
}

TEST_F(DurabilityTest, FailedBackgroundCheckpointIsLogged) {
  config_.checkpoint_interval_micros = 20000;
  ldap::Backend backend;
  auto mgr = OpenAttached(&backend);
  ASSERT_NE(mgr, nullptr);
  AddTree(&backend);
  // A directory where the snapshot's temporary file goes makes every
  // attempt fail (EISDIR), whatever the process's privileges.
  char name[64];
  std::snprintf(name, sizeof(name), "snapshot-%020llu.mcsnap.tmp",
                static_cast<unsigned long long>(
                    backend.GetSnapshot()->version));
  const std::string planted = config_.data_dir + "/" + name;
  ASSERT_TRUE(MakeDirs(planted).ok());

  Logger& logger = Logger::Get();
  const LogLevel old_level = logger.min_level();
  // The sink runs on the checkpoint thread; the lines are read only
  // after Stop() has joined it.
  std::vector<std::string> warnings;
  logger.set_sink([&warnings](LogLevel level, const std::string& line) {
    if (level == LogLevel::kWarning) warnings.push_back(line);
  });
  logger.set_min_level(LogLevel::kWarning);
  mgr->StartCheckpointThread(&backend);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (mgr->last_checkpoint_error().ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mgr->Stop();
  logger.set_sink(nullptr);
  logger.set_min_level(old_level);
  std::filesystem::remove(planted);  // Wipe() unlinks files only.

  Status error = mgr->last_checkpoint_error();
  ASSERT_FALSE(error.ok());
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings.front().find("checkpoint"), std::string::npos)
      << warnings.front();
  EXPECT_NE(warnings.front().find(error.message()), std::string::npos)
      << warnings.front();
  backend.ClearJournal();
}

TEST_F(DurabilityTest, RepeatedCheckpointsPruneWalSegments) {
  ldap::Backend backend;
  auto mgr = OpenAttached(&backend);
  ASSERT_NE(mgr, nullptr);
  AddTree(&backend);
  auto first = mgr->Checkpoint(backend);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(backend.Add(Person("cn=C,o=Lucent", "C")).ok());
  auto second = mgr->Checkpoint(backend);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->version, first->version);
  EXPECT_GT(second->segments_deleted, 0u);
  backend.ClearJournal();
}

TEST_F(DurabilityTest, IntentsSurviveCrashUntilResolved) {
  uint64_t id = 0;
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    auto logged = mgr->LogIntent(DeviceAdd("4567"));
    ASSERT_TRUE(logged.ok()) << logged.status();
    id = *logged;
    backend.ClearJournal();  // Crash before the update applied.
  }
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    std::vector<WalIntent> pending = mgr->PendingIntents();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].id, id);
    EXPECT_EQ(pending[0].update.source, "pbx1");
    EXPECT_EQ(pending[0].update.new_record.GetFirst("Extension"),
              "4567");
    // Settle it this time.
    ASSERT_TRUE(mgr->ResolveIntent(id).ok());
    backend.ClearJournal();
  }
  ldap::Backend backend;
  auto mgr = OpenAttached(&backend);
  ASSERT_NE(mgr, nullptr);
  EXPECT_TRUE(mgr->PendingIntents().empty());
  backend.ClearJournal();
}

TEST_F(DurabilityTest, IntentsSurviveCheckpointCompaction) {
  uint64_t id = 0;
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    AddTree(&backend);
    auto logged = mgr->LogIntent(DeviceAdd("9999"));
    ASSERT_TRUE(logged.ok());
    id = *logged;
    // The checkpoint deletes the segment holding the intent record;
    // compaction must carry the live intent into the fresh one.
    auto checkpoint = mgr->Checkpoint(backend);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    EXPECT_EQ(checkpoint->intents_compacted, 1u);
    backend.ClearJournal();
  }
  ldap::Backend backend;
  auto mgr = OpenAttached(&backend);
  ASSERT_NE(mgr, nullptr);
  std::vector<WalIntent> pending = mgr->PendingIntents();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, id);
  backend.ClearJournal();
}

TEST_F(DurabilityTest, MissingWalHistoryIsRefused) {
  {
    ldap::Backend backend;
    auto mgr = OpenAttached(&backend);
    ASSERT_NE(mgr, nullptr);
    AddTree(&backend);
    ASSERT_TRUE(mgr->Checkpoint(backend).ok());
    ASSERT_TRUE(backend.Add(Person("cn=C,o=Lucent", "C")).ok());
    ASSERT_TRUE((*mgr->wal()).Roll().ok());
    ASSERT_TRUE(backend.Add(Person("cn=D,o=Lucent", "D")).ok());
    backend.ClearJournal();
  }
  // Delete the oldest surviving segment — the one carrying the first
  // post-checkpoint change. The remaining suffix no longer reaches
  // back to the snapshot; recovery must refuse rather than silently
  // lose cn=C.
  auto names = ListDir(config_.data_dir);
  ASSERT_TRUE(names.ok());
  std::string oldest;
  for (const std::string& name : *names) {
    if (name.find(".wal") == std::string::npos) continue;
    if (oldest.empty() || name < oldest) oldest = name;
  }
  ASSERT_FALSE(oldest.empty());
  ASSERT_TRUE(RemoveFile(config_.data_dir + "/" + oldest).ok());

  ldap::Backend recovered;
  auto mgr = DurabilityManager::Open(config_);
  ASSERT_TRUE(mgr.ok());
  auto stats = (*mgr)->RecoverBackend(&recovered);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
}

/// Appends every change `source` commits to `log`, encoded as the
/// journal logs it. `log` must outlive the source's writes.
void RecordChanges(ldap::Backend* source, std::vector<std::string>* log) {
  source->AddListener([log](const ldap::ChangeRecord& record) {
    log->push_back(EncodeChange(record));
  });
}

WalChange Decoded(const std::string& payload) {
  StatusOr<WalRecord> record = DecodeWalRecord(payload);
  EXPECT_TRUE(record.ok()) << record.status();
  return record.ok() ? record->change : WalChange{};
}

TEST(WalReplayTest, EachChangeReplaysAndReappliesAsNoOp) {
  // Replays a scripted history into a replica one change at a time:
  // the first apply must reproduce the source, and a second apply —
  // to a state that already reflects the change — must leave it
  // unchanged.
  std::vector<std::string> log;
  ldap::Backend source;
  RecordChanges(&source, &log);
  ldap::Backend replica;
  size_t applied = 0;
  auto replay = [&](const char* what) {
    for (; applied < log.size(); ++applied) {
      WalChange change = Decoded(log[applied]);
      ASSERT_TRUE(ApplyChange(&replica, change).ok()) << what;
      const std::string once = ExportLdif(replica);
      ASSERT_TRUE(ApplyChange(&replica, change).ok()) << what << " again";
      EXPECT_EQ(ExportLdif(replica), once) << what;
    }
    EXPECT_EQ(ExportLdif(replica), ExportLdif(source)) << what;
  };

  AddSubtree(&source);
  replay("add");

  ASSERT_TRUE(source
                  .Modify(*ldap::Dn::Parse("cn=A,ou=People,o=Lucent"),
                          {ldap::Modification{
                              ldap::Modification::Type::kReplace,
                              "telephoneNumber",
                              {"+1 908 582 4567"}}})
                  .ok());
  replay("modify");

  ASSERT_TRUE(source
                  .ModifyRdn(*ldap::Dn::Parse("cn=A,ou=People,o=Lucent"),
                             ldap::Rdn("cn", "A2"),
                             /*delete_old_rdn=*/false)
                  .ok());
  replay("leaf rename keeping the old RDN value");

  ASSERT_TRUE(source
                  .ModifyRdn(*ldap::Dn::Parse("ou=People,o=Lucent"),
                             ldap::Rdn("ou", "Staff"),
                             /*delete_old_rdn=*/true)
                  .ok());
  replay("subtree rename");

  ASSERT_TRUE(source.Delete(*ldap::Dn::Parse("cn=A2,ou=Staff,o=Lucent")).ok());
  replay("delete");
}

TEST(WalReplayTest, MissingTargetsConverge) {
  std::vector<std::string> log;
  ldap::Backend source;
  RecordChanges(&source, &log);
  ldap::Entry suffix(*ldap::Dn::Parse("o=Lucent"));
  suffix.AddObjectClass("top");
  suffix.SetOne("o", "Lucent");
  ASSERT_TRUE(source.Add(suffix).ok());
  ASSERT_TRUE(source.Add(Person("cn=A,o=Lucent", "A")).ok());
  ASSERT_TRUE(source
                  .Modify(*ldap::Dn::Parse("cn=A,o=Lucent"),
                          {ldap::Modification{
                              ldap::Modification::Type::kReplace,
                              "sn",
                              {"Z"}}})
                  .ok());
  ASSERT_EQ(log.size(), 3u);

  // The replica never saw cn=A's add: the modify creates the entry
  // from its logged image.
  ldap::Backend replica;
  ASSERT_TRUE(ApplyChange(&replica, Decoded(log[0])).ok());
  ASSERT_TRUE(ApplyChange(&replica, Decoded(log[2])).ok());
  EXPECT_EQ(ExportLdif(replica), ExportLdif(source));

  // A delete of an entry the replica does not hold is already done.
  ASSERT_TRUE(source.Delete(*ldap::Dn::Parse("cn=A,o=Lucent")).ok());
  ldap::Backend bare;
  ASSERT_TRUE(ApplyChange(&bare, Decoded(log[0])).ok());
  ASSERT_TRUE(ApplyChange(&bare, Decoded(log[3])).ok());
  EXPECT_EQ(ExportLdif(bare), ExportLdif(source));
}

TEST_F(DurabilityTest, SystemRestartServesRecoveredEntries) {
  core::SystemConfig system_config;
  system_config.durability = config_;
  {
    auto system = core::MetaCommSystem::Create(system_config);
    ASSERT_TRUE(system.ok()) << system.status();
    ASSERT_TRUE((*system)
                    ->AddPerson("John Doe",
                                {{"telephoneNumber",
                                  "+1 908 582 4567"}})
                    .ok());
  }  // SIGKILL stand-in: no checkpoint has necessarily run.
  {
    auto system = core::MetaCommSystem::Create(system_config);
    ASSERT_TRUE(system.ok()) << system.status();
    EXPECT_GT((*system)->recovery_stats().changes_replayed, 0u);
    ldap::Client client = (*system)->NewClient();
    auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
    ASSERT_TRUE(entry.ok()) << entry.status();
    EXPECT_EQ(entry->GetFirst("telephoneNumber"), "+1 908 582 4567");
    // The recovered deployment accepts new durable writes.
    ASSERT_TRUE((*system)->AddPerson("Jane Roe").ok());
  }
  // Third incarnation sees both generations of writes.
  auto system = core::MetaCommSystem::Create(system_config);
  ASSERT_TRUE(system.ok());
  ldap::Client client = (*system)->NewClient();
  EXPECT_TRUE(client.Get("cn=John Doe,ou=People,o=Lucent").ok());
  EXPECT_TRUE(client.Get("cn=Jane Roe,ou=People,o=Lucent").ok());
}

}  // namespace
}  // namespace metacomm::storage
