#include <gtest/gtest.h>

#include "core/integrated_schema.h"
#include "core/metacomm.h"

namespace metacomm::core {
namespace {

/// Synchronization scenarios (paper §4.4, §5.1): initial population,
/// recovery from disconnects and lost notifications.
class SyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto system = MetaCommSystem::Create(SystemConfig{});
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(*system);
  }

  std::unique_ptr<MetaCommSystem> system_;
};

TEST_F(SyncTest, InitialLoadPopulatesDirectoryFromDevices) {
  // Pre-existing device data, empty directory — the "populate the
  // directory initially" case (§4.4). Stations are configured before
  // MetaComm attaches (notifications dropped to simulate pre-history).
  devices::DefinityPbx* pbx = system_->pbx("pbx1");
  pbx->faults().set_drop_notifications(true);
  ASSERT_TRUE(
      pbx->ExecuteCommand("add station 4567 Name \"John Doe\"").ok());
  ASSERT_TRUE(
      pbx->ExecuteCommand("add station 4568 Name \"Pat Smith\"").ok());
  pbx->faults().set_drop_notifications(false);

  ASSERT_TRUE(system_->update_manager().Synchronize("pbx1").ok());

  ldap::Client client = system_->NewClient();
  auto john = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(john.ok()) << john.status();
  EXPECT_EQ(john->GetFirst("DefinityExtension"), "4567");
  auto pat = client.Get("cn=Pat Smith,ou=People,o=Lucent");
  ASSERT_TRUE(pat.ok());
  EXPECT_EQ(pat->GetFirst("telephoneNumber"), "+1 908 582 4568");

  // Propagation during sync also provisioned the messaging platform
  // ("other devices that share the data being synchronized", §5.1).
  EXPECT_TRUE(system_->mp("mp1")->GetRecord("4567").ok());
  EXPECT_TRUE(system_->mp("mp1")->GetRecord("4568").ok());
}

TEST_F(SyncTest, ResyncRepairsLostDeviceUpdates) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::DefinityPbx* pbx = system_->pbx("pbx1");
  pbx->faults().set_drop_notifications(true);
  ASSERT_TRUE(
      pbx->ExecuteCommand("change station 4567 Room HIDDEN-1").ok());
  pbx->faults().set_drop_notifications(false);

  ldap::Client client = system_->NewClient();
  auto before = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->Has("roomNumber"));

  ASSERT_TRUE(system_->update_manager().Synchronize("pbx1").ok());
  auto after = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->GetFirst("roomNumber"), "HIDDEN-1");
}

TEST_F(SyncTest, ResyncPushesDirectoryEntriesToWipedDevice) {
  // The device lost state (replacement hardware): directory entries in
  // its partition are pushed back.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::DefinityPbx* pbx = system_->pbx("pbx1");
  pbx->faults().set_drop_notifications(true);
  ASSERT_TRUE(pbx->ExecuteCommand("remove station 4567").ok());
  pbx->faults().set_drop_notifications(false);
  ASSERT_EQ(pbx->StationCount(), 0u);

  ASSERT_TRUE(system_->update_manager().Synchronize("pbx1").ok());
  auto station = pbx->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Name"), "John Doe");
}

/// A pushed-back mailbox is minted a new SubscriberId, and the push
/// runs the §5.5 round like any propagation: one resync brings the
/// directory's MpSubscriberId to the platform's.
TEST_F(SyncTest, ResyncOfWipedPlatformBringsItsMintedIdBack) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::MessagingPlatform* mp = system_->mp("mp1");
  mp->faults().set_drop_notifications(true);
  ASSERT_TRUE(mp->ExecuteCommand("DELETE MAILBOX 4567").ok());
  mp->faults().set_drop_notifications(false);

  ASSERT_TRUE(system_->update_manager().Synchronize("mp1").ok());
  auto mailbox = mp->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  ldap::Client client = system_->NewClient();
  auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->GetFirst("MpSubscriberId"),
            mailbox->GetFirst("SubscriberId"));
}

/// Synchronize re-drives the device's backlog before its device-wins
/// pull: an acked write the device missed while disconnected reaches
/// the device instead of being rolled back in the directory.
TEST_F(SyncTest, ResyncKeepsAnAckedWriteTheDeviceMissed) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  const std::string dn = "cn=John Doe,ou=People,o=Lucent";
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Replace(dn, "MpPin", "1111").ok());
  devices::MessagingPlatform* mp = system_->mp("mp1");
  mp->faults().set_disconnected(true);
  ASSERT_TRUE(client.Replace(dn, "MpPin", "2222").ok());
  mp->faults().set_disconnected(false);

  ASSERT_TRUE(system_->update_manager().Synchronize("mp1").ok());
  auto entry = client.Get(dn);
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->GetFirst("MpPin"), "2222");
  auto mailbox = mp->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  EXPECT_EQ(mailbox->GetFirst("Pin"), "2222");
}

/// One backlog key that keeps failing does not hold the resync up: the
/// other keys are pushed and device-side changes still pulled, while
/// the failing key keeps its entry and its acked directory value.
TEST_F(SyncTest, ResyncGoesOnPastAFailingBacklogKey) {
  auto dn_of = [](const std::string& extension) {
    return "cn=Person " + extension + ",ou=People,o=Lucent";
  };
  auto backlog = [&] {
    for (const auto& repo : system_->update_manager().stats().repositories) {
      if (repo.name == "mp1") return repo.replay_backlog;
    }
    return uint64_t{0};
  };
  for (const std::string extension : {"4567", "4568", "4569"}) {
    ASSERT_TRUE(system_
                    ->AddPerson("Person " + extension,
                                {{"telephoneNumber", "+1 908 582 " + extension}})
                    .ok());
  }
  ldap::Client client = system_->NewClient();
  devices::MessagingPlatform* mp = system_->mp("mp1");
  mp->faults().set_disconnected(true);
  for (const std::string extension : {"4567", "4568"}) {
    ASSERT_TRUE(client.Replace(dn_of(extension), "MpPin", "2222").ok());
  }
  mp->faults().set_disconnected(false);
  mp->faults().set_drop_notifications(true);
  ASSERT_TRUE(mp->ExecuteCommand("MODIFY MAILBOX 4569 Pin=9999").ok());
  mp->faults().set_drop_notifications(false);
  mp->faults().FailNext(1, StatusCode::kUnavailable);  // 4567's push.

  const uint64_t syncs = system_->update_manager().stats().syncs;
  ASSERT_TRUE(system_->update_manager().Synchronize("mp1").ok());
  EXPECT_EQ(system_->update_manager().stats().syncs, syncs + 1);
  auto pulled = client.Get(dn_of("4569"));
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  EXPECT_EQ(pulled->GetFirst("MpPin"), "9999");
  auto pushed = mp->GetRecord("4568");
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_EQ(pushed->GetFirst("Pin"), "2222");
  auto held = client.Get(dn_of("4567"));
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(held->GetFirst("MpPin"), "2222");
  EXPECT_EQ(backlog(), 1u);

  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  auto repaired = mp->GetRecord("4567");
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->GetFirst("Pin"), "2222");
  EXPECT_EQ(backlog(), 0u);
}

TEST_F(SyncTest, SynchronizeAllCoversEveryDevice) {
  devices::DefinityPbx* pbx = system_->pbx("pbx1");
  pbx->faults().set_drop_notifications(true);
  ASSERT_TRUE(pbx->ExecuteCommand("add station 4567 Name \"A B\"").ok());
  pbx->faults().set_drop_notifications(false);
  ASSERT_TRUE(system_->update_manager().SynchronizeAll().ok());
  EXPECT_GE(system_->update_manager().stats().syncs, 2u);
  ldap::Client client = system_->NewClient();
  EXPECT_TRUE(client.Get("cn=A B,ou=People,o=Lucent").ok());
}

TEST_F(SyncTest, SyncOfDisconnectedDeviceFails) {
  system_->pbx("pbx1")->faults().set_disconnected(true);
  Status status = system_->update_manager().Synchronize("pbx1");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The quiesce window was released: normal updates proceed.
  EXPECT_FALSE(system_->gateway().IsQuiesced());
  system_->pbx("pbx1")->faults().set_disconnected(false);
  EXPECT_TRUE(system_->update_manager().Synchronize("pbx1").ok());
}

TEST_F(SyncTest, SyncUnknownDeviceRejected) {
  EXPECT_EQ(system_->update_manager().Synchronize("pbx42").code(),
            StatusCode::kNotFound);
}

TEST_F(SyncTest, UmCrashBetweenPairRepairedByResync) {
  // §5.1's catastrophic case: the UM dies between ModifyRDN and
  // Modify. Readers see the inconsistent entry until the restart
  // resynchronizes.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  system_->ldap_filter().set_pair_crash_hook(
      [] { return Status::Internal("simulated UM crash"); });

  // DDU changing both the name (RDN) and the room (non-RDN attribute):
  // the "complex DDU" the paper analyzes.
  auto reply = system_->pbx("pbx1")->ExecuteCommand(
      "change station 4567 Name \"John Q Doe\" Room CRASH-1");
  ASSERT_TRUE(reply.ok());  // The device op itself succeeded.

  // Inconsistency window: renamed, but the room never made it.
  ldap::Client client = system_->NewClient();
  auto entry = client.Get("cn=John Q Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_NE(entry->GetFirst("roomNumber"), "CRASH-1");

  // "When the UM restarts and re-synchronizes the directory with the
  // devices, the inconsistencies will be eliminated."
  system_->ldap_filter().set_pair_crash_hook(nullptr);
  ASSERT_TRUE(system_->update_manager().Synchronize("pbx1").ok());
  entry = client.Get("cn=John Q Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->GetFirst("roomNumber"), "CRASH-1");
}

}  // namespace
}  // namespace metacomm::core
