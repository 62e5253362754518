#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/integrated_schema.h"
#include "core/metacomm.h"

namespace metacomm::core {
namespace {

/// Full-system scenarios covering the paper's update paths.
class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(SystemConfig{}); }

  void Build(SystemConfig config) {
    auto system = MetaCommSystem::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(*system);
  }

  ldap::Entry MustGet(const std::string& dn) {
    ldap::Client client = system_->NewClient();
    auto entry = client.Get(dn);
    EXPECT_TRUE(entry.ok()) << dn << ": " << entry.status();
    return entry.ok() ? *entry : ldap::Entry();
  }

  std::unique_ptr<MetaCommSystem> system_;
};

TEST_F(IntegrationTest, LdapAddProvisionsBothDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  // PBX station created with name and extension.
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Name"), "John Doe");

  // Mailbox created; its generated SubscriberId flowed back (§5.5).
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok());
  EXPECT_EQ(mailbox->GetFirst("SubscriberName"), "John Doe");

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4567");
  EXPECT_EQ(entry.GetFirst("MpMailboxNumber"), "4567");
  EXPECT_EQ(entry.GetFirst("MpSubscriberId"),
            mailbox->GetFirst("SubscriberId"));
  EXPECT_TRUE(entry.HasObjectClass(kDefinityUserClass));
  EXPECT_TRUE(entry.HasObjectClass(kMpUserClass));
}

TEST_F(IntegrationTest, LdapModifyPropagatesToDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent", "roomNumber",
                           "3F-112")
                  .ok());
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok());
  EXPECT_EQ(station->GetFirst("Room"), "3F-112");
}

TEST_F(IntegrationTest, PhoneNumberChangeRekeysDevices) {
  // The closure chain of §4.2: telephoneNumber drives the PBX
  // extension and the voice mailbox number.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 4999")
                  .ok());

  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4567").ok());
  auto station = system_->pbx("pbx1")->GetRecord("4999");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Name"), "John Doe");

  EXPECT_FALSE(system_->mp("mp1")->GetRecord("4567").ok());
  EXPECT_TRUE(system_->mp("mp1")->GetRecord("4999").ok());

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4999");
  EXPECT_EQ(entry.GetFirst("MpMailboxNumber"), "4999");
}

TEST_F(IntegrationTest, DduPropagatesToDirectoryAndOtherDevice) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  // Direct device update at the PBX terminal.
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand("change station 4567 Room 9Z-900")
                  .ok());
  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("roomNumber"), "9Z-900");
  EXPECT_EQ(entry.GetFirst(kLastUpdaterAttr), "pbx1");
  // The update was reapplied to the originator (write-write
  // convergence, §4.4/§5.4).
  EXPECT_GE(system_->update_manager().stats().reapplications, 1u);
}

TEST_F(IntegrationTest, DduNameChangeRenamesDirectoryEntry) {
  // A PBX name change renames the person entry — the ModifyRDN/Modify
  // pair of §5.1 — and follows through to the messaging platform.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand(
                      "change station 4567 Name \"John Q Doe\"")
                  .ok());

  ldap::Client client = system_->NewClient();
  EXPECT_FALSE(client.Get("cn=John Doe,ou=People,o=Lucent").ok());
  ldap::Entry entry = MustGet("cn=John Q Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4567");
  EXPECT_GE(system_->ldap_filter().pair_operations(), 1u);

  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok());
  EXPECT_EQ(mailbox->GetFirst("SubscriberName"), "John Q Doe");
}

TEST_F(IntegrationTest, MpDduFlowsToDirectory) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(system_->mp("mp1")
                  ->ExecuteCommand("MODIFY MAILBOX 4567 Pin=8642")
                  .ok());
  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("MpPin"), "8642");
  EXPECT_EQ(entry.GetFirst(kLastUpdaterAttr), "mp1");
}

TEST_F(IntegrationTest, LdapDeleteDeprovisionsDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Delete("cn=John Doe,ou=People,o=Lucent").ok());
  EXPECT_EQ(system_->pbx("pbx1")->StationCount(), 0u);
  EXPECT_EQ(system_->mp("mp1")->MailboxCount(), 0u);
}

TEST_F(IntegrationTest, DeviceDeleteDeprovisionsEverywhere) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(
      system_->pbx("pbx1")->ExecuteCommand("remove station 4567").ok());
  // Deletes propagate symmetrically: removing the station deprovisions
  // the person in the directory and on the messaging platform, the
  // mirror image of LdapDeleteDeprovisionsDevices.
  ldap::Client client = system_->NewClient();
  EXPECT_EQ(client.Get("cn=John Doe,ou=People,o=Lucent").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system_->mp("mp1")->MailboxCount(), 0u);
}

TEST_F(IntegrationTest, PartitionMoveBetweenTwoPbxs) {
  // Two switches with disjoint dial plans: moving a phone number from
  // one partition to the other becomes delete+add (§4.2).
  SystemConfig config;
  config.pbxs = {
      PbxMappingParams{.name = "pbx9", .extension_prefix = "9",
                       .phone_prefix = "+1 908 582 "},
      PbxMappingParams{.name = "pbx5", .extension_prefix = "5",
                       .phone_prefix = "+1 908 582 "},
  };
  Build(config);

  ASSERT_TRUE(system_
                  ->AddPerson("Jill Lu",
                              {{"telephoneNumber", "+1 908 582 9123"}})
                  .ok());
  EXPECT_TRUE(system_->pbx("pbx9")->GetRecord("9123").ok());
  EXPECT_EQ(system_->pbx("pbx5")->StationCount(), 0u);

  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=Jill Lu,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 5123")
                  .ok());
  EXPECT_EQ(system_->pbx("pbx9")->StationCount(), 0u);
  auto moved = system_->pbx("pbx5")->GetRecord("5123");
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_EQ(moved->GetFirst("Name"), "Jill Lu");
}

TEST_F(IntegrationTest, FailedDeviceUpdateLogsErrorAndNotifiesAdmin) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  std::vector<std::string> admin_errors;
  system_->update_manager().set_admin_callback(
      [&admin_errors](const Status& error,
                      const lexpress::UpdateDescriptor&) {
        admin_errors.push_back(error.ToString());
      });

  system_->mp("mp1")->faults().FailNext(1);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent", "MpPin",
                           "1357")
                  .ok());

  EXPECT_FALSE(admin_errors.empty());
  EXPECT_GE(system_->update_manager().stats().errors, 1u);
  // "The administrator can browse through the errors" — they live in
  // the directory under cn=errors (§4.4).
  auto errors = client.Search("cn=errors,o=Lucent",
                              "(objectClass=metacommError)");
  ASSERT_TRUE(errors.ok());
  // The container itself plus at least one error entry.
  EXPECT_GE(errors->size(), 2u);
}

TEST_F(IntegrationTest, ClientUpdatesWaitDuringQuiesce) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  // Drop the device and lose a direct update.
  system_->pbx("pbx1")->faults().set_drop_notifications(true);
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand("change station 4567 Room LOST-1")
                  .ok());
  system_->pbx("pbx1")->faults().set_drop_notifications(false);

  // Directory is now stale.
  ldap::Client client = system_->NewClient();
  auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_NE(entry->GetFirst("roomNumber"), "LOST-1");

  // Resynchronize: device wins for its fields (§4.4).
  ASSERT_TRUE(system_->update_manager().Synchronize("pbx1").ok());
  entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->GetFirst("roomNumber"), "LOST-1");
}

TEST_F(IntegrationTest, SagaUndoRevertsAppliedDeviceUpdates) {
  SystemConfig config;
  config.um.saga_undo = true;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  // The PBX (first filter) applies, then the MP fails: the PBX change
  // must be compensated.
  system_->mp("mp1")->faults().FailNext(1);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 4999")
                  .ok());

  // Saga compensation put the station back on 4567.
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  EXPECT_TRUE(station.ok()) << station.status();
  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4999").ok());
  EXPECT_GE(system_->update_manager().stats().undos, 1u);
}

/// A wave talks to its repositories at once, so when the FIRST one
/// (pbx1) fails, mp1 has already applied the unit's update: saga undo
/// compensates it, and both devices end as they began.
TEST_F(IntegrationTest, SagaUndoCompensatesTheOthersWhenTheFirstFails) {
  SystemConfig config;
  config.um.saga_undo = true;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  const UpdateManager::Stats before = system_->update_manager().stats();

  system_->pbx("pbx1")->faults().FailNext(1);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent",
                           "telephoneNumber", "+1 908 582 4999")
                  .ok());

  const UpdateManager::Stats after = system_->update_manager().stats();
  EXPECT_EQ(after.errors - before.errors, 1u);
  EXPECT_EQ(after.device_applies - before.device_applies, 1u);
  EXPECT_EQ(after.undos - before.undos, 1u);
  auto station_after = system_->pbx("pbx1")->GetRecord("4567");
  auto mailbox_after = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(station_after.ok()) << station_after.status();
  ASSERT_TRUE(mailbox_after.ok()) << mailbox_after.status();
  EXPECT_EQ(station_after->attrs(), station->attrs());
  EXPECT_EQ(mailbox_after->attrs(), mailbox->attrs());
  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4999").ok());
  EXPECT_FALSE(system_->mp("mp1")->GetRecord("4999").ok());
}

/// LTAP commits a client ADD before the Update Manager sees it, so the
/// UM writes the directory once more, after the devices: the closure
/// image and the messaging platform's minted SubscriberId (§5.5) ride
/// one Modify. Two commits in all, not three.
TEST_F(IntegrationTest, LdapAddPaysTwoDirectoryCommits) {
  lexpress::UpdateDescriptor add;
  add.op = lexpress::DescriptorOp::kAdd;
  add.schema = "ldap";
  add.source = "ldap";
  add.new_record.set_schema("ldap");
  add.new_record.SetOne("cn", "John Doe");
  add.new_record.SetOne("sn", "Doe");
  add.new_record.SetOne("telephoneNumber", "+1 908 582 4567");
  add.explicit_attrs = {"cn", "sn", "telephoneNumber"};
  add.new_record.SetOne(kLastUpdaterAttr, "ldap");
  auto plan = system_->update_manager().PlanUpdate(add, /*ldap_current=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->final_ldap.Has("DefinityExtension"));

  const uint64_t commits = system_->server().backend().ChangeCount();
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  EXPECT_EQ(system_->server().backend().ChangeCount() - commits, 2u);

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  for (const auto& [attr, value] : plan->final_ldap.attrs()) {
    EXPECT_EQ(entry.GetAll(attr), value) << attr;
  }
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  ASSERT_FALSE(mailbox->GetFirst("SubscriberId").empty());
  EXPECT_EQ(entry.GetFirst("MpSubscriberId"),
            mailbox->GetFirst("SubscriberId"));
  EXPECT_EQ(system_->update_manager().stats().generated_info, 1u);
}

/// Saga undo stops an LDAP ADD's unit at the messaging platform. The
/// client's entry still gets its closure write-back after the devices,
/// but no §5.5 round: nothing the stopped unit's devices returned is
/// folded in.
TEST_F(IntegrationTest, SagaStoppedLdapAddKeepsItsClosureWriteBack) {
  SystemConfig config;
  config.um.saga_undo = true;
  Build(config);
  system_->mp("mp1")->faults().FailNext(1);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  UpdateManager::Stats stats = system_->update_manager().stats();
  EXPECT_EQ(stats.undos, 1u);
  EXPECT_EQ(stats.generated_info, 0u);
  EXPECT_EQ(system_->pbx("pbx1")->StationCount(), 0u);
  EXPECT_EQ(system_->mp("mp1")->MailboxCount(), 0u);
  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4567");
  EXPECT_EQ(entry.GetFirst("MpMailboxNumber"), "4567");
  EXPECT_EQ(entry.GetFirst(kLastUpdaterAttr), "ldap");
  EXPECT_TRUE(entry.HasObjectClass(kDefinityUserClass));
  EXPECT_FALSE(entry.Has("MpSubscriberId"));
}

TEST_F(IntegrationTest, SagaUndoCompensatesOnlyTheFailedUnitOfAWave) {
  SystemConfig config;
  config.um.saga_undo = true;
  config.um.threaded = true;
  config.um.worker_threads = 1;
  config.um.max_batch_size = 8;
  // Every wave pays this; it keeps the worker busy while both DDUs
  // queue up behind a slow directory-only add.
  config.um.artificial_processing_delay_micros = 100'000;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("Alice Saga",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(system_
                  ->AddPerson("Bob Saga",
                              {{"telephoneNumber", "+1 908 582 4568"}})
                  .ok());
  UpdateManager& um = system_->update_manager();
  const UpdateManager::Stats before = um.stats();

  // Occupy the worker: a person outside both devices' partitions is a
  // directory-only unit, so it leaves the devices' fault scripts alone.
  std::thread slow([this] {
    EXPECT_TRUE(system_->AddPerson("No Phone").ok());
  });
  for (int i = 0; i < 5000 && um.stats().batches == before.batches; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Both DDUs queue behind it and drain together as one two-unit wave.
  // Each also renames its person, so the messaging platform's image
  // changes too; the platform fails the wave's first apply: Alice's.
  system_->mp("mp1")->faults().FailNext(1);
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand(
                      "change station 4567 Room SAGA-A Name \"Alicia Saga\"")
                  .ok());
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand(
                      "change station 4568 Room SAGA-B Name \"Robert Saga\"")
                  .ok());
  slow.join();
  for (int i = 0; i < 5000 && um.stats().device_applies <
                                  before.device_applies + 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  um.Stop();

  UpdateManager::Stats after = um.stats();
  EXPECT_GT(after.batch_size_buckets[1], before.batch_size_buckets[1])
      << "the two DDUs did not share a drain";
  // Alice's unit: the mp1 failure compensated its pbx1 reapplication
  // and nothing else. Bob's unit: both devices applied.
  EXPECT_EQ(after.errors - before.errors, 1u);
  EXPECT_EQ(after.undos - before.undos, 1u);
  EXPECT_EQ(after.device_applies - before.device_applies, 3u);
  // Both directory writes stand (§4.4) and each station keeps what its
  // technician set.
  EXPECT_EQ(
      MustGet("cn=Alicia Saga,ou=People,o=Lucent").GetFirst("roomNumber"),
      "SAGA-A");
  EXPECT_EQ(
      MustGet("cn=Robert Saga,ou=People,o=Lucent").GetFirst("roomNumber"),
      "SAGA-B");
  auto alice = system_->pbx("pbx1")->GetRecord("4567");
  auto bob = system_->pbx("pbx1")->GetRecord("4568");
  ASSERT_TRUE(alice.ok() && bob.ok());
  EXPECT_EQ(alice->GetFirst("Room"), "SAGA-A");
  EXPECT_EQ(bob->GetFirst("Room"), "SAGA-B");
}

TEST_F(IntegrationTest, InconsistentExplicitUpdateFirstMappingWins) {
  // The paper's §4.2 conflict example, end to end: a client explicitly
  // sets telephoneNumber AND DefinityExtension to inconsistent values
  // in one atomic Modify. Neither explicit value may be changed; the
  // first mapping in the closure (telephoneNumber -> Extension) feeds
  // the PBX, and DefinityExtension "retains its new value" without
  // propagating further.
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  std::vector<ldap::Modification> mods;
  ldap::Modification phone;
  phone.type = ldap::Modification::Type::kReplace;
  phone.attribute = "telephoneNumber";
  phone.values = {"+1 908 582 4111"};
  mods.push_back(phone);
  ldap::Modification extension;
  extension.type = ldap::Modification::Type::kReplace;
  extension.attribute = "DefinityExtension";
  extension.values = {"4222"};  // Inconsistent with the number!
  mods.push_back(extension);
  ASSERT_TRUE(
      client.Modify("cn=John Doe,ou=People,o=Lucent", std::move(mods))
          .ok());

  ldap::Entry entry = MustGet("cn=John Doe,ou=People,o=Lucent");
  EXPECT_EQ(entry.GetFirst("telephoneNumber"), "+1 908 582 4111");
  EXPECT_EQ(entry.GetFirst("DefinityExtension"), "4222");  // Retained.
  // The PBX followed the FIRST mapping: extension from the number.
  EXPECT_TRUE(system_->pbx("pbx1")->GetRecord("4111").ok());
  EXPECT_FALSE(system_->pbx("pbx1")->GetRecord("4222").ok());
}

TEST_F(IntegrationTest, LdapRenamePropagatesToDevices) {
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client
                  .ModifyRdn("cn=John Doe,ou=People,o=Lucent",
                             "cn=John Q Doe")
                  .ok());
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok());
  EXPECT_EQ(station->GetFirst("Name"), "John Q Doe");
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok());
  EXPECT_EQ(mailbox->GetFirst("SubscriberName"), "John Q Doe");
}

TEST_F(IntegrationTest, MappingValidationDetectsBadCycles) {
  // The generated standard mappings must validate.
  EXPECT_TRUE(system_->update_manager().ValidateMappings().ok());
}

TEST_F(IntegrationTest, StatsAccounting) {
  ASSERT_TRUE(system_
                  ->AddPerson("A B", {{"telephoneNumber",
                                       "+1 908 582 1111"}})
                  .ok());
  ASSERT_TRUE(system_->pbx("pbx1")
                  ->ExecuteCommand("change station 1111 Room R-1")
                  .ok());
  auto stats = system_->update_manager().stats();
  EXPECT_EQ(stats.ldap_updates, 1u);
  EXPECT_EQ(stats.device_updates, 1u);
  EXPECT_GE(stats.device_applies, 3u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
}  // namespace metacomm::core
