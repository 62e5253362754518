#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "devices/definity_pbx.h"
#include "devices/messaging_platform.h"

namespace metacomm::devices {
namespace {

using lexpress::DescriptorOp;
using lexpress::Record;

class PbxTest : public ::testing::Test {
 protected:
  PbxTest() : pbx_(PbxConfig{.name = "pbx1"}) {}
  DefinityPbx pbx_;
};

TEST_F(PbxTest, AddDisplayRemoveViaOssi) {
  auto reply = pbx_.ExecuteCommand(
      "add station 4567 Name \"John Doe\" Room 2C-401");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "command successfully completed");

  reply = pbx_.ExecuteCommand("display station 4567");
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply->find("Name: John Doe"), std::string::npos);
  EXPECT_NE(reply->find("Room: 2C-401"), std::string::npos);
  EXPECT_NE(reply->find("Cos: 1"), std::string::npos);  // Default.

  ASSERT_TRUE(pbx_.ExecuteCommand("remove station 4567").ok());
  EXPECT_EQ(pbx_.ExecuteCommand("display station 4567").status().code(),
            StatusCode::kNotFound);
}

TEST_F(PbxTest, ChangeMergesFields) {
  ASSERT_TRUE(
      pbx_.ExecuteCommand("add station 4567 Name \"John Doe\"").ok());
  ASSERT_TRUE(pbx_.ExecuteCommand("change station 4567 Room 3F-112").ok());
  auto record = pbx_.GetRecord("4567");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->GetFirst("Name"), "John Doe");  // Preserved.
  EXPECT_EQ(record->GetFirst("Room"), "3F-112");
}

TEST_F(PbxTest, ExtensionChangeRekeys) {
  ASSERT_TRUE(pbx_.ExecuteCommand("add station 4567 Name X").ok());
  ASSERT_TRUE(
      pbx_.ExecuteCommand("change station 4567 Extension 4568").ok());
  EXPECT_EQ(pbx_.GetRecord("4567").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(pbx_.GetRecord("4568").ok());
}

TEST_F(PbxTest, ValidationErrors) {
  // No Name.
  EXPECT_EQ(pbx_.ExecuteCommand("add station 4567").status().code(),
            StatusCode::kInvalidArgument);
  // Bad extension (non-digits / wrong length).
  EXPECT_FALSE(pbx_.ExecuteCommand("add station 45a7 Name X").ok());
  EXPECT_FALSE(pbx_.ExecuteCommand("add station 45 Name X").ok());
  EXPECT_FALSE(pbx_.ExecuteCommand("add station 1234567 Name X").ok());
  // Bad Cos.
  EXPECT_FALSE(pbx_.ExecuteCommand("add station 4567 Name X Cos 9").ok());
  // Unknown field.
  EXPECT_FALSE(
      pbx_.ExecuteCommand("add station 4567 Name X Shoe blue").ok());
  // Duplicate add.
  ASSERT_TRUE(pbx_.ExecuteCommand("add station 4567 Name X").ok());
  EXPECT_EQ(pbx_.ExecuteCommand("add station 4567 Name Y").status().code(),
            StatusCode::kAlreadyExists);
  // Change/remove unknown station.
  EXPECT_EQ(pbx_.ExecuteCommand("change station 9999 Name Z")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pbx_.ExecuteCommand("remove station 9999").status().code(),
            StatusCode::kNotFound);
}

TEST_F(PbxTest, DialPlanPartitionEnforced) {
  DefinityPbx scoped(PbxConfig{.name = "pbx9",
                               .extension_prefixes = {"9"}});
  EXPECT_TRUE(scoped.ExecuteCommand("add station 9000 Name X").ok());
  EXPECT_EQ(
      scoped.ExecuteCommand("add station 5000 Name X").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(scoped.AcceptsExtension("9123"));
  EXPECT_FALSE(scoped.AcceptsExtension("5123"));
}

TEST_F(PbxTest, NotificationsOnCommit) {
  std::vector<DeviceNotification> seen;
  pbx_.SetNotificationHandler(
      [&seen](const DeviceNotification& n) { seen.push_back(n); });
  ASSERT_TRUE(pbx_.ExecuteCommand("add station 4567 Name \"John Doe\"").ok());
  ASSERT_TRUE(pbx_.ExecuteCommand("change station 4567 Room 1A-1").ok());
  ASSERT_TRUE(pbx_.ExecuteCommand("remove station 4567").ok());

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].op, DescriptorOp::kAdd);
  EXPECT_EQ(seen[0].device_name, "pbx1");
  EXPECT_EQ(seen[0].new_record.GetFirst("Name"), "John Doe");
  EXPECT_EQ(seen[1].op, DescriptorOp::kModify);
  EXPECT_EQ(seen[1].old_record.GetFirst("Room"), "");
  EXPECT_EQ(seen[1].new_record.GetFirst("Room"), "1A-1");
  EXPECT_EQ(seen[2].op, DescriptorOp::kDelete);
  EXPECT_EQ(seen[2].old_record.GetFirst("Extension"), "4567");
}

TEST_F(PbxTest, FailedCommandsDoNotNotify) {
  size_t count = 0;
  pbx_.SetNotificationHandler(
      [&count](const DeviceNotification&) { ++count; });
  EXPECT_FALSE(pbx_.ExecuteCommand("add station bad Name X").ok());
  EXPECT_EQ(count, 0u);
}

TEST_F(PbxTest, FaultInjectionDisconnect) {
  pbx_.faults().set_disconnected(true);
  EXPECT_EQ(pbx_.ExecuteCommand("add station 4567 Name X").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(pbx_.GetRecord("4567").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(pbx_.DumpAll().status().code(), StatusCode::kUnavailable);
  pbx_.faults().set_disconnected(false);
  EXPECT_TRUE(pbx_.ExecuteCommand("add station 4567 Name X").ok());
}

TEST_F(PbxTest, FaultInjectionFailNext) {
  pbx_.faults().FailNext(1);
  EXPECT_EQ(pbx_.ExecuteCommand("add station 4567 Name X").status().code(),
            StatusCode::kInternal);
  EXPECT_TRUE(pbx_.ExecuteCommand("add station 4567 Name X").ok());
}

TEST_F(PbxTest, DroppedNotifications) {
  size_t count = 0;
  pbx_.SetNotificationHandler(
      [&count](const DeviceNotification&) { ++count; });
  pbx_.faults().set_drop_notifications(true);
  ASSERT_TRUE(pbx_.ExecuteCommand("add station 4567 Name X").ok());
  EXPECT_EQ(count, 0u);  // Lost — only resync can repair this (§4.4).
  EXPECT_EQ(pbx_.StationCount(), 1u);
}

TEST_F(PbxTest, ListAndDump) {
  ASSERT_TRUE(pbx_.ExecuteCommand("add station 4567 Name A").ok());
  ASSERT_TRUE(pbx_.ExecuteCommand("add station 4568 Name B").ok());
  auto listing = pbx_.ExecuteCommand("list station");
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("4567 A"), std::string::npos);
  EXPECT_NE(listing->find("4568 B"), std::string::npos);
  auto dump = pbx_.DumpAll();
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump->size(), 2u);
}

TEST_F(PbxTest, QuotedValuesAndBadSyntax) {
  EXPECT_FALSE(pbx_.ExecuteCommand("add station 4567 Name").ok());
  EXPECT_FALSE(pbx_.ExecuteCommand("add station 4567 Name \"Unbalanced").ok());
  EXPECT_FALSE(pbx_.ExecuteCommand("frobnicate station 4567").ok());
  EXPECT_FALSE(pbx_.ExecuteCommand("").ok());
}

class MpTest : public ::testing::Test {
 protected:
  MpTest() : mp_(MpConfig{.name = "mp1"}) {}
  MessagingPlatform mp_;
};

TEST_F(MpTest, AddGeneratesSubscriberId) {
  auto reply = mp_.ExecuteCommand(
      "ADD MAILBOX 4567 SubscriberName=\"John Doe\" Pin=1234");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_NE(reply->find("SubscriberId=SUB000001"), std::string::npos);

  reply = mp_.ExecuteCommand("ADD MAILBOX 4568 SubscriberName=X");
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply->find("SUB000002"), std::string::npos);
}

TEST_F(MpTest, CallerSuppliedSubscriberIdIgnored) {
  // §5.5: the device owns generated information.
  Record mailbox("mp");
  mailbox.SetOne("MailboxNumber", "4567");
  mailbox.SetOne("SubscriberName", "John Doe");
  mailbox.SetOne("SubscriberId", "FORGED");
  ASSERT_TRUE(mp_.AddRecord(mailbox).ok());
  auto stored = mp_.GetRecord("4567");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->GetFirst("SubscriberId"), "SUB000001");
}

TEST_F(MpTest, SubscriberIdImmutableAcrossModify) {
  ASSERT_TRUE(
      mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X").ok());
  ASSERT_TRUE(
      mp_.ExecuteCommand("MODIFY MAILBOX 4567 Greeting=standard").ok());
  auto stored = mp_.GetRecord("4567");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->GetFirst("SubscriberId"), "SUB000001");
  EXPECT_EQ(stored->GetFirst("Greeting"), "standard");
  EXPECT_EQ(stored->GetFirst("SubscriberName"), "X");  // Merged.
}

TEST_F(MpTest, ValidationErrors) {
  EXPECT_FALSE(mp_.ExecuteCommand("ADD MAILBOX abc SubscriberName=X").ok());
  EXPECT_FALSE(mp_.ExecuteCommand("ADD MAILBOX 4567").ok());
  EXPECT_FALSE(
      mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X Pin=12").ok());
  EXPECT_FALSE(
      mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X Hat=red").ok());
  ASSERT_TRUE(mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X").ok());
  EXPECT_EQ(mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=Y")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(
      mp_.ExecuteCommand("DELETE MAILBOX 9999").status().code(),
      StatusCode::kNotFound);
}

TEST_F(MpTest, QuotedAssignmentsParse) {
  ASSERT_TRUE(mp_.ExecuteCommand(
                     "ADD MAILBOX 4567 SubscriberName=\"Doe, John\" "
                     "Greeting=\"out of office\"")
                  .ok());
  auto stored = mp_.GetRecord("4567");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->GetFirst("SubscriberName"), "Doe, John");
  EXPECT_EQ(stored->GetFirst("Greeting"), "out of office");
}

TEST_F(MpTest, NotificationCarriesGeneratedId) {
  std::vector<DeviceNotification> seen;
  mp_.SetNotificationHandler(
      [&seen](const DeviceNotification& n) { seen.push_back(n); });
  ASSERT_TRUE(mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X").ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].new_record.GetFirst("SubscriberId"), "SUB000001");
}

TEST_F(MpTest, ShowDeleteList) {
  ASSERT_TRUE(mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X").ok());
  auto shown = mp_.ExecuteCommand("SHOW MAILBOX 4567");
  ASSERT_TRUE(shown.ok());
  EXPECT_NE(shown->find("MailboxNumber=4567"), std::string::npos);
  auto listing = mp_.ExecuteCommand("LIST MAILBOXES");
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("4567"), std::string::npos);
  ASSERT_TRUE(mp_.ExecuteCommand("DELETE MAILBOX 4567").ok());
  EXPECT_EQ(mp_.MailboxCount(), 0u);
}

TEST_F(MpTest, FaultInjection) {
  mp_.faults().set_disconnected(true);
  EXPECT_EQ(mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X")
                .status()
                .code(),
            StatusCode::kUnavailable);
  mp_.faults().set_disconnected(false);
  mp_.faults().FailNext(1);
  EXPECT_EQ(mp_.ExecuteCommand("ADD MAILBOX 4567 SubscriberName=X")
                .status()
                .code(),
            StatusCode::kInternal);
}

// ---------- The store both devices share ----------

/// What the store contract needs to drive one device.
struct StoreCase {
  const char* label;
  std::function<std::unique_ptr<Device>()> make;
  /// A record the device accepts under `key`.
  std::function<Record(const std::string& key)> record;
  /// The device's own command adding that record.
  std::function<std::string(const std::string& key)> add_command;
  /// A field the add hook fills on the first add, and its value.
  const char* hook_field;
  const char* hook_value;
};

void PrintTo(const StoreCase& store_case, std::ostream* os) {
  *os << store_case.label;
}

StoreCase PbxCase() {
  return {"Pbx",
          [] { return std::make_unique<DefinityPbx>(PbxConfig{}); },
          [](const std::string& key) {
            Record record("pbx");
            record.SetOne("Extension", key);
            record.SetOne("Name", "Pat Doe");
            return record;
          },
          [](const std::string& key) {
            return "add station " + key + " Name \"Pat Doe\"";
          },
          "Cos", "1"};
}

StoreCase MpCase() {
  return {"Mp",
          [] { return std::make_unique<MessagingPlatform>(MpConfig{}); },
          [](const std::string& key) {
            Record record("mp");
            record.SetOne("MailboxNumber", key);
            record.SetOne("SubscriberName", "Pat Doe");
            return record;
          },
          [](const std::string& key) {
            return "ADD MAILBOX " + key + " SubscriberName=\"Pat Doe\"";
          },
          "SubscriberId", "SUB000001"};
}

class StoreContractTest : public ::testing::TestWithParam<StoreCase> {
 protected:
  StoreContractTest() : device_(GetParam().make()) {
    device_->SetNotificationHandler(
        [this](const DeviceNotification&) { ++notified_; });
  }

  Record Valid(const std::string& key) { return GetParam().record(key); }
  Record Unknown(const std::string& key) {
    Record record = Valid(key);
    record.SetOne("Bogus", "x");
    return record;
  }
  std::string AddCommand(const std::string& key) {
    return GetParam().add_command(key);
  }

  std::unique_ptr<Device> device_;
  int notified_ = 0;
};

TEST_P(StoreContractTest, RekeyOntoAnExistingKeyIsRefusedSilently) {
  ASSERT_TRUE(device_->AddRecord(Valid("1001")).ok());
  ASSERT_TRUE(device_->AddRecord(Valid("1002")).ok());
  notified_ = 0;
  Record rekey(device_->schema());
  rekey.SetOne(device_->key_field(), "1002");
  EXPECT_EQ(device_->ModifyRecord("1001", rekey, {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(notified_, 0);
  EXPECT_TRUE(device_->GetRecord("1001").ok());
  EXPECT_EQ(device_->DumpAll()->size(), 2u);
}

TEST_P(StoreContractTest, ClearingTheKeyFieldIsIgnored) {
  ASSERT_TRUE(device_->AddRecord(Valid("1001")).ok());
  ASSERT_TRUE(device_
                  ->ModifyRecord("1001", Record(device_->schema()),
                                 {device_->key_field()})
                  .ok());
  StatusOr<Record> stored = device_->GetRecord("1001");
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->GetFirst(device_->key_field()), "1001");
}

TEST_P(StoreContractTest, RejectedWritesNotifyNothing) {
  EXPECT_EQ(device_->AddRecord(Unknown("1001")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(device_->ModifyRecord("1001", Valid("1001"), {}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(device_->DeleteRecord("1001").code(), StatusCode::kNotFound);
  device_->faults().FailNext(1);
  EXPECT_EQ(device_->AddRecord(Valid("1001")).code(), StatusCode::kInternal);
  EXPECT_EQ(notified_, 0);

  ASSERT_TRUE(device_->AddRecord(Valid("1001")).ok());
  EXPECT_EQ(device_->AddRecord(Valid("1001")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(device_->ModifyRecord("1001", Unknown("1001"), {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(notified_, 1);  // The accepted add only.
}

TEST_P(StoreContractTest, EachTypedMutationCountsOnce) {
  const FaultInjector& faults = device_->faults();
  ASSERT_TRUE(device_->AddRecord(Valid("1001")).ok());
  EXPECT_EQ(faults.mutations_seen(), 1u);
  ASSERT_TRUE(device_->ModifyRecord("1001", Valid("1001"), {}).ok());
  EXPECT_EQ(faults.mutations_seen(), 2u);
  ASSERT_TRUE(device_->GetRecord("1001").ok());
  ASSERT_TRUE(device_->DumpAll().ok());
  EXPECT_EQ(faults.mutations_seen(), 2u);  // Reads are not mutations.
  ASSERT_TRUE(device_->DeleteRecord("1001").ok());
  EXPECT_EQ(faults.mutations_seen(), 3u);
  EXPECT_EQ(device_->DeleteRecord("1001").code(), StatusCode::kNotFound);
  EXPECT_EQ(faults.mutations_seen(), 4u);  // A refused one counts too.
}

TEST_P(StoreContractTest, OneCommandPaysOneRoundTrip) {
  LatencyEmulator& latency = device_->latency();
  latency.set_rtt_micros(1);
  ASSERT_TRUE(device_->ExecuteCommand(AddCommand("1001")).ok());
  EXPECT_EQ(latency.round_trips(), 1u);
  // A typed call outside a command pays its own.
  ASSERT_TRUE(device_->GetRecord("1001").ok());
  EXPECT_EQ(latency.round_trips(), 2u);
}

TEST_P(StoreContractTest, RejectedAddsLeaveNoTrace) {
  // Whatever a rejected add tried, the next accepted adds store what
  // they would on a fresh device: on the messaging platform, a
  // rejected ADD mints no SubscriberId.
  EXPECT_FALSE(device_->AddRecord(Unknown("1001")).ok());
  device_->faults().FailNext(1);
  EXPECT_FALSE(device_->ExecuteCommand(AddCommand("1001")).ok());
  ASSERT_TRUE(device_->ExecuteCommand(AddCommand("1001")).ok());
  EXPECT_FALSE(device_->ExecuteCommand(AddCommand("1001")).ok());
  ASSERT_TRUE(device_->AddRecord(Valid("1002")).ok());

  std::unique_ptr<Device> fresh = GetParam().make();
  ASSERT_TRUE(fresh->ExecuteCommand(AddCommand("1001")).ok());
  ASSERT_TRUE(fresh->AddRecord(Valid("1002")).ok());
  for (const char* key : {"1001", "1002"}) {
    EXPECT_EQ(device_->GetRecord(key)->ToString(),
              fresh->GetRecord(key)->ToString())
        << key;
  }
  EXPECT_EQ(device_->GetRecord("1001")->GetFirst(GetParam().hook_field),
            GetParam().hook_value);
}

INSTANTIATE_TEST_SUITE_P(BothDevices, StoreContractTest,
                         ::testing::Values(PbxCase(), MpCase()),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace metacomm::devices
