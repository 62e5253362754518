#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/device_filter.h"
#include "core/integrated_schema.h"
#include "core/ldap_filter.h"
#include "core/mapping_gen.h"
#include "core/protocol_converters.h"
#include "devices/definity_pbx.h"
#include "devices/messaging_platform.h"
#include "ldap/server.h"

namespace metacomm::core {
namespace {

using devices::DefinityPbx;
using devices::MessagingPlatform;
using lexpress::DescriptorOp;
using lexpress::Record;
using lexpress::UpdateDescriptor;

// ---------- Protocol converters ----------

TEST(PbxProtocolConverterTest, CrudOverOssi) {
  DefinityPbx pbx(devices::PbxConfig{.name = "pbx1"});
  PbxProtocolConverter converter(&pbx);

  Record station("pbx");
  station.SetOne("Extension", "4567");
  station.SetOne("Name", "John Doe");  // Space forces quoting.
  station.SetOne("Room", "2C-401");
  ASSERT_TRUE(converter.Add(station).ok());

  auto fetched = converter.Get("4567");
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->has_value());
  EXPECT_EQ((*fetched)->GetFirst("Name"), "John Doe");
  EXPECT_EQ((*fetched)->GetFirst("Room"), "2C-401");

  // Modify takes the FULL desired image: fields absent from it are
  // cleared at the device.
  Record change = station;
  change.SetOne("Room", "3F-112");
  ASSERT_TRUE(converter.Modify("4567", change).ok());
  fetched = converter.Get("4567");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->GetFirst("Room"), "3F-112");
  EXPECT_EQ((*fetched)->GetFirst("Name"), "John Doe");

  Record without_room = station;
  without_room.Remove("Room");
  ASSERT_TRUE(converter.Modify("4567", without_room).ok());
  fetched = converter.Get("4567");
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE((*fetched)->Has("Room"));  // Removal propagated.

  auto all = converter.DumpAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1u);

  ASSERT_TRUE(converter.Delete("4567").ok());
  fetched = converter.Get("4567");
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE(fetched->has_value());
}

TEST(PbxProtocolConverterTest, KeyChangeViaModify) {
  DefinityPbx pbx(devices::PbxConfig{.name = "pbx1"});
  PbxProtocolConverter converter(&pbx);
  Record station("pbx");
  station.SetOne("Extension", "4567");
  station.SetOne("Name", "X");
  ASSERT_TRUE(converter.Add(station).ok());
  Record rekeyed = station;
  rekeyed.SetOne("Extension", "4999");
  ASSERT_TRUE(converter.Modify("4567", rekeyed).ok());
  auto fetched = converter.Get("4999");
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->has_value());
}

TEST(MpProtocolConverterTest, CrudOverKeywordProtocol) {
  MessagingPlatform mp(devices::MpConfig{.name = "mp1"});
  MpProtocolConverter converter(&mp);

  Record mailbox("mp");
  mailbox.SetOne("MailboxNumber", "4567");
  mailbox.SetOne("SubscriberName", "John Doe");
  ASSERT_TRUE(converter.Add(mailbox).ok());

  auto fetched = converter.Get("4567");
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->has_value());
  EXPECT_EQ((*fetched)->GetFirst("SubscriberName"), "John Doe");
  EXPECT_EQ((*fetched)->GetFirst("SubscriberId"), "SUB000001");

  Record change = mailbox;
  change.SetOne("Greeting", "standard");
  ASSERT_TRUE(converter.Modify("4567", change).ok());
  fetched = converter.Get("4567");
  EXPECT_EQ((*fetched)->GetFirst("Greeting"), "standard");
  // SubscriberName survived (full image carried it); the generated
  // SubscriberId survives regardless.
  EXPECT_EQ((*fetched)->GetFirst("SubscriberName"), "John Doe");
  EXPECT_EQ((*fetched)->GetFirst("SubscriberId"), "SUB000001");

  Record without_greeting = mailbox;
  ASSERT_TRUE(converter.Modify("4567", without_greeting).ok());
  fetched = converter.Get("4567");
  EXPECT_FALSE((*fetched)->Has("Greeting"));  // Removal propagated.

  ASSERT_TRUE(converter.Delete("4567").ok());
  fetched = converter.Get("4567");
  ASSERT_TRUE(fetched.ok());
  EXPECT_FALSE(fetched->has_value());
}

// ---------- Device filter ----------

class DeviceFilterTest : public ::testing::Test {
 protected:
  DeviceFilterTest() : pbx_(devices::PbxConfig{.name = "pbx1"}) {
    PbxMappingParams params;
    params.name = "pbx1";
    auto mappings =
        lexpress::CompileMappings(GeneratePbxMappings(params));
    EXPECT_TRUE(mappings.ok()) << mappings.status();
    filter_ = std::make_unique<DeviceFilter>(
        &pbx_, std::make_unique<PbxProtocolConverter>(&pbx_),
        std::move((*mappings)[0]), std::move((*mappings)[1]));
  }

  UpdateDescriptor AddDescriptor(const char* extension, const char* name,
                                 bool conditional = false) {
    UpdateDescriptor desc;
    desc.op = DescriptorOp::kAdd;
    desc.schema = "pbx";
    desc.conditional = conditional;
    desc.new_record.set_schema("pbx");
    desc.new_record.SetOne("Extension", extension);
    desc.new_record.SetOne("Name", name);
    return desc;
  }

  DefinityPbx pbx_;
  std::unique_ptr<DeviceFilter> filter_;
};

TEST_F(DeviceFilterTest, ApplyAddModifyDelete) {
  auto result = filter_->Apply(AddDescriptor("4567", "John Doe"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->GetFirst("Name"), "John Doe");

  UpdateDescriptor mod;
  mod.op = DescriptorOp::kModify;
  mod.schema = "pbx";
  mod.old_record.SetOne("Extension", "4567");
  mod.new_record.SetOne("Extension", "4567");
  mod.new_record.SetOne("Name", "John Doe");
  mod.new_record.SetOne("Room", "3F-112");
  result = filter_->Apply(mod);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetFirst("Room"), "3F-112");

  UpdateDescriptor del;
  del.op = DescriptorOp::kDelete;
  del.schema = "pbx";
  del.old_record.SetOne("Extension", "4567");
  ASSERT_TRUE(filter_->Apply(del).ok());
  EXPECT_EQ(pbx_.StationCount(), 0u);
}

TEST_F(DeviceFilterTest, ConditionalAddBecomesModify) {
  // §5.4: "add operations are reapplied as conditional modify
  // operations. If a conditional modify fails, the update filters then
  // attempt to add the record."
  ASSERT_TRUE(filter_->Apply(AddDescriptor("4567", "John Doe")).ok());
  // Reapplied add on an existing record: succeeds as a modify.
  auto result = filter_->Apply(AddDescriptor("4567", "John Doe",
                                             /*conditional=*/true));
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(pbx_.StationCount(), 1u);
  EXPECT_EQ(filter_->conditional_fallbacks(), 0u);

  // Reapplied add on a *missing* record: falls back to add.
  result = filter_->Apply(AddDescriptor("4999", "Pat Smith",
                                        /*conditional=*/true));
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(pbx_.StationCount(), 2u);
  EXPECT_EQ(filter_->conditional_fallbacks(), 1u);
}

TEST_F(DeviceFilterTest, NonConditionalAddOnExistingFails) {
  ASSERT_TRUE(filter_->Apply(AddDescriptor("4567", "John Doe")).ok());
  EXPECT_EQ(
      filter_->Apply(AddDescriptor("4567", "John Doe")).status().code(),
      StatusCode::kAlreadyExists);
}

TEST_F(DeviceFilterTest, NormalModifyOnMissingFailsNoAddAttempted) {
  // "If a normal modify fails, no add is attempted" (§5.4).
  UpdateDescriptor mod;
  mod.op = DescriptorOp::kModify;
  mod.schema = "pbx";
  mod.old_record.SetOne("Extension", "4567");
  mod.new_record.SetOne("Extension", "4567");
  mod.new_record.SetOne("Name", "Ghost");
  EXPECT_EQ(filter_->Apply(mod).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(pbx_.StationCount(), 0u);

  mod.conditional = true;
  EXPECT_TRUE(filter_->Apply(mod).ok());
  EXPECT_EQ(pbx_.StationCount(), 1u);
}

TEST_F(DeviceFilterTest, ConditionalDeleteOnMissingIsOk) {
  UpdateDescriptor del;
  del.op = DescriptorOp::kDelete;
  del.schema = "pbx";
  del.old_record.SetOne("Extension", "4567");
  EXPECT_EQ(filter_->Apply(del).status().code(), StatusCode::kNotFound);
  del.conditional = true;
  EXPECT_TRUE(filter_->Apply(del).ok());
}

TEST_F(DeviceFilterTest, DduHandlerFiresForAdminNotForSelf) {
  std::vector<UpdateDescriptor> ddus;
  filter_->SetDduHandler(
      [&ddus](UpdateDescriptor desc) { ddus.push_back(std::move(desc)); });

  // MetaComm's own propagation: suppressed.
  ASSERT_TRUE(filter_->Apply(AddDescriptor("4567", "John Doe")).ok());
  EXPECT_TRUE(ddus.empty());

  // A device administrator at the terminal: forwarded.
  ASSERT_TRUE(
      pbx_.ExecuteCommand("change station 4567 Room 9Z-1").ok());
  ASSERT_EQ(ddus.size(), 1u);
  EXPECT_EQ(ddus[0].op, DescriptorOp::kModify);
  EXPECT_EQ(ddus[0].source, "pbx1");
  EXPECT_EQ(ddus[0].schema, "pbx");
  EXPECT_TRUE(ddus[0].explicit_attrs.count("Room"));
  EXPECT_FALSE(ddus[0].explicit_attrs.count("Name"));
}

// ---------- LDAP filter ----------

class LdapFilterTest : public ::testing::Test {
 protected:
  LdapFilterTest()
      : server_(BuildIntegratedSchema(),
                ldap::ServerConfig{.allow_anonymous_writes = true}),
        filter_(&server_, LdapFilterConfig{}) {
    AddContainers(server_);
  }

  /// o=Lucent and ou=People beneath it.
  static void AddContainers(ldap::LdapServer& server) {
    auto add = [&server](const char* dn_text, const char* cls,
                         const char* attr, const char* value) {
      ldap::Entry entry(*ldap::Dn::Parse(dn_text));
      entry.AddObjectClass("top");
      entry.AddObjectClass(cls);
      entry.SetOne(attr, value);
      EXPECT_TRUE(server.backend().Add(entry).ok());
    };
    add("o=Lucent", "organization", "o", "Lucent");
    add("ou=People,o=Lucent", "organizationalUnit", "ou", "People");
  }

  Record PersonRecord(const char* cn, const char* extension) {
    Record record("ldap");
    record.SetOne("cn", cn);
    record.SetOne("telephoneNumber",
                  std::string("+1 908 582 ") + extension);
    record.SetOne("DefinityExtension", extension);
    record.SetOne(kLastUpdaterAttr, "pbx1");
    return record;
  }

  ldap::LdapServer server_;
  LdapFilter filter_;
};

TEST_F(LdapFilterTest, ApplyAddCreatesSchemaValidEntry) {
  UpdateDescriptor add;
  add.op = DescriptorOp::kAdd;
  add.schema = "ldap";
  add.new_record = PersonRecord("John Doe", "4567");
  auto result = filter_.Apply(add);
  ASSERT_TRUE(result.ok()) << result.status();

  auto entry = filter_.FindByKey("John Doe");
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(entry->has_value());
  EXPECT_TRUE((*entry)->HasObjectClass("inetOrgPerson"));
  EXPECT_TRUE((*entry)->HasObjectClass(kDefinityUserClass));
  EXPECT_TRUE((*entry)->HasObjectClass(kMetacommObjectClass));
  EXPECT_EQ((*entry)->GetFirst("sn"), "Doe");  // Synthesized.
}

TEST_F(LdapFilterTest, KeyChangeProducesModifyRdnModifyPair) {
  UpdateDescriptor add;
  add.op = DescriptorOp::kAdd;
  add.schema = "ldap";
  add.new_record = PersonRecord("John Doe", "4567");
  ASSERT_TRUE(filter_.Apply(add).ok());

  UpdateDescriptor rename;
  rename.op = DescriptorOp::kModify;
  rename.schema = "ldap";
  rename.old_record = PersonRecord("John Doe", "4567");
  rename.new_record = PersonRecord("John Q Doe", "4568");
  ASSERT_TRUE(filter_.Apply(rename).ok());

  EXPECT_EQ(filter_.pair_operations(), 1u);
  auto old_entry = filter_.FindByKey("John Doe");
  ASSERT_TRUE(old_entry.ok());
  EXPECT_FALSE(old_entry->has_value());
  auto new_entry = filter_.FindByKey("John Q Doe");
  ASSERT_TRUE(new_entry.ok());
  ASSERT_TRUE(new_entry->has_value());
  EXPECT_EQ((*new_entry)->GetFirst("DefinityExtension"), "4568");
}

TEST_F(LdapFilterTest, PairCrashLeavesInconsistencyForReaders) {
  // §5.1: if the UM crashes between ModifyRDN and Modify, the entry is
  // renamed but carries the old non-RDN attributes.
  UpdateDescriptor add;
  add.op = DescriptorOp::kAdd;
  add.schema = "ldap";
  add.new_record = PersonRecord("John Doe", "4567");
  ASSERT_TRUE(filter_.Apply(add).ok());

  filter_.set_pair_crash_hook(
      [] { return Status::Internal("simulated UM crash"); });
  UpdateDescriptor rename;
  rename.op = DescriptorOp::kModify;
  rename.schema = "ldap";
  rename.old_record = PersonRecord("John Doe", "4567");
  rename.new_record = PersonRecord("John Q Doe", "4568");
  EXPECT_FALSE(filter_.Apply(rename).ok());

  // Renamed, but the extension was never updated: the §5.1 window.
  auto entry = filter_.FindByKey("John Q Doe");
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(entry->has_value());
  EXPECT_EQ((*entry)->GetFirst("DefinityExtension"), "4567");

  // Recovery: reapplying the same update (resynchronization) finds the
  // entry at the NEW key and completes the modify half idempotently.
  filter_.set_pair_crash_hook(nullptr);
  rename.conditional = true;
  EXPECT_TRUE(filter_.Apply(rename).ok());
  entry = filter_.FindByKey("John Q Doe");
  EXPECT_EQ((*entry)->GetFirst("DefinityExtension"), "4568");
}

TEST_F(LdapFilterTest, DiffRemovesDroppedAttributesOnly) {
  UpdateDescriptor add;
  add.op = DescriptorOp::kAdd;
  add.schema = "ldap";
  add.new_record = PersonRecord("John Doe", "4567");
  add.new_record.SetOne("roomNumber", "2C-401");
  ASSERT_TRUE(filter_.Apply(add).ok());

  // An attribute outside the update's view survives.
  ldap::OpContext ctx;
  ctx.internal = true;
  ldap::Modification mail;
  mail.type = ldap::Modification::Type::kReplace;
  mail.attribute = "mail";
  mail.values = {"jd@lucent.com"};
  ASSERT_TRUE(server_
                  .Modify(ctx, ldap::ModifyRequest{
                                   *ldap::Dn::Parse(
                                       "cn=John Doe,ou=People,o=Lucent"),
                                   {mail}})
                  .ok());

  UpdateDescriptor mod;
  mod.op = DescriptorOp::kModify;
  mod.schema = "ldap";
  mod.old_record = add.new_record;
  mod.new_record = PersonRecord("John Doe", "4567");  // roomNumber gone.
  ASSERT_TRUE(filter_.Apply(mod).ok());

  auto entry = filter_.FindByKey("John Doe");
  ASSERT_TRUE(entry.ok() && entry->has_value());
  EXPECT_FALSE((*entry)->Has("roomNumber"));     // Dropped by update.
  EXPECT_EQ((*entry)->GetFirst("mail"), "jd@lucent.com");  // Untouched.
}

TEST_F(LdapFilterTest, ConditionalSemantics) {
  UpdateDescriptor add;
  add.op = DescriptorOp::kAdd;
  add.schema = "ldap";
  add.conditional = true;
  add.new_record = PersonRecord("John Doe", "4567");
  // Conditional add with no existing entry: plain add.
  ASSERT_TRUE(filter_.Apply(add).ok());
  // Conditional add again: degrades to modify.
  add.new_record.SetOne("roomNumber", "1A-1");
  ASSERT_TRUE(filter_.Apply(add).ok());
  auto entry = filter_.FindByKey("John Doe");
  EXPECT_EQ((*entry)->GetFirst("roomNumber"), "1A-1");

  // Conditional delete on missing: OK.
  UpdateDescriptor del;
  del.op = DescriptorOp::kDelete;
  del.schema = "ldap";
  del.conditional = true;
  del.old_record.SetOne("cn", "Ghost");
  EXPECT_TRUE(filter_.Apply(del).ok());
}

TEST_F(LdapFilterTest, FindByAttrUsesIndex) {
  UpdateDescriptor add;
  add.op = DescriptorOp::kAdd;
  add.schema = "ldap";
  add.new_record = PersonRecord("John Doe", "4567");
  ASSERT_TRUE(filter_.Apply(add).ok());
  auto found = filter_.FindByAttr("DefinityExtension", "4567");
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->GetFirst("cn"), "John Doe");
  found = filter_.FindByAttr("DefinityExtension", "0000");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found->has_value());
}

Record Person(const std::string& cn, const std::string& extension,
              const std::string& room = "") {
  Record record("ldap");
  record.SetOne("cn", cn);
  record.SetOne("telephoneNumber", "+1 908 582 " + extension);
  record.SetOne("DefinityExtension", extension);
  if (!room.empty()) record.SetOne("roomNumber", room);
  return record;
}

// LdapFilter::Apply reads only an update's op and images.
UpdateDescriptor AddStep(const Record& image) {
  return {.op = DescriptorOp::kAdd, .schema = "ldap", .new_record = image};
}

UpdateDescriptor ModifyStep(const Record& old_image, const Record& new_image) {
  return {.op = DescriptorOp::kModify, .schema = "ldap",
          .old_record = old_image, .new_record = new_image};
}

UpdateDescriptor DeleteStep(const Record& old_image) {
  return {.op = DescriptorOp::kDelete, .schema = "ldap",
          .old_record = old_image};
}

/// Each sequence applies one step at a time, as the Update Manager
/// does, and must leave exactly its last images in the directory.
TEST_F(LdapFilterTest, StepSequencesLeaveTheirFinalImages) {
  struct Case {
    const char* name;
    std::vector<UpdateDescriptor> steps;
    std::vector<Record> final_images;
  };
  const std::vector<Case> cases = {
      {"rename A->B, modify, rename B->C",
       {AddStep(Person("A Person", "4567")),
        ModifyStep(Person("A Person", "4567"), Person("B Person", "4567")),
        ModifyStep(Person("B Person", "4567"),
                   Person("B Person", "4567", "2D-505")),
        ModifyStep(Person("B Person", "4567", "2D-505"),
                   Person("C Person", "4567", "2D-505"))},
       {Person("C Person", "4567", "2D-505")}},
      {"rename, then delete by the new key",
       {AddStep(Person("John Doe", "4567")),
        ModifyStep(Person("John Doe", "4567"), Person("John Q Doe", "4567")),
        DeleteStep(Person("John Q Doe", "4567"))},
       {}},
      {"delete, then re-add with a new extension",
       {AddStep(Person("John Doe", "4567")),
        DeleteStep(Person("John Doe", "4567")),
        AddStep(Person("John Doe", "4568"))},
       {Person("John Doe", "4568")}},
      {"add, modify, delete beside a bystander",
       {AddStep(Person("Bystander", "4000")),
        AddStep(Person("Ghost", "4999")),
        ModifyStep(Person("Ghost", "4999"), Person("Ghost", "4999", "2D-404")),
        DeleteStep(Person("Ghost", "4999", "2D-404"))},
       {Person("Bystander", "4000")}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ldap::LdapServer server(BuildIntegratedSchema(),
                            ldap::ServerConfig{.allow_anonymous_writes = true});
    AddContainers(server);
    LdapFilter filter(&server, LdapFilterConfig{});
    for (const UpdateDescriptor& step : c.steps) {
      ApplyResult applied = filter.Apply(step);
      EXPECT_TRUE(applied.ok()) << step.ToString() << ": " << applied.status();
    }
    auto records = filter.DumpAll();
    ASSERT_TRUE(records.ok()) << records.status();
    std::vector<std::string> got;
    for (Record& record : *records) {
      record.Remove("sn");  // Synthesized from cn by ToEntry.
      got.push_back(record.ToString());
    }
    std::vector<std::string> want;
    for (const Record& image : c.final_images) want.push_back(image.ToString());
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_F(LdapFilterTest, RecordEntryRoundTrip) {
  Record record = PersonRecord("John Doe", "4567");
  auto entry = filter_.ToEntry(record);
  ASSERT_TRUE(entry.ok());
  Record back = filter_.ToRecord(*entry);
  EXPECT_EQ(back.GetFirst("cn"), "John Doe");
  EXPECT_EQ(back.GetFirst("DefinityExtension"), "4567");
  EXPECT_FALSE(back.Has("objectClass"));
}

}  // namespace
}  // namespace metacomm::core
