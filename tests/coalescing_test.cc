#include "core/coalescer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/integrated_schema.h"
#include "core/ldap_filter.h"
#include "core/metacomm.h"
#include "ldap/server.h"

namespace metacomm::core {
namespace {

using lexpress::DescriptorOp;
using lexpress::Record;
using lexpress::UpdateDescriptor;

Record PersonRecord(const std::string& cn, const std::string& extension,
                    const std::string& room = "") {
  Record record("ldap");
  record.SetOne("cn", cn);
  record.SetOne("telephoneNumber", "+1 908 582 " + extension);
  record.SetOne("DefinityExtension", extension);
  if (!room.empty()) record.SetOne("roomNumber", room);
  return record;
}

UpdateDescriptor Add(const Record& image, const std::string& source = "ldap") {
  UpdateDescriptor d;
  d.op = DescriptorOp::kAdd;
  d.schema = "ldap";
  d.source = source;
  d.new_record = image;
  for (const auto& [attr, value] : image.attrs()) {
    d.explicit_attrs.insert(attr);
  }
  return d;
}

UpdateDescriptor Modify(const Record& old_image, const Record& new_image,
                        const std::string& source = "ldap") {
  UpdateDescriptor d;
  d.op = DescriptorOp::kModify;
  d.schema = "ldap";
  d.source = source;
  d.old_record = old_image;
  d.new_record = new_image;
  for (const auto& [attr, value] : new_image.attrs()) {
    if (!(old_image.Get(attr) == value)) d.explicit_attrs.insert(attr);
  }
  return d;
}

UpdateDescriptor Delete(const Record& old_image,
                        const std::string& source = "ldap") {
  UpdateDescriptor d;
  d.op = DescriptorOp::kDelete;
  d.schema = "ldap";
  d.source = source;
  d.old_record = old_image;
  return d;
}

// ---------- Merge-rule structure ----------

TEST(CoalesceBatchTest, AddPlusModifyFoldsToAdd) {
  std::vector<UpdateDescriptor> batch = {
      Add(PersonRecord("John Doe", "4567")),
      Modify(PersonRecord("John Doe", "4567"),
             PersonRecord("John Doe", "4567", "2D-101"))};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  ASSERT_EQ(result.units.size(), 1u);
  EXPECT_EQ(result.coalesced_away, 1u);
  const CoalescedUnit& unit = result.units[0];
  EXPECT_EQ(unit.update.op, DescriptorOp::kAdd);
  EXPECT_EQ(unit.update.new_record.GetFirst("roomNumber"), "2D-101");
  EXPECT_EQ(unit.constituents, (std::vector<size_t>{0, 1}));
  // The later modify's explicit attributes join the add's.
  EXPECT_TRUE(unit.update.explicit_attrs.count("roomNumber"));
}

TEST(CoalesceBatchTest, ModifyChainFoldsToSingleModify) {
  std::vector<UpdateDescriptor> batch = {
      Modify(PersonRecord("John Doe", "4567"),
             PersonRecord("John Doe", "4567", "2D-101")),
      Modify(PersonRecord("John Doe", "4567", "2D-101"),
             PersonRecord("John Doe", "4567", "2D-202")),
      Modify(PersonRecord("John Doe", "4567", "2D-202"),
             PersonRecord("John Doe", "4567", "2D-303"))};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  ASSERT_EQ(result.units.size(), 1u);
  EXPECT_EQ(result.coalesced_away, 2u);
  const UpdateDescriptor& folded = result.units[0].update;
  EXPECT_EQ(folded.op, DescriptorOp::kModify);
  // Old image = the FIRST's old (what the repository still holds);
  // new image = the LAST's new.
  EXPECT_EQ(folded.old_record.GetFirst("roomNumber"), "");
  EXPECT_EQ(folded.new_record.GetFirst("roomNumber"), "2D-303");
}

TEST(CoalesceBatchTest, RenameChainFoldsAcrossKeys) {
  // Modify(A->B) then Modify(B->C): the chain is addressed by its
  // current key, so both fold into one Modify(A->C).
  std::vector<UpdateDescriptor> batch = {
      Modify(PersonRecord("A Person", "4567"),
             PersonRecord("B Person", "4567")),
      Modify(PersonRecord("B Person", "4567"),
             PersonRecord("C Person", "4567"))};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  ASSERT_EQ(result.units.size(), 1u);
  const UpdateDescriptor& folded = result.units[0].update;
  EXPECT_EQ(folded.old_record.GetFirst("cn"), "A Person");
  EXPECT_EQ(folded.new_record.GetFirst("cn"), "C Person");
}

TEST(CoalesceBatchTest, ModifyPlusDeleteTargetsOriginalKey) {
  // Rename then delete: the repository never saw the rename, so the
  // folded delete must target the key the repository still holds.
  std::vector<UpdateDescriptor> batch = {
      Modify(PersonRecord("John Doe", "4567"),
             PersonRecord("John Q Doe", "4567")),
      Delete(PersonRecord("John Q Doe", "4567"))};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  ASSERT_EQ(result.units.size(), 1u);
  EXPECT_EQ(result.units[0].update.op, DescriptorOp::kDelete);
  EXPECT_EQ(result.units[0].update.old_record.GetFirst("cn"), "John Doe");
  EXPECT_TRUE(result.units[0].update.new_record.empty());
}

TEST(CoalesceBatchTest, AddPlusDeleteAnnihilates) {
  std::vector<UpdateDescriptor> batch = {
      Add(PersonRecord("Ghost", "4999")),
      Modify(PersonRecord("Ghost", "4999"),
             PersonRecord("Ghost", "4999", "2D-404")),
      Delete(PersonRecord("Ghost", "4999", "2D-404")),
      // A later Add of the same key is a NEW entity, not a merge into
      // the ended chain.
      Add(PersonRecord("Ghost", "4888"))};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  ASSERT_EQ(result.units.size(), 2u);
  EXPECT_TRUE(result.units[0].annihilated);
  EXPECT_EQ(result.units[0].constituents, (std::vector<size_t>{0, 1, 2}));
  EXPECT_FALSE(result.units[1].annihilated);
  EXPECT_EQ(result.units[1].update.new_record.GetFirst("DefinityExtension"),
            "4888");
}

TEST(CoalesceBatchTest, DeleteIsABarrier) {
  // Delete then re-Add: two units, in queue order.
  std::vector<UpdateDescriptor> batch = {
      Delete(PersonRecord("John Doe", "4567")),
      Add(PersonRecord("John Doe", "4568"))};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  ASSERT_EQ(result.units.size(), 2u);
  EXPECT_EQ(result.coalesced_away, 0u);
  EXPECT_EQ(result.units[0].update.op, DescriptorOp::kDelete);
  EXPECT_EQ(result.units[1].update.op, DescriptorOp::kAdd);
}

TEST(CoalesceBatchTest, CrossOriginatorNeverMerges) {
  // Same entity, different sources: the §5.4 conditional machinery
  // keys off the originator, so these must stay separate units.
  std::vector<UpdateDescriptor> batch = {
      Modify(PersonRecord("John Doe", "4567"),
             PersonRecord("John Doe", "4567", "2D-101"), "pbx1"),
      Modify(PersonRecord("John Doe", "4567", "2D-101"),
             PersonRecord("John Doe", "4567", "2D-202"), "mp1")};
  CoalesceResult result = CoalesceBatch(batch, "cn");
  EXPECT_EQ(result.units.size(), 2u);
  EXPECT_EQ(result.coalesced_away, 0u);
}

TEST(CoalesceBatchTest, ConditionalFlagMismatchNeverMerges) {
  UpdateDescriptor first = Modify(PersonRecord("John Doe", "4567"),
                                  PersonRecord("John Doe", "4567", "X"));
  UpdateDescriptor second = Modify(PersonRecord("John Doe", "4567", "X"),
                                   PersonRecord("John Doe", "4567", "Y"));
  second.conditional = true;
  CoalesceResult result = CoalesceBatch({first, second}, "cn");
  EXPECT_EQ(result.units.size(), 2u);
}

// ---------- Golden equivalence ----------
//
// Applying the coalesced batch must leave a repository in EXACTLY the
// state the uncoalesced sequence would have: two fresh directories, one
// per path, compared attribute-for-attribute after the dust settles.

class CoalescingGoldenTest : public ::testing::Test {
 protected:
  static std::unique_ptr<ldap::LdapServer> NewServer() {
    auto server = std::make_unique<ldap::LdapServer>(
        BuildIntegratedSchema(),
        ldap::ServerConfig{.allow_anonymous_writes = true});
    auto add = [&server](const char* dn_text, const char* cls,
                         const char* attr, const char* value) {
      ldap::Entry entry(*ldap::Dn::Parse(dn_text));
      entry.AddObjectClass("top");
      entry.AddObjectClass(cls);
      entry.SetOne(attr, value);
      EXPECT_TRUE(server->backend().Add(entry).ok());
    };
    add("o=Lucent", "organization", "o", "Lucent");
    add("ou=People,o=Lucent", "organizationalUnit", "ou", "People");
    return server;
  }

  /// Applies `seed` then the batch item-by-item (the max_batch_size=1
  /// world) and returns the directory's final state.
  static std::vector<std::string> Sequential(
      const std::vector<UpdateDescriptor>& seed,
      const std::vector<UpdateDescriptor>& batch) {
    auto server = NewServer();
    LdapFilter filter(server.get(), LdapFilterConfig{});
    for (const UpdateDescriptor& d : seed) {
      EXPECT_TRUE(filter.Apply(d).ok());
    }
    for (const UpdateDescriptor& d : batch) {
      EXPECT_TRUE(filter.Apply(d).ok());
    }
    return Dump(filter);
  }

  /// Applies `seed`, coalesces the batch, applies the folded units.
  static std::vector<std::string> Coalesced(
      const std::vector<UpdateDescriptor>& seed,
      const std::vector<UpdateDescriptor>& batch) {
    auto server = NewServer();
    LdapFilter filter(server.get(), LdapFilterConfig{});
    for (const UpdateDescriptor& d : seed) {
      EXPECT_TRUE(filter.Apply(d).ok());
    }
    CoalesceResult folded = CoalesceBatch(batch, filter.key_attr());
    for (const CoalescedUnit& unit : folded.units) {
      if (unit.annihilated) continue;
      EXPECT_TRUE(filter.Apply(unit.update).ok());
    }
    return Dump(filter);
  }

  static std::vector<std::string> Dump(LdapFilter& filter) {
    auto records = filter.DumpAll();
    EXPECT_TRUE(records.ok()) << records.status();
    std::vector<std::string> out;
    if (!records.ok()) return out;
    for (const Record& record : *records) out.push_back(record.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }

  void ExpectEquivalent(const std::vector<UpdateDescriptor>& seed,
                        const std::vector<UpdateDescriptor>& batch) {
    std::vector<std::string> sequential = Sequential(seed, batch);
    std::vector<std::string> coalesced = Coalesced(seed, batch);
    EXPECT_EQ(sequential, coalesced);
  }
};

TEST_F(CoalescingGoldenTest, AddThenModifies) {
  ExpectEquivalent(
      {},
      {Add(PersonRecord("John Doe", "4567")),
       Modify(PersonRecord("John Doe", "4567"),
              PersonRecord("John Doe", "4567", "2D-101")),
       Modify(PersonRecord("John Doe", "4567", "2D-101"),
              PersonRecord("John Doe", "4567", "2D-202"))});
}

TEST_F(CoalescingGoldenTest, ModifyChainOnExistingEntry) {
  ExpectEquivalent(
      {Add(PersonRecord("John Doe", "4567"))},
      {Modify(PersonRecord("John Doe", "4567"),
              PersonRecord("John Doe", "4567", "2D-101")),
       Modify(PersonRecord("John Doe", "4567", "2D-101"),
              PersonRecord("John Doe", "4567", "2D-202"))});
}

TEST_F(CoalescingGoldenTest, ModifyThenDelete) {
  ExpectEquivalent({Add(PersonRecord("John Doe", "4567"))},
                   {Modify(PersonRecord("John Doe", "4567"),
                           PersonRecord("John Doe", "4567", "2D-101")),
                    Delete(PersonRecord("John Doe", "4567", "2D-101"))});
}

TEST_F(CoalescingGoldenTest, AddModifyDeleteAnnihilation) {
  ExpectEquivalent({Add(PersonRecord("Bystander", "4000"))},
                   {Add(PersonRecord("Ghost", "4999")),
                    Modify(PersonRecord("Ghost", "4999"),
                           PersonRecord("Ghost", "4999", "2D-404")),
                    Delete(PersonRecord("Ghost", "4999", "2D-404"))});
}

TEST_F(CoalescingGoldenTest, RenameInterleavings) {
  // Rename A->B, modify B, rename B->C: one unit must land the entry
  // at C with the final room — same as replaying every step.
  ExpectEquivalent(
      {Add(PersonRecord("A Person", "4567"))},
      {Modify(PersonRecord("A Person", "4567"),
              PersonRecord("B Person", "4567")),
       Modify(PersonRecord("B Person", "4567"),
              PersonRecord("B Person", "4567", "2D-505")),
       Modify(PersonRecord("B Person", "4567", "2D-505"),
              PersonRecord("C Person", "4567", "2D-505"))});
}

TEST_F(CoalescingGoldenTest, RenameThenDeleteTargetsRepositoryKey) {
  ExpectEquivalent({Add(PersonRecord("John Doe", "4567"))},
                   {Modify(PersonRecord("John Doe", "4567"),
                           PersonRecord("John Q Doe", "4567")),
                    Delete(PersonRecord("John Q Doe", "4567"))});
}

TEST_F(CoalescingGoldenTest, DeleteThenReAddBarrier) {
  ExpectEquivalent({Add(PersonRecord("John Doe", "4567"))},
                   {Delete(PersonRecord("John Doe", "4567")),
                    Add(PersonRecord("John Doe", "4568"))});
}

TEST_F(CoalescingGoldenTest, IndependentEntitiesInterleaved) {
  ExpectEquivalent(
      {Add(PersonRecord("Alpha", "4001")), Add(PersonRecord("Beta", "4002"))},
      {Modify(PersonRecord("Alpha", "4001"),
              PersonRecord("Alpha", "4001", "2D-A")),
       Modify(PersonRecord("Beta", "4002"),
              PersonRecord("Beta", "4002", "2D-B")),
       Modify(PersonRecord("Alpha", "4001", "2D-A"),
              PersonRecord("Alpha", "4001", "2D-AA")),
       Delete(PersonRecord("Beta", "4002", "2D-B"))});
}

// ---------- Batched pipeline end to end ----------

/// The full batched path (max_batch_size > 1) through a live system:
/// concurrent writers on distinct entries form real waves, and the
/// final repository state must match what sequential processing gives.
TEST(BatchedPipelineTest, ConvergesWithBatchingEnabled) {
  SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 1;
  config.um.max_batch_size = 8;
  // A small per-conversation cost so items genuinely pile up behind
  // the in-flight wave and PopBatch returns real multi-item batches.
  config.um.artificial_processing_delay_micros = 2'000;
  auto system = MetaCommSystem::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&system, t, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string extension = std::to_string(4000 + t * 100 + i);
        Status status = (*system)->AddPerson(
            "Person " + extension,
            {{"telephoneNumber", "+1 908 582 " + extension}});
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*system)->pbx("pbx1")->StationCount(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ((*system)->mp("mp1")->MailboxCount(),
            static_cast<size_t>(kThreads * kPerThread));

  UpdateManager::Stats stats = (*system)->update_manager().stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.batches, 0u);
  (*system)->update_manager().Stop();
}

/// The paper's shape (max_batch_size=1) runs the same pipeline: a lone
/// update is a one-unit wave that holds ONE conversation per device —
/// the converter's display/change/display commands all ride it —
/// whether a worker drains it or the client's thread runs it inline.
class LoneUpdateTest : public ::testing::TestWithParam<bool> {};

TEST_P(LoneUpdateTest, PaysOneConversationPerRepository) {
  SystemConfig config;
  config.um.threaded = GetParam();
  config.um.max_batch_size = 1;
  config.device_command_rtt_micros = 100;
  auto system = MetaCommSystem::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status();
  ASSERT_TRUE((*system)
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::LatencyEmulator& pbx = (*system)->pbx("pbx1")->latency();
  devices::LatencyEmulator& mp = (*system)->mp("mp1")->latency();
  const uint64_t pbx_before = pbx.round_trips();
  const uint64_t mp_before = mp.round_trips();

  // A room and PIN change: both devices' images change.
  ldap::Client client = (*system)->NewClient();
  ASSERT_TRUE(
      client
          .Modify("cn=John Doe,ou=People,o=Lucent",
                  {{ldap::Modification::Type::kReplace, "roomNumber",
                    {"3F-112"}},
                   {ldap::Modification::Type::kReplace, "MpPin", {"2468"}}})
          .ok());

  EXPECT_EQ(pbx.round_trips() - pbx_before, 1u);
  EXPECT_EQ(mp.round_trips() - mp_before, 1u);
  auto station = (*system)->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Room"), "3F-112");
  EXPECT_EQ((*system)->update_manager().stats().errors, 0u);
  (*system)->update_manager().Stop();
}

/// A room change leaves the messaging platform's image as it is, so the
/// plan holds no mp1 op and the platform is not even called.
TEST_P(LoneUpdateTest, RoomChangeTalksToThePbxOnly) {
  SystemConfig config;
  config.um.threaded = GetParam();
  config.um.max_batch_size = 1;
  config.device_command_rtt_micros = 100;
  auto system = MetaCommSystem::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status();
  ASSERT_TRUE((*system)
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::LatencyEmulator& pbx = (*system)->pbx("pbx1")->latency();
  devices::LatencyEmulator& mp = (*system)->mp("mp1")->latency();
  const uint64_t pbx_before = pbx.round_trips();
  const uint64_t mp_before = mp.round_trips();
  const uint64_t applies_before =
      (*system)->update_manager().stats().device_applies;

  ldap::Client client = (*system)->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=John Doe,ou=People,o=Lucent", "roomNumber",
                           "3F-112")
                  .ok());

  EXPECT_EQ(pbx.round_trips() - pbx_before, 1u);
  EXPECT_EQ(mp.round_trips() - mp_before, 0u);
  EXPECT_EQ((*system)->update_manager().stats().device_applies -
                applies_before,
            1u);
  auto station = (*system)->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Room"), "3F-112");
  EXPECT_EQ((*system)->update_manager().stats().errors, 0u);
  (*system)->update_manager().Stop();
}

INSTANTIATE_TEST_SUITE_P(Modes, LoneUpdateTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "threaded" : "synchronous";
                         });

}  // namespace
}  // namespace metacomm::core
