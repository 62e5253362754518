#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/metacomm.h"

namespace metacomm::core {
namespace {

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

/// With LTAP locking off nothing holds a second update to an entry off
/// the queue, so one drain can carry several updates to the same
/// station. The wave partitioner must split them into one wave each,
/// in queue order: the §5.4 reapplications to the PBX then land oldest
/// first, and the PBX ends on the administrator's last value.
TEST(BatchedPipelineTest, SameEntityItemsOfOneBatchPropagateInOrder) {
  SystemConfig config;
  config.gateway.locking_enabled = false;
  config.um.threaded = true;
  config.um.worker_threads = 1;
  config.um.max_batch_size = 8;
  // The first drain is still in its processing delay when the rest of
  // the burst arrives, so later drains hold several items.
  config.um.artificial_processing_delay_micros = 2'000;
  config.device_command_rtt_micros = 100;  // Counts pbx1 conversations.
  auto system = MetaCommSystem::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status();
  ASSERT_TRUE((*system)
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4321"}})
                  .ok());
  ASSERT_TRUE((*system)
                  ->AddPerson("Jane Roe",
                              {{"telephoneNumber", "+1 908 582 4322"}})
                  .ok());
  UpdateManager& um = (*system)->update_manager();
  const UpdateManager::Stats before = um.stats();
  devices::LatencyEmulator& pbx = (*system)->pbx("pbx1")->latency();
  const uint64_t pbx_before = pbx.round_trips();

  constexpr int kChanges = 12;
  for (int i = 0; i < kChanges; ++i) {
    ASSERT_TRUE((*system)
                    ->pbx("pbx1")
                    ->ExecuteCommand("change station 4321 Room W-" +
                                     std::to_string(i))
                    .ok());
  }
  // One shard is one FIFO: once a client write queued behind the burst
  // has returned, every item of the burst has settled. (An empty queue
  // would not do: Stop() abandons a batch a worker still holds.)
  ldap::Client client = (*system)->NewClient();
  ASSERT_TRUE(client
                  .Replace("cn=Jane Roe,ou=People,o=Lucent", "roomNumber",
                           "3F-112")
                  .ok());
  um.Stop();
  const uint64_t pbx_trips = pbx.round_trips() - pbx_before;

  const UpdateManager::Stats after = um.stats();
  EXPECT_LT(after.batches - before.batches, static_cast<uint64_t>(kChanges));
  // Each terminal command is one round trip. Each change then went in a
  // wave of its own, so its reapplication held its own conversation.
  EXPECT_GE(pbx_trips, static_cast<uint64_t>(2 * kChanges));
  EXPECT_EQ(after.errors, before.errors);
  EXPECT_EQ(after.shutdown_drained, 0u);
  auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->GetFirst("roomNumber"), "W-11");
  auto station = (*system)->pbx("pbx1")->GetRecord("4321");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Room"), "W-11");
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
