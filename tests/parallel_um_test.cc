#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/integrated_schema.h"
#include "core/metacomm.h"
#include "storage/fs.h"

namespace metacomm::core {
namespace {

/// The parallel Update Manager: N workers over the one update queue.
/// Parameterized on worker_threads so every guarantee is checked both
/// in the paper's single-coordinator shape (1) and in the parallel
/// shape (4).
class ParallelUmTest : public ::testing::TestWithParam<int> {
 protected:
  void BuildSystem(SystemConfig config) {
    config.um.threaded = true;
    config.um.worker_threads = GetParam();
    auto system = MetaCommSystem::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(*system);
  }

  void SetUp() override { BuildSystem(SystemConfig{}); }

  void TearDown() override {
    if (system_ != nullptr) system_->update_manager().Stop();
  }

  /// Polls until `pred` holds or ~5s elapse.
  template <typename Pred>
  bool Eventually(Pred pred) {
    for (int i = 0; i < 5000; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  std::unique_ptr<MetaCommSystem> system_;
};

/// Two device-administrator threads (PBX and MP) plus an LDAP client
/// thread hammer ONE entry. This is the workload that exposed the
/// lock-session aliasing bug: when every DDU locked under the shared
/// UM session, concurrent DDUs on the same entry both "held" the lock
/// re-entrantly and raced; with per-update lock sessions they
/// serialize, so every repository converges with no lost updates.
TEST_P(ParallelUmTest, SameEntryDduAndLdapStressConverges) {
  ASSERT_TRUE(system_
                  ->AddPerson("Hot Entry",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  constexpr int kWrites = 25;
  const std::string dn = "cn=Hot Entry,ou=People,o=Lucent";
  std::atomic<int> failures{0};

  std::thread pbx_admin([this, &failures] {
    for (int i = 0; i < kWrites; ++i) {
      auto reply = system_->pbx("pbx1")->ExecuteCommand(
          "change station 4567 Room PR-" + std::to_string(i));
      if (!reply.ok()) failures.fetch_add(1);
    }
  });
  std::thread mp_admin([this, &failures] {
    for (int i = 0; i < kWrites; ++i) {
      auto reply = system_->mp("mp1")->ExecuteCommand(
          "MODIFY MAILBOX 4567 Pin=" + std::to_string(7000 + i));
      if (!reply.ok()) failures.fetch_add(1);
    }
  });
  std::thread ldap_client([this, &dn, &failures] {
    ldap::Client client = system_->NewClient();
    for (int i = 0; i < kWrites; ++i) {
      Status status = client.Replace(dn, "roomNumber",
                                     "L-" + std::to_string(i));
      if (!status.ok()) failures.fetch_add(1);
    }
  });
  pbx_admin.join();
  mp_admin.join();
  ldap_client.join();
  EXPECT_EQ(failures.load(), 0);

  // No lost update on the MP axis: only the MP thread writes pins, its
  // commands are issued back-to-back, and per-entry FIFO must carry
  // the LAST one into the directory and back to the device.
  const std::string last_pin = std::to_string(7000 + kWrites - 1);
  ldap::Client client = system_->NewClient();
  std::string dir_pin;
  std::string device_pin;
  EXPECT_TRUE(Eventually([&] {
    auto entry = client.Get(dn);
    auto mailbox = system_->mp("mp1")->GetRecord("4567");
    if (!entry.ok() || !mailbox.ok()) return false;
    dir_pin = entry->GetFirst("MpPin");
    device_pin = mailbox->GetFirst("Pin");
    return dir_pin == last_pin && device_pin == last_pin;
  })) << "want pin " << last_pin << ", directory MpPin=" << dir_pin
      << ", mp device Pin=" << device_pin;

  // Convergence on the contended axis: roomNumber was written from
  // both sides, so the winner is timing-dependent — but directory and
  // PBX must agree on it, and it must be one of the written values.
  std::string final_room;
  EXPECT_TRUE(Eventually([&] {
    auto entry = client.Get(dn);
    auto station = system_->pbx("pbx1")->GetRecord("4567");
    if (!entry.ok() || !station.ok()) return false;
    final_room = entry->GetFirst("roomNumber");
    return !final_room.empty() &&
           final_room == station->GetFirst("Room");
  }));
  EXPECT_TRUE(final_room.rfind("PR-", 0) == 0 ||
              final_room.rfind("L-", 0) == 0)
      << "converged to a value nobody wrote: " << final_room;

  EXPECT_EQ(system_->update_manager().stats().errors, 0u);
  // The worker that applied the final item may still be between the
  // directory write and its lock release — poll, don't snapshot.
  EXPECT_TRUE(Eventually([&] {
    return !system_->gateway().lock_table().IsLocked(*ldap::Dn::Parse(dn));
  }));
}

/// Distinct entries from many threads: the workers of the one queue
/// must fan the work out without losing or cross-ordering anything.
TEST_P(ParallelUmTest, DistinctEntriesPropagateInParallel) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string extension = std::to_string(4000 + t * 100 + i);
        Status status = system_->AddPerson(
            "Person " + extension,
            {{"telephoneNumber", "+1 908 582 " + extension}});
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(system_->pbx("pbx1")->StationCount(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(system_->mp("mp1")->MailboxCount(),
            static_cast<size_t>(kThreads * kPerThread));

  UpdateManager::Stats stats = system_->update_manager().stats();
  EXPECT_EQ(stats.errors, 0u);
  ASSERT_EQ(stats.shards.size(), 1u);
  uint64_t enqueued = 0;
  for (const UpdateManager::ShardStats& shard : stats.shards) {
    enqueued += shard.enqueued;
  }
  EXPECT_EQ(enqueued, static_cast<uint64_t>(kThreads * kPerThread));
}

/// A DDU racing a client LDAP write must be serialized behind it, not
/// dropped: with a try-once gateway lock (timeout 0) the retry/backoff
/// loop is the only thing standing between the device update and the
/// §4.4 error log.
TEST_P(ParallelUmTest, DduRetriesContendedLockInsteadOfDropping) {
  SystemConfig config;
  config.gateway.lock_timeout_micros = 0;  // Try-once locks.
  config.um.ddu_lock_retries = 50;
  config.um.ddu_lock_retry_backoff_micros = 1'000;
  BuildSystem(std::move(config));
  ASSERT_TRUE(system_
                  ->AddPerson("Race Target",
                              {{"telephoneNumber", "+1 908 582 4999"}})
                  .ok());

  // Stand in for the racing client write: hold the entry lock from a
  // foreign session while the DDU arrives, then let go.
  ldap::Dn dn = *ldap::Dn::Parse("cn=Race Target,ou=People,o=Lucent");
  uint64_t holder = system_->gateway().NewSession();
  ASSERT_TRUE(system_->gateway().LockEntry(dn, holder).ok());

  std::thread device_admin([this] {
    auto reply = system_->pbx("pbx1")->ExecuteCommand(
        "change station 4999 Room RETRY-1");
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  system_->gateway().UnlockEntry(dn, holder);
  device_admin.join();

  ldap::Client client = system_->NewClient();
  EXPECT_TRUE(Eventually([&] {
    auto entry = client.Get("cn=Race Target,ou=People,o=Lucent");
    return entry.ok() && entry->GetFirst("roomNumber") == "RETRY-1";
  }));
  UpdateManager::Stats stats = system_->update_manager().stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.lock_retries, 1u);
}

/// Stop() with work still queued: the drained items must release
/// their entry locks and fail their waiting callers — not leak locks
/// and hang them forever.
TEST_P(ParallelUmTest, StopReleasesQueuedLocksAndFailsCallers) {
  SystemConfig config;
  // Slow workers so updates pile up behind the one in flight.
  config.um.artificial_processing_delay_micros = 100'000;
  BuildSystem(std::move(config));
  // Provision with a fast system shape is not possible here, so keep
  // the population tiny (each AddPerson pays the artificial delay).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(system_
                    ->AddPerson("Q " + std::to_string(4500 + i),
                                {{"telephoneNumber",
                                  "+1 908 582 " + std::to_string(4500 + i)}})
                    .ok());
  }

  // A client write that will still be queued (or in flight) at Stop:
  // it must return — Ok if a worker got to it, Unavailable if drained.
  std::atomic<bool> replied{false};
  std::thread client_thread([this, &replied] {
    ldap::Client client = system_->NewClient();
    Status status = client.Replace("cn=Q 4500,ou=People,o=Lucent",
                                   "roomNumber", "LAST");
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kUnavailable)
        << status;
    replied.store(true);
  });
  // DDUs against the other entries: submission returns at enqueue, so
  // their entry locks are held by items sitting in the queue.
  for (int i = 1; i < 3; ++i) {
    auto reply = system_->pbx("pbx1")->ExecuteCommand(
        "change station " + std::to_string(4500 + i) + " Room STOP-" +
        std::to_string(i));
    ASSERT_TRUE(reply.ok()) << reply.status();
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  system_->update_manager().Stop();

  // The client's own gateway lock on Q 4500 is released only once its
  // Replace returns, so join before asserting no locks remain.
  client_thread.join();
  EXPECT_TRUE(replied.load());
  for (int i = 0; i < 3; ++i) {
    ldap::Dn dn = *ldap::Dn::Parse("cn=Q " + std::to_string(4500 + i) +
                                   ",ou=People,o=Lucent");
    EXPECT_FALSE(system_->gateway().lock_table().IsLocked(dn))
        << "entry lock leaked across Stop(): " << dn.ToString();
  }
  // New client writes after Stop are refused, not hung.
  ldap::Client client = system_->NewClient();
  Status after = client.Replace("cn=Q 4500,ou=People,o=Lucent",
                                "roomNumber", "AFTER-STOP");
  EXPECT_EQ(after.code(), StatusCode::kUnavailable) << after;
}

/// Stop() racing a popped-but-unfinished batch: a worker holding a
/// multi-item batch (max_batch_size > 1) must fail the units it has
/// not yet propagated with Unavailable and release their entry locks —
/// the drain guarantee extends past the queue into partially-processed
/// batches.
TEST_P(ParallelUmTest, StopDrainsPartiallyPoppedBatches) {
  SystemConfig config;
  config.um.max_batch_size = 8;
  // Each wave pays this, so a popped batch of DDUs straddles Stop().
  config.um.artificial_processing_delay_micros = 50'000;
  BuildSystem(std::move(config));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(system_
                    ->AddPerson("B " + std::to_string(4600 + i),
                                {{"telephoneNumber",
                                  "+1 908 582 " + std::to_string(4600 + i)}})
                    .ok());
  }

  // DDUs return at enqueue time; their entry locks ride the queue (and,
  // after a pop, the worker's in-hand batch).
  for (int i = 0; i < 4; ++i) {
    auto reply = system_->pbx("pbx1")->ExecuteCommand(
        "change station " + std::to_string(4600 + i) + " Room DRAIN-" +
        std::to_string(i));
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  // Let a worker pop its batch and enter the first wave's delay.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  system_->update_manager().Stop();

  // Every lock must be free afterwards — both the queue-drained items
  // and the ones abandoned mid-batch.
  for (int i = 0; i < 4; ++i) {
    ldap::Dn dn = *ldap::Dn::Parse("cn=B " + std::to_string(4600 + i) +
                                   ",ou=People,o=Lucent");
    EXPECT_FALSE(system_->gateway().lock_table().IsLocked(dn))
        << "entry lock leaked across Stop(): " << dn.ToString();
  }
  // Callers arriving after Stop get Unavailable, not a hang.
  ldap::Client client = system_->NewClient();
  Status after = client.Replace("cn=B 4600,ou=People,o=Lucent",
                                "roomNumber", "AFTER-STOP");
  EXPECT_EQ(after.code(), StatusCode::kUnavailable) << after;
}

/// A DDU is acknowledged to the device administrator once its intent
/// is logged. If Stop() abandons it mid-propagation (here: inside the
/// processing delay of its one-unit wave) it was never applied, so its
/// intent must stay pending and replay on the next start — not be
/// resolved as if the update had settled.
TEST_P(ParallelUmTest, DduAbandonedByStopKeepsItsIntentPending) {
  const std::string data_dir = std::string(::testing::TempDir()) +
                               "/metacomm_um_abandon_" +
                               std::to_string(GetParam());
  auto wipe = [&data_dir] {
    auto names = storage::ListDir(data_dir);
    if (!names.ok()) return;
    for (const std::string& name : *names) {
      (void)storage::RemoveFile(data_dir + "/" + name);
    }
  };
  wipe();
  SystemConfig config;
  config.durability.data_dir = data_dir;
  config.durability.wal_fsync = storage::FsyncPolicy::kOff;
  config.durability.checkpoint_interval_micros = 0;
  config.um.max_batch_size = 1;
  config.um.artificial_processing_delay_micros = 200'000;
  BuildSystem(std::move(config));
  ASSERT_TRUE(system_
                  ->AddPerson("Intent Target",
                              {{"telephoneNumber", "+1 908 582 4700"}})
                  .ok());

  auto reply = system_->pbx("pbx1")->ExecuteCommand(
      "change station 4700 Room ABANDONED");
  ASSERT_TRUE(reply.ok()) << reply.status();
  // The worker holds the DDU (the queue is empty again) and sleeps out
  // the wave's processing delay when Stop() interrupts it.
  ASSERT_TRUE(Eventually(
      [&] { return system_->update_manager().QueueDepth() == 0; }));
  system_->update_manager().Stop();

  EXPECT_EQ(system_->durability()->PendingIntents().size(), 1u);
  EXPECT_FALSE(system_->gateway().lock_table().IsLocked(
      *ldap::Dn::Parse("cn=Intent Target,ou=People,o=Lucent")));
  system_.reset();
  wipe();
}

/// A wave talks to all its repositories at once: one unit's pbx1 and
/// mp1 conversations are in flight together. Each device sends its
/// change notification on the conversation's thread after it commits;
/// here each notification waits for the other device's, so going in
/// turn the first would wait out its deadline alone.
TEST(ParallelUmWaveTest, OneUnitHoldsBothConversationsAtOnce) {
  SystemConfig config;
  config.um.threaded = true;
  auto created = MetaCommSystem::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  MetaCommSystem& system = **created;
  std::atomic<bool> pbx_arrived{false};
  std::atomic<bool> mp_arrived{false};
  std::atomic<int> met{0};
  auto wait_for = [&met](std::atomic<bool>* mine, std::atomic<bool>* other) {
    return [&met, mine, other](const devices::DeviceNotification&) {
      mine->store(true);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!other->load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (other->load()) met.fetch_add(1);
    };
  };
  system.pbx("pbx1")->SetNotificationHandler(
      wait_for(&pbx_arrived, &mp_arrived));
  system.mp("mp1")->SetNotificationHandler(
      wait_for(&mp_arrived, &pbx_arrived));

  ASSERT_TRUE(system
                  .AddPerson("Both At Once",
                             {{"telephoneNumber", "+1 908 582 4321"}})
                  .ok());
  EXPECT_EQ(met.load(), 2) << "one conversation ended before the other began";
  EXPECT_EQ(system.pbx("pbx1")->StationCount(), 1u);
  EXPECT_EQ(system.mp("mp1")->MailboxCount(), 1u);
  EXPECT_EQ(system.update_manager().stats().errors, 0u);
  system.update_manager().Stop();
}

/// Every worker takes from one queue, so an update waits only while
/// every worker is busy. One update stalls in its pbx1 conversation (a
/// failing command that takes seconds to answer); the second worker
/// completes updates to other entries during the stall, including
/// entries whose normalized DN hashes to the stalled entry's residue
/// mod 2, which routing by DN hash over two workers queues behind it.
TEST(ParallelUmQueueTest, OtherEntriesCompleteDuringAStalledConversation) {
  SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 2;
  auto created = MetaCommSystem::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  MetaCommSystem& system = **created;
  auto residue = [](const std::string& dn) {
    return std::hash<std::string_view>{}(ldap::Dn::Parse(dn)->Normalized()) %
           2;
  };
  const std::string stalled_dn = "cn=Stalled 4900,ou=People,o=Lucent";
  ASSERT_TRUE(system
                  .AddPerson("Stalled 4900",
                             {{"telephoneNumber", "+1 908 582 4900"}})
                  .ok());
  // Three entries on the stalled entry's residue and one off it, by DN
  // and extension.
  std::vector<std::pair<std::string, std::string>> others;
  int same = 0;
  int other = 0;
  for (int i = 1; i < 64 && (same < 3 || other < 1); ++i) {
    const std::string extension = std::to_string(4900 + i);
    const std::string dn = "cn=Free " + extension + ",ou=People,o=Lucent";
    int& count = residue(dn) == residue(stalled_dn) ? same : other;
    if (count >= (&count == &same ? 3 : 1)) continue;
    ASSERT_TRUE(system
                    .AddPerson("Free " + extension,
                               {{"telephoneNumber", "+1 908 582 " + extension}})
                    .ok());
    ++count;
    others.emplace_back(dn, extension);
  }
  ASSERT_EQ(same, 3);
  ASSERT_EQ(other, 1);

  devices::FaultInjector& faults = system.pbx("pbx1")->faults();
  faults.set_fail_latency_micros(3'000'000);
  faults.FailNext(1);
  std::atomic<bool> stalled_returned{false};
  std::thread stalled([&] {
    ldap::Client client = system.NewClient();
    // The device failure is logged, not returned to the client (§4.4).
    EXPECT_TRUE(client.Replace(stalled_dn, "roomNumber", "STALLED").ok());
    stalled_returned.store(true);
  });
  for (int i = 0; i < 5000 && faults.injected_failures() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(faults.injected_failures(), 1u);

  ldap::Client client = system.NewClient();
  for (size_t i = 0; i < others.size(); ++i) {
    ASSERT_TRUE(client
                    .Replace(others[i].first, "roomNumber",
                             "FREE-" + std::to_string(i))
                    .ok());
  }
  EXPECT_FALSE(stalled_returned.load())
      << "an update to another entry waited out the stall";
  for (size_t i = 0; i < others.size(); ++i) {
    auto station = system.pbx("pbx1")->GetRecord(others[i].second);
    ASSERT_TRUE(station.ok()) << station.status();
    EXPECT_EQ(station->GetFirst("Room"), "FREE-" + std::to_string(i));
  }
  stalled.join();
  EXPECT_EQ(system.update_manager().stats().errors, 1u);
  system.update_manager().Stop();
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelUmTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "workers_" +
                                  std::to_string(info.param);
                         });

/// The counters are relaxed atomics with no lock behind them. Under
/// four workers, concurrent client writers, two PBX technicians and a
/// reader that keeps rendering cn=monitor, every counter must still
/// account for exactly what was issued once the system is quiet.
TEST(ParallelUmCountersTest, LockFreeCountersAreExactUnderContention) {
  SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 4;
  auto created = MetaCommSystem::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  MetaCommSystem& system = **created;
  constexpr int kPeople = 8;
  for (int i = 0; i < kPeople; ++i) {
    std::string extension = std::to_string(4800 + i);
    ASSERT_TRUE(system
                    .AddPerson("Counted " + extension,
                               {{"telephoneNumber", "+1 908 582 " + extension}})
                    .ok());
  }
  const UpdateManager::Stats um_before = system.update_manager().stats();
  const ltap::LtapGateway::Stats gateway_before = system.gateway().stats();

  constexpr int kClients = 3;
  constexpr int kClientWrites = 20;
  constexpr int kTechnicians = 2;
  constexpr int kTechnicianWrites = 20;
  std::atomic<int> failures{0};
  std::atomic<bool> writing{true};
  std::thread monitor_reader([&] {
    ldap::Client client = system.NewClient();
    while (writing.load()) {
      auto entries = client.Search("cn=monitor,o=Lucent", "(objectClass=*)");
      if (!entries.ok() || entries->empty()) failures.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int c = 0; c < kClients; ++c) {
    writers.emplace_back([&, c] {
      ldap::Client client = system.NewClient();
      for (int i = 0; i < kClientWrites; ++i) {
        std::string cn = "Counted " + std::to_string(4800 + (c + i) % kPeople);
        Status status = client.Replace("cn=" + cn + ",ou=People,o=Lucent",
                                       "roomNumber",
                                       "C" + std::to_string(c * 100 + i));
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kTechnicians; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kTechnicianWrites; ++i) {
        auto reply = system.pbx("pbx1")->ExecuteCommand(
            "change station " + std::to_string(4800 + (t + i) % kPeople) +
            " Room T" + std::to_string(t * 100 + i));
        if (!reply.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  writing.store(false);
  monitor_reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesce: the DDUs returned at enqueue time. Once the queue is empty,
  // Stop() joins the workers, so every pop has been counted.
  for (int i = 0; i < 5000 && system.update_manager().QueueDepth() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  system.update_manager().Stop();

  const UpdateManager::Stats um = system.update_manager().stats();
  EXPECT_EQ(um.ldap_updates - um_before.ldap_updates,
            static_cast<uint64_t>(kClients * kClientWrites));
  EXPECT_EQ(um.device_updates - um_before.device_updates,
            static_cast<uint64_t>(kTechnicians * kTechnicianWrites));
  EXPECT_EQ(system.gateway().stats().updates - gateway_before.updates,
            static_cast<uint64_t>(kClients * kClientWrites));
  uint64_t enqueued = 0;
  uint64_t dequeued = 0;
  for (const UpdateManager::ShardStats& shard : um.shards) {
    enqueued += shard.enqueued;
    dequeued += shard.dequeued;
  }
  EXPECT_EQ(enqueued, dequeued);
}

}  // namespace
}  // namespace metacomm::core
