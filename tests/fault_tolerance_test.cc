#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/circuit_breaker.h"
#include "core/error_log.h"
#include "core/integrated_schema.h"
#include "core/metacomm.h"
#include "devices/device.h"

namespace metacomm::core {
namespace {

// ---------------------------------------------------------------------
// CircuitBreaker unit tests.
// ---------------------------------------------------------------------

CircuitBreaker::Options TestOptions() {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_backoff_micros = 1'000;
  options.max_backoff_micros = 8'000;
  return options;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveRetryableFailures) {
  CircuitBreaker breaker(TestOptions());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.OnRetryableFailure(100);
  breaker.OnRetryableFailure(200);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(300));
  breaker.OnRetryableFailure(300);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Open: refused (and counted) until the backoff deadline passes.
  EXPECT_FALSE(breaker.Allow(300 + 999));
  EXPECT_EQ(breaker.snapshot().skipped, 1u);
  EXPECT_TRUE(breaker.Allow(300 + 1'000));  // The half-open probe.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, SuccessfulProbeClosesAndResets) {
  CircuitBreaker breaker(TestOptions());
  for (int i = 0; i < 3; ++i) breaker.OnRetryableFailure(100);
  ASSERT_TRUE(breaker.Allow(100 + 1'000));
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.snapshot().consecutive_failures, 0);
  EXPECT_EQ(breaker.snapshot().backoff_micros, 0);
}

TEST(CircuitBreakerTest, FailedProbeDoublesBackoffUpToCap) {
  CircuitBreaker breaker(TestOptions());
  int64_t now = 0;
  for (int i = 0; i < 3; ++i) breaker.OnRetryableFailure(now);
  EXPECT_EQ(breaker.snapshot().backoff_micros, 1'000);

  for (int64_t expected : {2'000, 4'000, 8'000, 8'000}) {
    now += 1'000'000;  // Well past any deadline: probe admitted.
    ASSERT_TRUE(breaker.Allow(now));
    breaker.OnRetryableFailure(now);  // Probe failed: re-open, double.
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.snapshot().backoff_micros, expected);
  }
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbeButReadmitsStaleOnes) {
  CircuitBreaker breaker(TestOptions());
  for (int i = 0; i < 3; ++i) breaker.OnRetryableFailure(0);
  ASSERT_TRUE(breaker.Allow(1'000));   // Probe admitted at t=1000.
  EXPECT_FALSE(breaker.Allow(1'500));  // In-flight probe blocks others.
  // A probe older than one backoff interval is presumed abandoned.
  EXPECT_TRUE(breaker.Allow(1'000 + 1'001));
}

TEST(CircuitBreakerTest, ForceCloseIsAdministrativeReset) {
  CircuitBreaker breaker(TestOptions());
  for (int i = 0; i < 3; ++i) breaker.OnRetryableFailure(0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  breaker.ForceClose();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(1));
}

TEST(CircuitBreakerTest, DisabledBreakerNeverOpens) {
  CircuitBreaker::Options options = TestOptions();
  options.enabled = false;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 10; ++i) breaker.OnRetryableFailure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(0));
}

// ---------------------------------------------------------------------
// FaultInjector schedule tests.
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, ScheduledOutageCoversExactWindow) {
  devices::FaultInjector faults;
  faults.ScheduleOutage(/*after_commands=*/2, /*length_commands=*/3);
  // Commands 0 and 1 pass, 2..4 fail, 5 recovers.
  EXPECT_TRUE(faults.OnMutation("dev").ok());
  EXPECT_TRUE(faults.OnMutation("dev").ok());
  for (int i = 0; i < 3; ++i) {
    Status status = faults.OnMutation("dev");
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << i;
  }
  EXPECT_TRUE(faults.OnMutation("dev").ok());
  EXPECT_EQ(faults.mutations_seen(), 6u);
  EXPECT_EQ(faults.injected_failures(), 3u);
}

TEST(FaultInjectorTest, ReadsBlockedOnlyWhileWindowActive) {
  devices::FaultInjector faults;
  faults.ScheduleOutage(/*after_commands=*/0, /*length_commands=*/2);
  EXPECT_TRUE(faults.ReadBlocked());
  EXPECT_TRUE(faults.ReadBlocked());
  // Reads do not advance the window; mutations do.
  EXPECT_TRUE(faults.ReadBlocked());
  EXPECT_FALSE(faults.OnMutation("dev").ok());
  EXPECT_FALSE(faults.OnMutation("dev").ok());
  EXPECT_FALSE(faults.ReadBlocked());
  EXPECT_TRUE(faults.OnMutation("dev").ok());
}

TEST(FaultInjectorTest, FailNextCarriesTypedStatusCode) {
  devices::FaultInjector faults;
  faults.FailNext(2, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(faults.OnMutation("dev").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(faults.OnMutation("dev").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(faults.OnMutation("dev").ok());
}

TEST(FaultInjectorTest, ProbabilisticFaultsDeterministicUnderSeed) {
  auto run = [] {
    devices::FaultInjector faults;
    faults.set_seed(42);
    faults.set_error_probability(0.5);
    faults.set_error_code(StatusCode::kDeadlineExceeded);
    std::vector<bool> outcomes;
    for (int i = 0; i < 32; ++i) {
      outcomes.push_back(faults.OnMutation("dev").ok());
    }
    return outcomes;
  };
  std::vector<bool> first = run();
  EXPECT_EQ(first, run());
  // p=0.5 over 32 trials: both outcomes occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 32);
}

// ---------------------------------------------------------------------
// Error-log serialization round-trip.
// ---------------------------------------------------------------------

TEST(ErrorLogTest, EscapeRoundTripsMetacharacters) {
  // The error log now escapes through the shared storage codec.
  const std::string nasty = "a=b,c%d==,,100% and\nnewline";
  std::string escaped = storage::EscapeToken(nasty);
  EXPECT_EQ(escaped.find('='), std::string::npos);
  EXPECT_EQ(escaped.find(','), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  auto back = storage::UnescapeToken(escaped);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, nasty);
}

TEST(ErrorLogTest, EncodeParseRoundTripsDescriptor) {
  LoggedFailure failure;
  failure.sequence = 17;
  failure.repository = "mp1";
  failure.outcome = ApplyOutcome::kRetryable;
  failure.error = Status::Unavailable("mp1: link down");
  failure.update.op = lexpress::DescriptorOp::kModify;
  failure.update.schema = "mp";
  failure.update.source = "ldap";
  failure.update.conditional = true;
  failure.update.explicit_attrs = {"Pin"};
  failure.update.old_record = lexpress::Record("mp");
  failure.update.old_record.Set("MailboxNumber", {"4567"});
  failure.update.old_record.Set("Pin", {"1234"});
  failure.update.new_record = lexpress::Record("mp");
  failure.update.new_record.Set("MailboxNumber", {"4567"});
  // Values exercising the image-encoding metacharacters.
  failure.update.new_record.Set("Pin", {"12%34", "a=b", "x,y"});
  failure.update.new_record.Set("SubscriberName", {"Doe, John"});

  auto dn = ldap::Dn::Parse("cn=error-17,cn=errors,o=Lucent");
  ASSERT_TRUE(dn.ok());
  ldap::Entry entry(*dn);
  EncodeFailure(failure, &entry);

  auto parsed = ParseErrorEntry(entry);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->sequence, 17u);
  EXPECT_EQ(parsed->repository, "mp1");
  EXPECT_EQ(parsed->outcome, ApplyOutcome::kRetryable);
  EXPECT_TRUE(parsed->replayable());
  EXPECT_EQ(parsed->update.op, lexpress::DescriptorOp::kModify);
  EXPECT_EQ(parsed->update.schema, "mp");
  EXPECT_EQ(parsed->update.source, "ldap");
  EXPECT_TRUE(parsed->update.conditional);
  EXPECT_EQ(parsed->update.explicit_attrs, failure.update.explicit_attrs);
  EXPECT_EQ(parsed->update.old_record.Get("Pin"),
            std::vector<std::string>{"1234"});
  std::vector<std::string> pins = {"12%34", "a=b", "x,y"};
  EXPECT_EQ(parsed->update.new_record.Get("Pin"), pins);
  EXPECT_EQ(parsed->update.new_record.GetFirst("SubscriberName"),
            "Doe, John");
}

TEST(ErrorLogTest, AuditOnlyEntriesAreRejected) {
  auto dn = ldap::Dn::Parse("cn=errors,o=Lucent");
  ASSERT_TRUE(dn.ok());
  ldap::Entry container(*dn);  // No errorSeq: the container itself.
  auto parsed = ParseErrorEntry(container);
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorLogTest, PermanentFailuresAreNotReplayable) {
  LoggedFailure failure;
  failure.sequence = 1;
  failure.repository = "pbx1";
  failure.outcome = ApplyOutcome::kPermanent;
  EXPECT_FALSE(failure.replayable());
  failure.outcome = ApplyOutcome::kSkippedOpenCircuit;
  EXPECT_TRUE(failure.replayable());
  failure.repository.clear();  // Audit-only: no replay target.
  EXPECT_FALSE(failure.replayable());
}

// ---------------------------------------------------------------------
// End-to-end fault tolerance: outage -> degraded -> recovery.
// ---------------------------------------------------------------------

class FaultToleranceTest : public ::testing::Test {
 protected:
  void Build(SystemConfig config) {
    auto system = MetaCommSystem::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status();
    system_ = std::move(*system);
  }

  /// Replayable (errorSeq-bearing) entries under cn=errors.
  std::vector<ldap::Entry> ErrorEntries() {
    ldap::Client client = system_->NewClient();
    auto found = client.Search("cn=errors,o=Lucent",
                               "(objectClass=metacommError)");
    if (!found.ok()) return {};
    std::vector<ldap::Entry> entries;
    for (ldap::Entry& entry : *found) {
      if (!entry.GetFirst("errorSeq").empty()) {
        entries.push_back(std::move(entry));
      }
    }
    return entries;
  }

  uint64_t BacklogFor(const std::string& repository) {
    for (const UpdateManager::Stats::RepositoryStats& repo :
         system_->update_manager().stats().repositories) {
      if (repo.name == repository) return repo.replay_backlog;
    }
    return 0;
  }

  std::unique_ptr<MetaCommSystem> system_;
};

TEST_F(FaultToleranceTest, BreakerOpensAndHealthyPathContinues) {
  SystemConfig config;
  config.um.breaker_failure_threshold = 2;
  // Backoff far beyond the test's lifetime: no probes sneak through.
  config.um.breaker_open_backoff_micros = 60'000'000;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  const uint64_t mutations_before =
      system_->mp("mp1")->faults().mutations_seen();
  system_->mp("mp1")->faults().set_disconnected(true);
  ldap::Client client = system_->NewClient();
  const std::string dn = "cn=John Doe,ou=People,o=Lucent";
  for (int i = 0; i < 5; ++i) {
    // Client writes keep succeeding: device failures are out-of-band.
    ASSERT_TRUE(
        client.Replace(dn, "MpPin", "100" + std::to_string(i)).ok());
  }

  // Two real attempts opened the circuit; later updates never touched
  // the device. (An unreachable platform refuses even the read the
  // filter issues before mutating, so no command reaches the link.)
  CircuitBreaker* breaker = system_->update_manager().breaker("mp1");
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(system_->mp("mp1")->faults().mutations_seen(),
            mutations_before);
  UpdateManager::Stats stats = system_->update_manager().stats();
  EXPECT_GE(stats.breaker_open_skips, 3u);
  EXPECT_GE(stats.errors, 5u);

  // Every failed update landed under cn=errors as a replayable entry
  // targeting mp1, and the backlog counter tracks them.
  std::vector<ldap::Entry> errors = ErrorEntries();
  EXPECT_GE(errors.size(), 5u);
  for (const ldap::Entry& entry : errors) {
    EXPECT_EQ(entry.GetFirst("errorRepository"), "mp1");
  }
  EXPECT_GE(BacklogFor("mp1"), 5u);

  // The healthy repository keeps taking propagation undisturbed.
  ASSERT_TRUE(client.Replace(dn, "roomNumber", "2C-120").ok());
  auto station = system_->pbx("pbx1")->GetRecord("4567");
  ASSERT_TRUE(station.ok()) << station.status();
  EXPECT_EQ(station->GetFirst("Room"), "2C-120");

  // The monitor publishes the degraded state.
  auto health = client.Get("cn=um-health-mp1,cn=monitor,o=Lucent");
  ASSERT_TRUE(health.ok()) << health.status();
  bool saw_state = false;
  for (const std::string& info : health->GetAll("monitorInfo")) {
    if (info == "breakerState=open") saw_state = true;
  }
  EXPECT_TRUE(saw_state);
}

/// The replay backlog is the error log's own count, so it comes back
/// with the log: after a restart on the same data dir the five failed
/// updates are still replayable entries under cn=errors, and the
/// counter must say so instead of restarting from zero.
TEST_F(FaultToleranceTest, ReplayBacklogSurvivesRestart) {
  const std::string data_dir =
      std::string(::testing::TempDir()) + "/metacomm_backlog_restart";
  std::filesystem::remove_all(data_dir);
  SystemConfig config;
  config.durability.data_dir = data_dir;
  config.durability.checkpoint_interval_micros = 0;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  system_->mp("mp1")->faults().set_disconnected(true);
  {
    ldap::Client client = system_->NewClient();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(client
                      .Replace("cn=John Doe,ou=People,o=Lucent", "MpPin",
                               "100" + std::to_string(i))
                      .ok());
    }
  }
  EXPECT_EQ(BacklogFor("mp1"), 5u);

  system_.reset();
  Build(config);
  uint64_t replayable = 0;
  for (const ldap::Entry& entry : ErrorEntries()) {
    StatusOr<LoggedFailure> failure = ParseErrorEntry(entry);
    if (failure.ok() && failure->replayable() &&
        failure->repository == "mp1") {
      ++replayable;
    }
  }
  EXPECT_EQ(replayable, 5u);
  EXPECT_EQ(BacklogFor("mp1"), replayable);
  system_.reset();
  std::filesystem::remove_all(data_dir);
}

/// The error log's numbering comes back with its entries: after a
/// restart the next failure is cn=error-6, not a second cn=error-1 that
/// collides with the recovered one and is neither logged nor replayed.
TEST_F(FaultToleranceTest, ErrorSequenceContinuesAfterRestart) {
  const std::string data_dir =
      std::string(::testing::TempDir()) + "/metacomm_error_seq_restart";
  std::filesystem::remove_all(data_dir);
  SystemConfig config;
  config.durability.data_dir = data_dir;
  config.durability.checkpoint_interval_micros = 0;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  auto change_pin = [this](const std::string& pin) {
    ldap::Client client = system_->NewClient();
    ASSERT_TRUE(
        client.Replace("cn=John Doe,ou=People,o=Lucent", "MpPin", pin).ok());
  };
  system_->mp("mp1")->faults().set_disconnected(true);
  for (int i = 0; i < 5; ++i) change_pin("100" + std::to_string(i));

  system_.reset();
  Build(config);
  system_->mp("mp1")->faults().set_disconnected(true);
  change_pin("2000");
  uint64_t replayable = 0;
  for (const ldap::Entry& entry : ErrorEntries()) {
    StatusOr<LoggedFailure> failure = ParseErrorEntry(entry);
    if (failure.ok() && failure->replayable() &&
        failure->repository == "mp1") {
      ++replayable;
    }
  }
  EXPECT_EQ(replayable, 6u);
  EXPECT_EQ(BacklogFor("mp1"), 6u);
  system_.reset();
  std::filesystem::remove_all(data_dir);
}

TEST_F(FaultToleranceTest, RepairReplaysBacklogInOrderAndConverges) {
  SystemConfig config;
  config.um.breaker_failure_threshold = 2;
  config.um.breaker_open_backoff_micros = 1'000;  // Probe quickly.
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_TRUE(system_
                  ->AddPerson("Pat Smith",
                              {{"telephoneNumber", "+1 908 582 4568"}})
                  .ok());

  system_->mp("mp1")->faults().set_disconnected(true);
  ldap::Client client = system_->NewClient();
  // Several updates to the same mailbox while down: replay must land
  // on the LAST value, in original order.
  for (const char* pin : {"1111", "2222", "3333"}) {
    ASSERT_TRUE(
        client.Replace("cn=John Doe,ou=People,o=Lucent", "MpPin", pin)
            .ok());
  }
  ASSERT_TRUE(client
                  .Replace("cn=Pat Smith,ou=People,o=Lucent", "MpPin",
                           "9999")
                  .ok());
  ASSERT_GE(ErrorEntries().size(), 4u);

  // Recovery: the device comes back; let the breaker's backoff lapse
  // so the first replay is admitted as the half-open probe.
  system_->mp("mp1")->faults().set_disconnected(false);
  RealClock::Get()->SleepMicros(5'000);
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());

  // The backlog drained, in order, to the final values.
  auto john = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(john.ok()) << john.status();
  EXPECT_EQ(john->GetFirst("Pin"), "3333");
  auto pat = system_->mp("mp1")->GetRecord("4568");
  ASSERT_TRUE(pat.ok()) << pat.status();
  EXPECT_EQ(pat->GetFirst("Pin"), "9999");

  UpdateManager::Stats stats = system_->update_manager().stats();
  EXPECT_GE(stats.replayed, 4u);
  EXPECT_GE(stats.repair_passes, 1u);
  EXPECT_EQ(BacklogFor("mp1"), 0u);
  EXPECT_TRUE(ErrorEntries().empty());
  EXPECT_EQ(system_->update_manager().breaker("mp1")->state(),
            CircuitBreaker::State::kClosed);

  // Byte-identical convergence with the directory's image.
  auto entry = client.Get("cn=John Doe,ou=People,o=Lucent");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->GetFirst("MpPin"), "3333");
}

TEST_F(FaultToleranceTest, RepairFallsBackToSynchronizeWhenReplayCant) {
  SystemConfig config;
  config.um.breaker_failure_threshold = 2;
  config.um.breaker_open_backoff_micros = 1'000;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  system_->mp("mp1")->faults().set_disconnected(true);
  ldap::Client client = system_->NewClient();
  for (const char* pin : {"1111", "2222"}) {
    ASSERT_TRUE(
        client.Replace("cn=John Doe,ou=People,o=Lucent", "MpPin", pin)
            .ok());
  }
  system_->mp("mp1")->faults().set_disconnected(false);
  RealClock::Get()->SleepMicros(5'000);

  // The first replay is permanently rejected (typed injection): repair
  // must fall back to a targeted Synchronize and still converge.
  system_->mp("mp1")->faults().FailNext(1, StatusCode::kInvalidArgument);
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());

  UpdateManager::Stats stats = system_->update_manager().stats();
  EXPECT_GE(stats.repair_syncs, 1u);
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  EXPECT_EQ(mailbox->GetFirst("Pin"), "2222");
  EXPECT_EQ(BacklogFor("mp1"), 0u);
  EXPECT_TRUE(ErrorEntries().empty());
}

/// Repair pushes the directory's image, never a logged one: a mailbox
/// add that failed for a person since deleted from the directory is
/// not re-created, and no fallback resync pulls the person back.
TEST_F(FaultToleranceTest, RepairNeverResurrectsADeletedPerson) {
  Build(SystemConfig{});
  system_->mp("mp1")->faults().FailNext(1, StatusCode::kUnavailable);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ASSERT_EQ(BacklogFor("mp1"), 1u);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Delete("cn=John Doe,ou=People,o=Lucent").ok());

  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_FALSE(client.Get("cn=John Doe,ou=People,o=Lucent").ok());
  EXPECT_FALSE(system_->mp("mp1")->GetRecord("4567").ok());
  EXPECT_EQ(system_->update_manager().stats().repair_syncs, 0u);
  EXPECT_EQ(BacklogFor("mp1"), 0u);
}

/// A permanent rejection is the device answering: the other keys are
/// still pushed in the same pass, and the fallback resync re-drives
/// what the device rejected before its device-wins pull, so no acked
/// write is rolled back.
TEST_F(FaultToleranceTest, PermanentRejectionKeepsOtherKeysAckedWrites) {
  SystemConfig config;
  config.um.breaker_enabled = false;
  Build(config);
  ldap::Client client = system_->NewClient();
  for (const char* extension : {"4567", "4568"}) {
    ASSERT_TRUE(system_
                    ->AddPerson(std::string("Person ") + extension,
                                {{"telephoneNumber",
                                  std::string("+1 908 582 ") + extension}})
                    .ok());
    ASSERT_TRUE(client
                    .Replace(std::string("cn=Person ") + extension +
                                 ",ou=People,o=Lucent",
                             "MpPin", "1000")
                    .ok());
  }
  devices::FaultInjector& faults = system_->mp("mp1")->faults();
  faults.set_disconnected(true);
  for (const char* extension : {"4567", "4568"}) {
    ASSERT_TRUE(client
                    .Replace(std::string("cn=Person ") + extension +
                                 ",ou=People,o=Lucent",
                             "MpPin", "2222")
                    .ok());
  }
  faults.set_disconnected(false);
  // The first two pushes are rejected; the fallback resync's succeed.
  faults.FailNext(2, StatusCode::kInvalidArgument);

  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_EQ(system_->update_manager().stats().repair_syncs, 1u);
  for (const char* extension : {"4567", "4568"}) {
    SCOPED_TRACE(extension);
    auto entry = client.Get(std::string("cn=Person ") + extension +
                            ",ou=People,o=Lucent");
    ASSERT_TRUE(entry.ok()) << entry.status();
    EXPECT_EQ(entry->GetFirst("MpPin"), "2222");
    auto mailbox = system_->mp("mp1")->GetRecord(extension);
    ASSERT_TRUE(mailbox.ok()) << mailbox.status();
    EXPECT_EQ(mailbox->GetFirst("Pin"), "2222");
  }
  EXPECT_EQ(BacklogFor("mp1"), 0u);
}

/// A key's backlog costs one command, however many updates it logged:
/// the repair pass sends the directory's image once.
TEST_F(FaultToleranceTest, RepairSendsOneCommandPerEntity) {
  SystemConfig config;
  config.um.breaker_enabled = false;  // No probe backoff to wait out.
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::FaultInjector& faults = system_->mp("mp1")->faults();
  faults.set_disconnected(true);
  ldap::Client client = system_->NewClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client
                    .Replace("cn=John Doe,ou=People,o=Lucent", "MpPin",
                             "300" + std::to_string(i))
                    .ok());
  }
  ASSERT_EQ(BacklogFor("mp1"), 8u);
  faults.set_disconnected(false);

  const uint64_t before = faults.mutations_seen();
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_EQ(faults.mutations_seen() - before, 1u);
  EXPECT_EQ(system_->update_manager().stats().replayed, 8u);
  EXPECT_EQ(BacklogFor("mp1"), 0u);
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  EXPECT_EQ(mailbox->GetFirst("Pin"), "3007");
}

/// A device that fails every mutation costs one command per pass: the
/// probe fails, nothing else is sent, and the log neither grows (the
/// failed push is not re-logged) nor shrinks.
TEST_F(FaultToleranceTest, RepairProbesAFailingDeviceOnce) {
  SystemConfig config;
  config.um.breaker_enabled = false;  // The probe alone bounds the cost.
  Build(config);
  for (const char* extension : {"4567", "4568"}) {
    ASSERT_TRUE(system_
                    ->AddPerson(std::string("Person ") + extension,
                                {{"telephoneNumber",
                                  std::string("+1 908 582 ") + extension}})
                    .ok());
  }
  devices::FaultInjector& faults = system_->mp("mp1")->faults();
  faults.set_disconnected(true);
  ldap::Client client = system_->NewClient();
  for (const char* extension : {"4567", "4568"}) {
    ASSERT_TRUE(client
                    .Replace(std::string("cn=Person ") + extension +
                                 ",ou=People,o=Lucent",
                             "MpPin", "1111")
                    .ok());
  }
  faults.set_disconnected(false);
  faults.set_error_probability(1.0);

  const size_t logged = ErrorEntries().size();
  ASSERT_EQ(logged, 2u);
  const uint64_t before = faults.mutations_seen();
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_LE(faults.mutations_seen() - before, 1u);
  EXPECT_EQ(ErrorEntries().size(), logged);
  EXPECT_EQ(system_->update_manager().stats().replayed, 0u);
}

/// A repair push is not a §5.4 reapplication: the A1 ablation, which
/// drops reapplications, still drains the backlog, and the counter
/// does not move.
TEST_F(FaultToleranceTest, RepairDrainsWithoutReapplication) {
  SystemConfig config;
  config.um.reapply_to_originator = false;
  config.um.breaker_enabled = false;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  system_->mp("mp1")->faults().set_disconnected(true);
  ldap::Client client = system_->NewClient();
  for (const char* pin : {"1111", "2222", "3333"}) {
    ASSERT_TRUE(
        client.Replace("cn=John Doe,ou=People,o=Lucent", "MpPin", pin)
            .ok());
  }
  system_->mp("mp1")->faults().set_disconnected(false);

  const uint64_t reapplications =
      system_->update_manager().stats().reapplications;
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_EQ(BacklogFor("mp1"), 0u);
  EXPECT_EQ(system_->update_manager().stats().reapplications,
            reapplications);
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  EXPECT_EQ(mailbox->GetFirst("Pin"), "3333");
}

/// An update the error log cannot hold is not acked: with the error
/// container gone, a client write whose device apply fails gets the
/// log write's failure, not OK with nothing left to repair it.
TEST_F(FaultToleranceTest, UnloggableDeviceFailureFailsTheWrite) {
  Build(SystemConfig{});
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Delete("cn=errors,o=Lucent").ok());
  system_->mp("mp1")->faults().set_disconnected(true);

  Status status =
      client.Replace("cn=John Doe,ou=People,o=Lucent", "MpPin", "2222");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(system_->update_manager().stats().errors, 1u);
  EXPECT_EQ(BacklogFor("mp1"), 0u);
}

/// A holder lookup that fails is not "no holder": the key's unit waits
/// instead of deleting a record the directory may still hold, and its
/// entries stay until a pass can read the directory again.
TEST_F(FaultToleranceTest, RepairWaitsWhileTheHolderCannotBeRead) {
  SystemConfig config;
  config.um.breaker_enabled = false;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  devices::FaultInjector& faults = system_->mp("mp1")->faults();
  faults.set_disconnected(true);
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Delete("cn=John Doe,ou=People,o=Lucent").ok());
  faults.set_disconnected(false);
  ASSERT_EQ(BacklogFor("mp1"), 1u);

  // Without the people container every holder search fails.
  auto people = ldap::Dn::Parse("ou=People,o=Lucent");
  ASSERT_TRUE(people.ok()) << people.status();
  ldap::Entry container(*people);
  container.AddObjectClass("top");
  container.AddObjectClass("organizationalUnit");
  container.SetOne("ou", "People");
  auto& backend = system_->server().backend();
  ASSERT_TRUE(backend.Delete(*people).ok());
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_TRUE(system_->mp("mp1")->GetRecord("4567").ok());
  EXPECT_EQ(BacklogFor("mp1"), 1u);
  EXPECT_EQ(system_->update_manager().stats().replayed, 0u);

  ASSERT_TRUE(backend.Add(container).ok());
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_FALSE(system_->mp("mp1")->GetRecord("4567").ok());
  EXPECT_EQ(BacklogFor("mp1"), 0u);
}

/// A delete unit has no holder to lock. When an ADD gives a person the
/// key while the delete is in flight, the delete takes the new mailbox
/// but not the key's entries, and the next pass pushes the mailbox back.
TEST_F(FaultToleranceTest, RepairDeleteRacingAnAddKeepsTheEntries) {
  SystemConfig config;
  config.um.threaded = true;
  config.um.repair_enabled = false;  // The test drives the passes.
  config.um.breaker_enabled = false;
  Build(config);
  devices::MessagingPlatform* mp = system_->mp("mp1");
  mp->faults().FailNext(1, StatusCode::kUnavailable);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  ldap::Client client = system_->NewClient();
  ASSERT_TRUE(client.Delete("cn=John Doe,ou=People,o=Lucent").ok());
  ASSERT_EQ(BacklogFor("mp1"), 1u);

  // The pass finds no holder of 4567 and sends its delete over a slow
  // link; the ADD of a new 4567 lands at the platform first.
  mp->latency().set_rtt_micros(300'000);
  const uint64_t round_trips = mp->latency().round_trips();
  std::thread repair(
      [&] { EXPECT_TRUE(system_->update_manager().RunRepairPass().ok()); });
  for (int i = 0; i < 20'000 && mp->latency().round_trips() == round_trips;
       ++i) {
    RealClock::Get()->SleepMicros(500);
  }
  mp->latency().set_rtt_micros(0);
  Status added = system_->AddPerson(
      "Jane Roe", {{"telephoneNumber", "+1 908 582 4567"}});
  const bool mailbox_added = mp->GetRecord("4567").ok();
  repair.join();
  ASSERT_TRUE(added.ok()) << added;
  EXPECT_TRUE(mailbox_added);
  EXPECT_FALSE(mp->GetRecord("4567").ok());  // The delete took it.
  EXPECT_EQ(BacklogFor("mp1"), 1u);

  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  EXPECT_EQ(BacklogFor("mp1"), 0u);
  auto mailbox = mp->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  auto jane = client.Get("cn=Jane Roe,ou=People,o=Lucent");
  ASSERT_TRUE(jane.ok()) << jane.status();
  EXPECT_EQ(jane->GetFirst("MpSubscriberId"),
            mailbox->GetFirst("SubscriberId"));
}

/// The repair worker re-drives a backlog while two clients keep
/// writing the same people: each push holds its entity's lock, so the
/// writes and the pushes serialize, and everything ends in agreement.
TEST_F(FaultToleranceTest, RepairWorkerDrainsWhileClientsWrite) {
  SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 2;
  config.um.repair_enabled = true;
  config.um.repair_scan_interval_micros = 2'000;
  config.um.breaker_failure_threshold = 2;
  config.um.breaker_open_backoff_micros = 1'000;
  config.um.breaker_max_backoff_micros = 10'000;
  Build(config);
  const std::vector<std::string> extensions = {"4567", "4568", "4569"};
  for (const std::string& extension : extensions) {
    ASSERT_TRUE(system_
                    ->AddPerson("Person " + extension,
                                {{"telephoneNumber", "+1 908 582 " + extension}})
                    .ok());
  }
  auto dn_of = [](const std::string& extension) {
    return "cn=Person " + extension + ",ou=People,o=Lucent";
  };
  devices::FaultInjector& faults = system_->mp("mp1")->faults();
  faults.set_disconnected(true);
  auto write = [&](int writer, int rounds) {
    ldap::Client client = system_->NewClient();
    for (int i = 0; i < rounds; ++i) {
      const std::string& extension = extensions[i % extensions.size()];
      std::string value = std::to_string(writer * 1000 + i);
      EXPECT_TRUE(client.Replace(dn_of(extension), "MpPin", value).ok());
      EXPECT_TRUE(
          client.Replace(dn_of(extension), "roomNumber", "R" + value).ok());
    }
  };
  write(1, 6);  // The backlog, logged while the platform is down.
  ASSERT_GE(BacklogFor("mp1"), 6u);
  faults.set_disconnected(false);
  std::thread first(write, 2, 40);
  std::thread second(write, 3, 40);
  first.join();
  second.join();

  auto converged = [&] {
    if (BacklogFor("mp1") != 0) return false;
    ldap::Client client = system_->NewClient();
    for (const std::string& extension : extensions) {
      auto entry = client.Get(dn_of(extension));
      auto mailbox = system_->mp("mp1")->GetRecord(extension);
      auto station = system_->pbx("pbx1")->GetRecord(extension);
      if (!entry.ok() || !mailbox.ok() || !station.ok() ||
          mailbox->GetFirst("Pin") != entry->GetFirst("MpPin") ||
          mailbox->GetFirst("SubscriberId") !=
              entry->GetFirst("MpSubscriberId") ||
          station->GetFirst("Room") != entry->GetFirst("roomNumber")) {
        return false;
      }
    }
    return true;
  };
  bool agreed = false;
  for (int i = 0; i < 2'000 && !(agreed = converged()); ++i) {
    RealClock::Get()->SleepMicros(5'000);
  }
  EXPECT_TRUE(agreed);
  EXPECT_EQ(BacklogFor("mp1"), 0u);
}

TEST_F(FaultToleranceTest, ScriptedOutageDegradesThenRecovers) {
  SystemConfig config;
  config.um.breaker_failure_threshold = 2;
  config.um.breaker_open_backoff_micros = 1'000;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  // The NEXT two mutating commands at the platform fail (scripted
  // window), then the device recovers by itself.
  system_->mp("mp1")->faults().ScheduleOutage(/*after_commands=*/0,
                                              /*length_commands=*/2);
  ldap::Client client = system_->NewClient();
  for (const char* pin : {"1111", "2222", "3333"}) {
    ASSERT_TRUE(
        client.Replace("cn=John Doe,ou=People,o=Lucent", "MpPin", pin)
            .ok());
  }
  // The failures were logged; whether any update probed (healing the
  // circuit) or fast-failed depends on wall-clock timing, but either
  // way the repair pass must drain the backlog.
  ASSERT_GE(ErrorEntries().size(), 2u);

  // The window is pinned to the device's mutation count, and an active
  // window also refuses the reads the filter issues first — so it is
  // the platform's own admin traffic that burns through it (failing
  // all the while), exactly like a real outage ending on its own.
  for (int i = 0; i < 2; ++i) {
    auto reply = system_->mp("mp1")->ExecuteCommand(
        "MODIFY MAILBOX 4567 Greeting=maintenance");
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable) << i;
  }
  EXPECT_FALSE(system_->mp("mp1")->faults().ReadBlocked());

  RealClock::Get()->SleepMicros(5'000);
  ASSERT_TRUE(system_->update_manager().RunRepairPass().ok());
  auto mailbox = system_->mp("mp1")->GetRecord("4567");
  ASSERT_TRUE(mailbox.ok()) << mailbox.status();
  EXPECT_EQ(mailbox->GetFirst("Pin"), "3333");
  EXPECT_TRUE(ErrorEntries().empty());
}

TEST_F(FaultToleranceTest, StopInterruptsRepairWorkerPromptly) {
  SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 2;
  config.um.repair_enabled = true;
  // A scan interval far beyond the test: Stop() must not wait it out.
  config.um.repair_scan_interval_micros = 600'000'000;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());

  auto start = std::chrono::steady_clock::now();
  system_->update_manager().Stop();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5'000);

  // Stop/Start round-trips: the repair worker comes back.
  system_->update_manager().Start();
  system_->update_manager().Stop();
}

TEST_F(FaultToleranceTest, DisabledBreakerKeepsHammeringTheDevice) {
  SystemConfig config;
  config.um.breaker_enabled = false;
  Build(config);
  ASSERT_TRUE(system_
                  ->AddPerson("John Doe",
                              {{"telephoneNumber", "+1 908 582 4567"}})
                  .ok());
  // Flaky link: reads pass but every mutation fails, so each update
  // pays a full device attempt.
  system_->mp("mp1")->faults().FailNext(5, StatusCode::kUnavailable);
  ldap::Client client = system_->NewClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client
                    .Replace("cn=John Doe,ou=People,o=Lucent", "MpPin",
                             "200" + std::to_string(i))
                    .ok());
  }
  // Every update paid the full device attempt — the ablation the
  // breaker exists to avoid.
  EXPECT_EQ(system_->mp("mp1")->faults().injected_failures(), 5u);
  EXPECT_EQ(system_->update_manager().stats().breaker_open_skips, 0u);
}

}  // namespace
}  // namespace metacomm::core
