#include "core/monitor.h"

#include <utility>

#include "common/clock.h"

namespace metacomm::core {

namespace {

/// "key=value" monitorInfo strings of numeric counters.
std::vector<std::string> Info(
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  std::vector<std::string> info;
  info.reserve(counters.size());
  for (const auto& [key, value] : counters) {
    info.push_back(key + "=" + std::to_string(value));
  }
  return info;
}

ldap::Entry MonitoredObject(ldap::Dn dn, const std::string& name) {
  ldap::Entry entry(std::move(dn));
  entry.AddObjectClass("top");
  entry.AddObjectClass("monitoredObject");
  entry.SetOne("cn", name);
  return entry;
}

}  // namespace

std::vector<ldap::Entry> RenderMonitor(const ldap::Dn& base,
                                       const ldap::LdapServer& server,
                                       const ltap::LtapGateway& gateway,
                                       const UpdateManager& update_manager,
                                       storage::DurabilityManager* durability) {
  // The read path is sampled before UpdateManager::stats(), whose
  // error-log search would otherwise count itself as read traffic.
  const ltap::LtapGateway::Stats gateway_stats = gateway.stats();
  const ldap::Backend& backend = server.backend();
  const ldap::Backend::ReadStats read_stats = backend.read_stats();
  const ldap::Backend::SnapshotPtr snapshot = backend.GetSnapshot();
  const UpdateManager::Stats um_stats = update_manager.stats();

  std::vector<ldap::Entry> entries;
  entries.push_back(MonitoredObject(base, "monitor"));
  entries.back().SetOne("description",
                        "MetaComm runtime statistics, computed when read");
  auto section = [&](const std::string& name, std::vector<std::string> info) {
    entries.push_back(
        MonitoredObject(base.Child(ldap::Rdn("cn", name)), name));
    entries.back().Set("monitorInfo", std::move(info));
  };

  section("gateway",
          Info({{"updates", gateway_stats.updates},
                {"reads", gateway_stats.reads},
                {"internalOps", gateway_stats.internal_ops},
                {"triggersFired", gateway_stats.triggers_fired},
                {"vetoes", gateway_stats.vetoes},
                {"quiesceWaits", gateway_stats.quiesce_waits},
                {"contendedLocks",
                 gateway.lock_table().contended_acquisitions()}}));

  section("update-manager",
          Info({{"ldapUpdates", um_stats.ldap_updates},
                {"deviceUpdates", um_stats.device_updates},
                {"deviceApplies", um_stats.device_applies},
                {"reapplications", um_stats.reapplications},
                {"generatedInfo", um_stats.generated_info},
                {"errors", um_stats.errors},
                {"undos", um_stats.undos},
                {"closureIterations", um_stats.closure_iterations},
                {"syncs", um_stats.syncs},
                {"lockRetries", um_stats.lock_retries},
                {"shutdownDrained", um_stats.shutdown_drained},
                {"batches", um_stats.batches},
                {"rttsSaved", um_stats.rtts_saved},
                {"breakerOpenSkips", um_stats.breaker_open_skips},
                {"replayed", um_stats.replayed},
                {"repairPasses", um_stats.repair_passes},
                {"repairSyncs", um_stats.repair_syncs}}));

  // Per-repository fault surface (cn=um-health-<repo>): breaker state,
  // replay backlog, and the device's own fault telemetry. This is what
  // an administrator watches during an outage (§4.4).
  for (const UpdateManager::Stats::RepositoryStats& repo :
       um_stats.repositories) {
    section("um-health-" + repo.name,
            {std::string("breakerState=") +
                 CircuitBreaker::StateName(repo.breaker.state),
             "consecutiveFailures=" +
                 std::to_string(repo.breaker.consecutive_failures),
             "openTransitions=" +
                 std::to_string(repo.breaker.open_transitions),
             "skippedOpenCircuit=" + std::to_string(repo.breaker.skipped),
             "backoffMicros=" + std::to_string(repo.breaker.backoff_micros),
             "lastProbeMicros=" +
                 std::to_string(repo.breaker.last_probe_micros),
             "replayBacklog=" + std::to_string(repo.replay_backlog),
             std::string("reachable=") + (repo.health.reachable ? "1" : "0"),
             "commands=" + std::to_string(repo.health.commands),
             "injectedFailures=" +
                 std::to_string(repo.health.injected_failures)});
  }

  // Batch size histogram; the bucket edges are those of
  // UpdateManager::Stats::batch_size_buckets (always six buckets).
  const std::vector<uint64_t>& buckets = um_stats.batch_size_buckets;
  section("um-batches",
          Info({{"size1", buckets[0]}, {"size2", buckets[1]},
                {"size3to4", buckets[2]}, {"size5to8", buckets[3]},
                {"size9to16", buckets[4]}, {"sizeOver16", buckets[5]}}));

  // One monitored object per update-queue shard (cn=um-shard-N).
  for (size_t shard = 0; shard < um_stats.shards.size(); ++shard) {
    const UpdateManager::ShardStats& s = um_stats.shards[shard];
    section("um-shard-" + std::to_string(shard),
            Info({{"enqueued", s.enqueued},
                  {"dequeued", s.dequeued},
                  {"depth", s.depth},
                  {"maxDepth", s.max_depth},
                  {"queueWaitMicros", s.queue_wait_micros}}));
  }

  section("directory", Info({{"entries", backend.Size()},
                             {"changes", backend.ChangeCount()}}));

  if (durability != nullptr) {
    storage::Wal& wal = *durability->wal();
    std::vector<std::string> info =
        Info({{"walFsyncs", durability->wal_fsyncs()},
              {"nextLsn", wal.next_lsn()},
              {"walSegments", wal.segment_count()},
              {"walBytes", wal.SizeBytes()},
              {"pendingIntents", durability->pending_intent_count()},
              {"checkpoints", durability->checkpoints()}});
    info.push_back("lastCheckpointError=" +
                   durability->last_checkpoint_error().ToString());
    section("durability", std::move(info));
  }

  // Read-path health: how searches are being answered (index plan vs
  // subtree scan), how selective the plans are, and how fresh the
  // published snapshot is.
  const int64_t now_micros = RealClock::Get()->NowMicros();
  const uint64_t age_micros =
      now_micros > snapshot->published_micros
          ? static_cast<uint64_t>(now_micros - snapshot->published_micros)
          : 0;
  section("ldap-reads",
          Info({{"searches", read_stats.searches},
                {"gets", read_stats.gets},
                {"exists", read_stats.exists},
                {"indexedPlans", read_stats.indexed_plans},
                {"scanPlans", read_stats.scan_plans},
                {"candidatesExamined", read_stats.candidates_examined},
                {"candidatesMatched", read_stats.candidates_matched},
                {"snapshotVersion", snapshot->version},
                {"snapshotAgeMicros", age_micros}}));
  return entries;
}

}  // namespace metacomm::core
