// Durability — what the WAL costs on the write path, and what a
// restart costs as the log grows.
//
//  1. BM_DurableWrites — directory write throughput with the journal
//     off vs on, across fsync policies and writer-thread counts. The
//     thread axis is the group-commit story: under kBatch a Sync()
//     holder flushes while later appenders queue on the WAL mutex, so
//     N concurrent writers share ~1 fsync — throughput should hold
//     (or improve) as threads grow, where kAlways serializes behind
//     one fsync per record. Acceptance (ISSUE 10): batch-fsync WAL-on
//     throughput within 30% of WAL-off.
//
//  2. BM_Recovery — full cold-start recovery (Wal::Open scan +
//     snapshot load + WAL suffix replay) against WAL length, with and
//     without a checkpoint covering the prefix. A checkpoint saves
//     less than the suffix suggests: the snapshot load pays a full
//     commit per entry, as replay does per record. Release, 4 vCPU,
//     tmpfs, median of three: 13.2, 61.2 and 300 ms for 1k, 4k and
//     16k records (13.2 -> 18.8 us per record), and 232 ms for 16k
//     with the first half checkpointed (EXPERIMENTS.md E21).
//
// The data dir lives on /dev/shm: the bench isolates the subsystem's
// CPU/syscall cost from rotational-disk physics (on ext4 a kAlways
// fsync is milliseconds and the sweep would measure the disk, not the
// group commit). The report's "storage" field names that medium.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_main.h"
#include "ldap/backend.h"
#include "storage/durability.h"
#include "storage/fs.h"

namespace metacomm::bench {
namespace {

using storage::DurabilityConfig;
using storage::DurabilityManager;
using storage::FsyncPolicy;

constexpr int kOpsPerThread = 512;

std::string BenchDir() {
  return "/dev/shm/metacomm_bench_durability";
}

void WipeDir(const std::string& dir) {
  auto names = storage::ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    Status removed = storage::RemoveFile(dir + "/" + name);
    (void)removed;
  }
}

ldap::Entry Person(int i) {
  ldap::Entry entry(
      *ldap::Dn::Parse("cn=P" + std::to_string(i) + ",o=Lucent"));
  entry.AddObjectClass("top");
  entry.AddObjectClass("person");
  entry.SetOne("cn", "P" + std::to_string(i));
  entry.SetOne("sn", "Bench");
  return entry;
}

void AddSuffix(ldap::Backend* backend) {
  ldap::Entry suffix(*ldap::Dn::Parse("o=Lucent"));
  suffix.AddObjectClass("top");
  suffix.SetOne("o", "Lucent");
  (void)backend->Add(suffix);
}

/// args: [0] journal mode (0 = WAL off, 1 = kOff, 2 = kBatch,
/// 3 = kAlways), [1] concurrent writer threads.
void BM_DurableWrites(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));

  const std::string dir = BenchDir();
  (void)storage::MakeDirs(dir);
  WipeDir(dir);

  ldap::Backend backend;
  AddSuffix(&backend);
  for (int t = 0; t < threads; ++t) {
    (void)backend.Add(Person(t));
  }

  std::unique_ptr<DurabilityManager> durability;
  if (mode > 0) {
    DurabilityConfig config;
    config.data_dir = dir;
    config.wal_fsync = mode == 1   ? FsyncPolicy::kOff
                       : mode == 2 ? FsyncPolicy::kBatch
                                   : FsyncPolicy::kAlways;
    config.checkpoint_interval_micros = 0;
    auto opened = DurabilityManager::Open(config);
    if (!opened.ok()) {
      state.SkipWithError("cannot open durability manager");
      return;
    }
    durability = std::move(*opened);
    durability->AttachBackend(&backend);
  }

  int64_t ops = 0;
  for (auto _ : state) {
    std::vector<std::thread> writers;
    writers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      writers.emplace_back([&backend, t] {
        ldap::Dn dn =
            *ldap::Dn::Parse("cn=P" + std::to_string(t) + ",o=Lucent");
        for (int i = 0; i < kOpsPerThread; ++i) {
          ldap::Modification mod{ldap::Modification::Type::kReplace,
                                 "description",
                                 {"v" + std::to_string(i)}};
          (void)backend.Modify(dn, {mod});
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    ops += static_cast<int64_t>(threads) * kOpsPerThread;
  }
  state.SetItemsProcessed(ops);
  if (durability != nullptr) {
    backend.ClearJournal();
    state.counters["wal_bytes"] =
        static_cast<double>(durability->wal()->SizeBytes());
  }
  WipeDir(dir);
}

/// args: [0] WAL change records to recover through, [1] checkpoint
/// first (1) or pure replay (0).
void BM_Recovery(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  const bool checkpointed = state.range(1) != 0;

  const std::string dir = BenchDir();
  (void)storage::MakeDirs(dir);
  WipeDir(dir);

  DurabilityConfig config;
  config.data_dir = dir;
  config.wal_fsync = FsyncPolicy::kOff;  // Disk physics out of scope.
  config.checkpoint_interval_micros = 0;

  {
    ldap::Backend backend;
    auto setup = DurabilityManager::Open(config);
    if (!setup.ok()) {
      state.SkipWithError("cannot open durability manager");
      return;
    }
    (*setup)->AttachBackend(&backend);
    AddSuffix(&backend);
    // Half adds, half modifies — a realistic replay mix. With a
    // checkpoint in the middle, the suffix to replay is the second
    // half only.
    for (int i = 0; i < records / 2; ++i) {
      (void)backend.Add(Person(i));
    }
    if (checkpointed) {
      auto checkpoint = (*setup)->Checkpoint(backend);
      if (!checkpoint.ok()) {
        state.SkipWithError("checkpoint failed");
        return;
      }
    }
    for (int i = 0; i < records / 2; ++i) {
      ldap::Dn dn =
          *ldap::Dn::Parse("cn=P" + std::to_string(i) + ",o=Lucent");
      ldap::Modification mod{ldap::Modification::Type::kReplace,
                             "description",
                             {"r" + std::to_string(i)}};
      (void)backend.Modify(dn, {mod});
    }
    backend.ClearJournal();
  }

  size_t entries = 0;
  uint64_t replayed = 0;
  for (auto _ : state) {
    ldap::Backend recovered;
    auto manager = DurabilityManager::Open(config);
    if (!manager.ok()) {
      state.SkipWithError("reopen failed");
      return;
    }
    auto stats = (*manager)->RecoverBackend(&recovered);
    if (!stats.ok()) {
      state.SkipWithError("recovery failed");
      return;
    }
    entries = recovered.Size();
    replayed = stats->changes_replayed;
  }
  state.counters["entries"] = static_cast<double>(entries);
  state.counters["changes_replayed"] = static_cast<double>(replayed);
  WipeDir(dir);
}

BENCHMARK(BM_DurableWrites)
    ->ArgNames({"mode", "threads"})
    // WAL-off baseline vs each policy, single writer.
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({3, 1})
    // Group-commit sweep: batch (and the off/always goalposts) as
    // writer concurrency grows.
    ->Args({0, 4})
    ->Args({2, 2})
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 4})
    // Writers run on spawned threads; CPU time of the bench thread
    // would miss them entirely.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Recovery)
    ->ArgNames({"records", "checkpointed"})
    ->Args({1000, 0})
    ->Args({4000, 0})
    ->Args({16000, 0})
    ->Args({16000, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace metacomm::bench

int main(int argc, char** argv) {
  const std::string dir = metacomm::bench::BenchDir();
  (void)metacomm::storage::MakeDirs(dir);
  return metacomm::bench::RunBenchMain("durability", argc, argv, dir);
}
