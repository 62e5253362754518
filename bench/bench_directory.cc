// Substrate benchmarks for the LDAP directory itself: these are not
// tied to a paper claim, but every experiment rides on this substrate,
// so its costs (and the equality index's effect) are pinned down here.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "core/integrated_schema.h"
#include "ldap/ldif.h"
#include "ldap/server.h"
#include "ldap/text_protocol.h"
#include "storage/ldif_file.h"

namespace metacomm::bench {
namespace {

using ldap::Backend;
using ldap::Dn;
using ldap::Entry;
using ldap::Filter;
using ldap::Rdn;

/// Builds a schema-less backend with `count` person entries.
std::unique_ptr<Backend> BuildTree(size_t count) {
  auto backend = std::make_unique<Backend>();
  Entry suffix(*Dn::Parse("o=Lucent"));
  suffix.AddObjectClass("top");
  suffix.SetOne("o", "Lucent");
  backend->Add(suffix);
  Entry people(*Dn::Parse("ou=People,o=Lucent"));
  people.AddObjectClass("top");
  people.SetOne("ou", "People");
  backend->Add(people);
  WorkloadGenerator gen(61);
  for (const Person& person : gen.People(count)) {
    Entry entry(*Dn::Parse(person.dn));
    entry.AddObjectClass("top");
    entry.AddObjectClass("person");
    entry.SetOne("cn", person.cn);
    entry.SetOne("sn", "X");
    entry.SetOne("telephoneNumber", "+1 908 582 " + person.extension);
    backend->Add(entry);
  }
  return backend;
}

void BM_DnParse(benchmark::State& state) {
  const char* text = "cn=Doe\\, John,ou=People,o=Lucent";
  for (auto _ : state) {
    auto dn = Dn::Parse(text);
    benchmark::DoNotOptimize(dn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnParse);

void BM_FilterParse(benchmark::State& state) {
  const char* text =
      "(&(objectClass=inetOrgPerson)(|(cn=John*)(sn=Doe))"
      "(telephoneNumber=+1 908 582 9*))";
  for (auto _ : state) {
    auto filter = Filter::Parse(text);
    benchmark::DoNotOptimize(filter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterParse);

void BM_FilterMatch(benchmark::State& state) {
  auto filter = Filter::Parse(
      "(&(objectClass=person)(telephoneNumber=+1 908 582 4*))");
  Entry entry(*Dn::Parse("cn=X,o=L"));
  entry.Set("objectClass", {"top", "person"});
  entry.SetOne("cn", "X");
  entry.SetOne("telephoneNumber", "+1 908 582 4567");
  for (auto _ : state) {
    bool matched = filter->Matches(entry);
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterMatch);

/// Equality search: the per-attribute index turns a subtree scan into
/// a hash-style lookup. args: [0] = tree size.
void BM_SearchIndexedEquality(benchmark::State& state) {
  auto backend = BuildTree(static_cast<size_t>(state.range(0)));
  ldap::SearchRequest request;
  request.base = *Dn::Parse("o=Lucent");
  request.scope = ldap::Scope::kSubtree;
  request.filter = Filter::Equality("telephoneNumber",
                                    "+1 908 582 40100");
  // The number exists only for >1000 populations; use one that always
  // exists: regenerate from the workload.
  WorkloadGenerator gen(61);
  Person target = gen.People(static_cast<size_t>(state.range(0)))
                      [static_cast<size_t>(state.range(0)) / 2];
  request.filter =
      Filter::Equality("telephoneNumber", "+1 908 582 " + target.extension);
  for (auto _ : state) {
    auto result = backend->Search(request);
    if (!result.ok() || result->entries.size() != 1) {
      state.SkipWithError("search failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchIndexedEquality)->Arg(100)->Arg(1000)->Arg(5000);

/// Substring search cannot use the equality index: full subtree scan.
void BM_SearchSubstringScan(benchmark::State& state) {
  auto backend = BuildTree(static_cast<size_t>(state.range(0)));
  WorkloadGenerator gen(61);
  Person target = gen.People(static_cast<size_t>(state.range(0)))
                      [static_cast<size_t>(state.range(0)) / 2];
  ldap::SearchRequest request;
  request.base = *Dn::Parse("o=Lucent");
  request.scope = ldap::Scope::kSubtree;
  request.filter =
      Filter::Substring("telephoneNumber", "*" + target.extension);
  for (auto _ : state) {
    auto result = backend->Search(request);
    if (!result.ok()) {
      state.SkipWithError("search failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchSubstringScan)->Arg(100)->Arg(1000)->Arg(5000);

/// Substring search whose pattern carries a literal prefix
/// ("+1 908 582 4123*"): the ordered value index turns this into a
/// range scan instead of a full subtree walk.
void BM_SearchSubstringPrefix(benchmark::State& state) {
  auto backend = BuildTree(static_cast<size_t>(state.range(0)));
  WorkloadGenerator gen(61);
  Person target = gen.People(static_cast<size_t>(state.range(0)))
                      [static_cast<size_t>(state.range(0)) / 2];
  ldap::SearchRequest request;
  request.base = *Dn::Parse("o=Lucent");
  request.scope = ldap::Scope::kSubtree;
  request.filter =
      Filter::Substring("telephoneNumber", "+1 908 582 " + target.extension + "*");
  for (auto _ : state) {
    auto result = backend->Search(request);
    if (!result.ok() || result->entries.size() != 1) {
      state.SkipWithError("search failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchSubstringPrefix)->Arg(100)->Arg(1000)->Arg(5000);

/// Nearest-rank percentile of per-operation latencies.
double LatencyPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

/// Reader scaling under a writer storm: N closed-loop reader threads
/// (50us think time, like real lookup clients) run indexed equality
/// searches while one dedicated thread writes flat-out — a stream of
/// multi-valued attribute Modifys punctuated every 64 writes by a
/// subtree-wide case-only rename of ou=People (2000 descendant DNs
/// rewritten and reindexed: the cost shape of a UM propagation wave or
/// a bulk reorg). This is the materialized-view serving scenario
/// (paper §1): lookup traffic must not stall behind integration
/// writes. Readers are paced rather than open-loop because an
/// open-loop reader swarm starves the writer outright on the seed's
/// reader-preferring rwlock, which hides the very contention being
/// measured. Reported per-thread latency percentiles
/// (p50_us/p99_us, averaged across reader threads) are the acceptance
/// metric for the snapshot read path; `writes` shows how much writer
/// progress the read traffic allows.
void BM_SearchUnderWriterStorm(benchmark::State& state) {
  static std::unique_ptr<Backend> backend;
  static std::atomic<bool> stop_writer{false};
  static std::thread writer;
  static std::atomic<uint64_t> writes{0};
  constexpr size_t kPopulation = 2000;
  if (state.thread_index() == 0) {
    backend = BuildTree(kPopulation);
    stop_writer.store(false);
    writes.store(0);
    writer = std::thread([] {
      WorkloadGenerator gen(7);
      std::vector<Person> people = gen.People(kPopulation);
      std::vector<Dn> dns;
      dns.reserve(people.size());
      for (const Person& p : people) dns.push_back(*Dn::Parse(p.dn));
      Dn people_dn = *Dn::Parse("ou=People,o=Lucent");
      size_t i = 0;
      uint64_t stamp = 0;
      bool upper = false;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        if (++stamp % 64 == 0) {
          // Case-only rename: same normalized RDN, so reader DNs keep
          // resolving, but every descendant DN is rewritten and the
          // subtree reindexed — a long exclusive hold on the seed.
          upper = !upper;
          backend->ModifyRdn(people_dn,
                             Rdn("ou", upper ? "PEOPLE" : "People"),
                             /*delete_old_rdn=*/true);
        } else {
          // A UM wave writes several generated attributes per entry;
          // emulate that weight with a multi-valued replace.
          ldap::Modification mod;
          mod.type = ldap::Modification::Type::kReplace;
          mod.attribute = "description";
          for (int k = 0; k < 16; ++k) {
            mod.values.push_back("storm-" + std::to_string(stamp) + "-" +
                                 std::to_string(k));
          }
          backend->Modify(dns[i++ % dns.size()], {std::move(mod)});
        }
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  WorkloadGenerator gen(61);
  std::vector<Person> people = gen.People(kPopulation);
  ldap::SearchRequest request;
  request.base = *Dn::Parse("o=Lucent");
  request.scope = ldap::Scope::kSubtree;
  size_t pick = static_cast<size_t>(state.thread_index()) * 37 + 1;
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 16);
  for (auto _ : state) {
    const Person& target = people[pick++ % people.size()];
    request.filter = Filter::Equality("telephoneNumber",
                                      "+1 908 582 " + target.extension);
    auto start = std::chrono::steady_clock::now();
    auto result = backend->Search(request);
    auto stop = std::chrono::steady_clock::now();
    if (!result.ok() || result->entries.size() != 1) {
      state.SkipWithError("search failed");
      break;
    }
    benchmark::DoNotOptimize(result);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["p50_us"] = benchmark::Counter(
      LatencyPercentile(latencies_us, 0.50), benchmark::Counter::kAvgThreads);
  state.counters["p99_us"] = benchmark::Counter(
      LatencyPercentile(latencies_us, 0.99), benchmark::Counter::kAvgThreads);
  if (state.thread_index() == 0) {
    stop_writer.store(true);
    writer.join();
    state.counters["writes"] = benchmark::Counter(
        static_cast<double>(writes.load()));
    backend.reset();
  }
}
BENCHMARK(BM_SearchUnderWriterStorm)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/// The person entry a synchronous AddPerson leaves once the Update
/// Manager has written back the device classes and the §5.5 backfill:
/// 11 attributes, 7 object classes.
Entry ProvisionedPerson(const Person& person, size_t index) {
  Entry entry(*Dn::Parse(person.dn));
  entry.Set("objectClass",
            {"top", "person", "organizationalPerson", "inetOrgPerson",
             "definityUser", "mpUser", "metacommObject"});
  entry.SetOne("cn", person.cn);
  entry.SetOne("sn", person.extension);
  entry.SetOne("givenName", person.cn.substr(0, person.cn.find(' ')));
  entry.SetOne("telephoneNumber", "+1 908 582 " + person.extension);
  entry.SetOne("employeeType", "standard");
  entry.SetOne("DefinityExtension", person.extension);
  entry.SetOne("DefinityCos", "1");
  entry.SetOne("MpMailboxNumber", person.extension);
  entry.SetOne("MpSubscriberId", "SUB" + std::to_string(100000 + index));
  entry.SetOne("LastUpdater", "ldap");
  return entry;
}

enum class WriteOp { kAdd, kAuxModify, kRoomReplace, kDelete };

/// The write-back's shape: one more objectClass value plus 2 of the
/// auxiliary class's attributes. `add` false builds the inverse.
std::vector<ldap::Modification> AuxClassMods(const Entry& person,
                                             bool add) {
  using Type = ldap::Modification::Type;
  Type type = add ? Type::kAdd : Type::kDelete;
  return {{type, "objectClass", {"mpUser"}},
          {type, "MpMailboxNumber", person.GetAll("MpMailboxNumber")},
          {type, "MpSubscriberId", person.GetAll("MpSubscriberId")}};
}

/// One bare Backend write under the integrated schema, on a directory
/// of state.range(0) provisioned people: the directory-commit half of
/// an LDAP update, with no LTAP, Update Manager or WAL around it.
/// Every iteration times one operation (manual time) and then undoes
/// it untimed, so the directory keeps its size and shape:
///  * add — a new person; undone by a Delete;
///  * aux_modify — the Update Manager's closure write-back (an
///    auxiliary class plus 2 attributes), after an untimed removal;
///  * room_replace — a Replace of roomNumber, servebench's room change;
///  * delete — a person; undone by an Add.
void BM_BackendWrite(benchmark::State& state, WriteOp op) {
  static const ldap::Schema schema = core::BuildIntegratedSchema();
  const size_t population = static_cast<size_t>(state.range(0));
  constexpr size_t kSpares = 64;  // People outside the tree, for add.
  WorkloadGenerator gen(61);
  std::vector<Person> people = gen.People(population + kSpares);
  std::vector<Entry> entries;
  entries.reserve(people.size());
  for (size_t i = 0; i < people.size(); ++i) {
    entries.push_back(ProvisionedPerson(people[i], i));
  }
  Backend backend(&schema);
  Entry suffix(*Dn::Parse("o=Lucent"));
  suffix.Set("objectClass", {"top", "organization"});
  suffix.SetOne("o", "Lucent");
  Entry ou(*Dn::Parse("ou=People,o=Lucent"));
  ou.Set("objectClass", {"top", "organizationalUnit"});
  ou.SetOne("ou", "People");
  bool ok = backend.Add(suffix).ok() && backend.Add(ou).ok();
  for (size_t i = 0; ok && i < population; ++i) {
    ok = backend.Add(entries[i]).ok();
  }
  if (!ok) {
    state.SkipWithError("populating the directory failed");
    return;
  }

  uint64_t k = 0;
  for (auto _ : state) {
    // A stride coprime to the population spreads consecutive writes
    // over the tree instead of walking it in order.
    const Entry& target = entries[(k * 7919) % population];
    const Entry& spare = entries[population + k % kSpares];
    Status undo_first = Status::Ok();
    if (op == WriteOp::kAuxModify) {
      undo_first = backend.Modify(target.dn(), AuxClassMods(target, false));
    }
    auto start = std::chrono::steady_clock::now();
    Status status;
    switch (op) {
      case WriteOp::kAdd:
        status = backend.Add(spare);
        break;
      case WriteOp::kAuxModify:
        status = backend.Modify(target.dn(), AuxClassMods(target, true));
        break;
      case WriteOp::kRoomReplace:
        status = backend.Modify(
            target.dn(), {{ldap::Modification::Type::kReplace, "roomNumber",
                           {"R" + std::to_string(k % 997)}}});
        break;
      case WriteOp::kDelete:
        status = backend.Delete(target.dn());
        break;
    }
    auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    Status undo = Status::Ok();
    if (op == WriteOp::kAdd) undo = backend.Delete(spare.dn());
    if (op == WriteOp::kDelete) undo = backend.Add(target);
    if (!undo_first.ok() || !status.ok() || !undo.ok()) {
      state.SkipWithError("backend write failed");
      break;
    }
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["entries"] = static_cast<double>(population);
}
BENCHMARK_CAPTURE(BM_BackendWrite, add, WriteOp::kAdd)
    ->Arg(1000)->Arg(8000)->UseManualTime()->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BackendWrite, aux_modify, WriteOp::kAuxModify)
    ->Arg(1000)->Arg(8000)->UseManualTime()->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BackendWrite, room_replace, WriteOp::kRoomReplace)
    ->Arg(1000)->Arg(8000)->UseManualTime()->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BackendWrite, delete, WriteOp::kDelete)
    ->Arg(1000)->Arg(8000)->UseManualTime()->Unit(benchmark::kMicrosecond);

void BM_LdifExportImport(benchmark::State& state) {
  auto backend = BuildTree(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string text = storage::ExportLdif(*backend);
    Backend fresh;
    auto loaded = storage::ImportLdif(&fresh, text);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LdifExportImport)->Arg(100)->Arg(1000);

/// The text wire protocol's overhead relative to direct calls.
void BM_TextProtocolSearch(benchmark::State& state) {
  ldap::LdapServer server(
      core::BuildIntegratedSchema(),
      ldap::ServerConfig{.allow_anonymous_writes = true});
  Entry suffix(*Dn::Parse("o=Lucent"));
  suffix.AddObjectClass("top");
  suffix.AddObjectClass("organization");
  suffix.SetOne("o", "Lucent");
  server.backend().Add(suffix);
  Entry person(*Dn::Parse("cn=John Doe,o=Lucent"));
  person.Set("objectClass", {"top", "person", "organizationalPerson",
                             "inetOrgPerson"});
  person.SetOne("cn", "John Doe");
  person.SetOne("sn", "Doe");
  server.backend().Add(person);

  ldap::TextProtocolHandler handler(&server);
  ldap::TextProtocolClient wire(
      [&handler](const std::string& r) { return handler.Handle(r); });

  ldap::OpContext ctx;
  ldap::SearchRequest request;
  request.base = *Dn::Parse("cn=John Doe,o=Lucent");
  request.scope = ldap::Scope::kBase;
  for (auto _ : state) {
    auto result = wire.Search(ctx, request);
    if (!result.ok() || result->entries.size() != 1) {
      state.SkipWithError("wire search failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextProtocolSearch);

}  // namespace
}  // namespace metacomm::bench

#include "bench/bench_main.h"

int main(int argc, char** argv) {
  return metacomm::bench::RunBenchMain("directory", argc, argv);
}
