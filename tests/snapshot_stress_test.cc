#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ldap/backend.h"
#include "ldap/filter.h"

namespace metacomm::ldap {
namespace {

// Snapshot isolation under fire: one writer storms the backend with
// every mutation kind (including whole-subtree renames) while reader
// threads hammer the lock-free paths and assert that every observation
// is internally consistent. Run under ThreadSanitizer by check.sh.
//
// The invariant readers check: each person entry carries `stamp` and
// `stampCopy`, always written to the same value in ONE Modify. A torn
// read — an entry visible mid-update, or a search evaluated across two
// versions — shows up as stamp != stampCopy.

Dn MustParse(const std::string& text) {
  auto dn = Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text;
  return *dn;
}

constexpr int kPersons = 16;

std::string PersonDn(int i) {
  return "cn=Person " + std::to_string(i) + ",ou=People,o=Lucent";
}

void CheckStamps(const Entry& entry, const char* where) {
  std::vector<std::string> stamp = entry.GetAll("stamp");
  std::vector<std::string> copy = entry.GetAll("stampCopy");
  ASSERT_EQ(stamp, copy) << where << ": torn entry at "
                         << entry.dn().ToString();
}

TEST(SnapshotStressTest, ReadersSeeConsistentVersionsUnderWriterStorm) {
  Backend backend;
  {
    Entry lucent(MustParse("o=Lucent"));
    lucent.AddObjectClass("top");
    lucent.SetOne("o", "Lucent");
    ASSERT_TRUE(backend.Add(lucent).ok());
    Entry people(MustParse("ou=People,o=Lucent"));
    people.AddObjectClass("top");
    people.SetOne("ou", "People");
    ASSERT_TRUE(backend.Add(people).ok());
    for (int i = 0; i < kPersons; ++i) {
      Entry person(MustParse(PersonDn(i)));
      person.AddObjectClass("top");
      person.AddObjectClass("person");
      person.SetOne("cn", "Person " + std::to_string(i));
      person.SetOne("sn", "Stress");
      person.SetOne("stamp", "v0");
      person.SetOne("stampCopy", "v0");
      ASSERT_TRUE(backend.Add(person).ok());
    }
  }

  std::atomic<bool> stop{false};

  std::thread writer([&backend, &stop] {
    Dn people = MustParse("ou=People,o=Lucent");
    for (int i = 0; i < 2000; ++i) {
      int op = i % 16;
      if (op == 15) {
        // Case-only subtree rename: same normalized key, but every
        // descendant DN is rewritten and re-indexed in one commit.
        Rdn flipped("ou", i % 32 == 15 ? "PEOPLE" : "People");
        ASSERT_TRUE(
            backend.ModifyRdn(people, flipped, /*delete_old_rdn=*/true)
                .ok());
      } else if (op == 14) {
        // Churn one extra leaf through add/delete.
        Entry extra(MustParse("cn=Visitor,ou=People,o=Lucent"));
        extra.AddObjectClass("top");
        extra.SetOne("cn", "Visitor");
        ASSERT_TRUE(backend.Add(extra).ok());
        ASSERT_TRUE(
            backend.Delete(MustParse("cn=Visitor,ou=People,o=Lucent"))
                .ok());
      } else {
        std::string value = "v" + std::to_string(i);
        Modification stamp;
        stamp.type = Modification::Type::kReplace;
        stamp.attribute = "stamp";
        stamp.values = {value};
        Modification copy;
        copy.type = Modification::Type::kReplace;
        copy.attribute = "stampCopy";
        copy.values = {value};
        ASSERT_TRUE(
            backend.Modify(MustParse(PersonDn(op)), {stamp, copy}).ok());
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&backend, &stop, t] {
      Dn base = MustParse("ou=People,o=Lucent");
      int round = 0;
      while (!stop.load()) {
        // Lock-free Get: the fetched entry is one committed version.
        auto entry = backend.Get(MustParse(PersonDn((t + round) % kPersons)));
        ASSERT_TRUE(entry.ok());
        CheckStamps(*entry, "Get");

        // Indexed subtree search on a consistent snapshot.
        SearchRequest request;
        request.base = base;
        request.scope = Scope::kSubtree;
        request.filter = Filter::Equality("sn", "Stress");
        auto result = backend.Search(request);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result->entries.size(), static_cast<size_t>(kPersons));
        for (const Entry& found : result->entries) {
          CheckStamps(found, "Search");
        }

        // Whole-directory observations agree with themselves.
        Backend::SnapshotPtr snapshot = backend.GetSnapshot();
        size_t counted = 0;
        Backend::ForEachEntry(*snapshot, [&counted](const Entry&) {
          ++counted;
          return true;
        });
        ASSERT_EQ(counted, snapshot->entry_count);
        ++round;
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();

  // Post-storm: tree and index still agree.
  EXPECT_EQ(backend.Size(), static_cast<size_t>(kPersons) + 2);
  SearchRequest request;
  request.base = Dn::Root();
  request.scope = Scope::kSubtree;
  request.filter = Filter::Equality("stamp", "v0");
  auto unmodified = backend.Search(request);
  ASSERT_TRUE(unmodified.ok());
  for (const Entry& entry : unmodified->entries) {
    CheckStamps(entry, "final");
  }
  Backend::ReadStats stats = backend.read_stats();
  EXPECT_GT(stats.searches, 0u);
  EXPECT_GT(stats.indexed_plans, 0u);
}

// Copy-on-write under fire: an entry a Search returns shares the
// stored image's attribute map. Readers keep the entries of a Search,
// wait until the writer has replaced those entries (so the versions
// they were copied from can be dropped), then write to them and drop
// them. A clone decided by shared_ptr::use_count() would see a count
// of 1 here and write in place, racing the writer's earlier reads of
// the same map under ThreadSanitizer; a write that skipped the clone
// while the map was still shared would leak into the stored image.
TEST(SnapshotStressTest, ReaderCopiesWriteWithoutTouchingStoredImages) {
  Backend backend;
  {
    Entry lucent(MustParse("o=Lucent"));
    lucent.SetOne("o", "Lucent");
    ASSERT_TRUE(backend.Add(lucent).ok());
    Entry people(MustParse("ou=People,o=Lucent"));
    people.SetOne("ou", "People");
    ASSERT_TRUE(backend.Add(people).ok());
    for (int i = 0; i < kPersons; ++i) {
      Entry person(MustParse(PersonDn(i)));
      person.AddObjectClass("person");
      person.SetOne("cn", "Person " + std::to_string(i));
      person.SetOne("sn", "Stress");
      person.SetOne("stamp", "v0");
      person.SetOne("stampCopy", "v0");
      ASSERT_TRUE(backend.Add(person).ok());
    }
  }

  constexpr int kWrites = 1500;
  std::atomic<bool> stop{false};
  std::thread writer([&backend, &stop] {
    for (int i = 0; i < kWrites; ++i) {
      std::string value = "v" + std::to_string(i);
      Modification stamp;
      stamp.type = Modification::Type::kReplace;
      stamp.attribute = "stamp";
      stamp.values = {value};
      Modification copy = stamp;
      copy.attribute = "stampCopy";
      ASSERT_TRUE(backend.Modify(MustParse(PersonDn(i % kPersons)),
                                 {stamp, copy})
                      .ok());
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&backend, &stop, t] {
      const std::string mine = "reader" + std::to_string(t);
      const Dn moved = MustParse("cn=" + mine + ",o=Lucent");
      SearchRequest request;
      request.base = MustParse("ou=People,o=Lucent");
      request.scope = Scope::kSubtree;
      request.filter = Filter::Equality("sn", "Stress");
      while (!stop.load()) {
        auto result = backend.Search(request);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result->entries.size(), static_cast<size_t>(kPersons));
        std::vector<Entry> kept = std::move(result->entries);
        for (const Entry& entry : kept) CheckStamps(entry, "search copy");
        uint64_t seen = backend.ChangeCount();
        while (!stop.load() && backend.ChangeCount() < seen + kPersons) {
          std::this_thread::yield();
        }
        // Each kept entry written through a different writer.
        for (size_t i = 0; i < kept.size(); ++i) {
          switch (i % 4) {
            case 0: kept[i].SetOne("stamp", mine); break;
            case 1: kept[i].AddValue("stampCopy", mine); break;
            case 2: kept[i].Remove("stamp"); break;
            default: kept[i].set_dn(moved);
          }
        }
        for (size_t i = 0; i < kept.size(); ++i) {
          switch (i % 4) {
            case 0: ASSERT_EQ(kept[i].GetFirst("stamp"), mine); break;
            case 1: ASSERT_EQ(kept[i].GetAll("stampCopy").size(), 2u); break;
            case 2: ASSERT_FALSE(kept[i].Has("stamp")); break;
            default:
              ASSERT_EQ(kept[i].dn(), moved);
              CheckStamps(kept[i], "moved copy");
          }
        }
        // The stored images never see a reader's write.
        for (int i = 0; i < kPersons; ++i) {
          auto stored = backend.Get(MustParse(PersonDn(i)));
          ASSERT_TRUE(stored.ok());
          CheckStamps(*stored, "stored");
          ASSERT_EQ(stored->GetAll("stamp").size(), 1u);
          ASSERT_NE(stored->GetFirst("stamp"), mine);
        }
      }  // `kept` drops here, racing the writer's clones.
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  for (int i = 0; i < kPersons; ++i) {
    auto stored = backend.Get(MustParse(PersonDn(i)));
    ASSERT_TRUE(stored.ok());
    CheckStamps(*stored, "final");
    int last_write = (kWrites - 1 - i) / kPersons * kPersons + i;
    EXPECT_EQ(stored->GetFirst("stamp"), "v" + std::to_string(last_write));
  }
}

TEST(SnapshotStressTest, HeldSnapshotIsImmutableAcrossLaterWrites) {
  Backend backend;
  Entry suffix(MustParse("o=Lucent"));
  suffix.SetOne("o", "Lucent");
  ASSERT_TRUE(backend.Add(suffix).ok());
  Entry person(MustParse("cn=Pin,o=Lucent"));
  person.SetOne("cn", "Pin");
  person.SetOne("stamp", "before");
  ASSERT_TRUE(backend.Add(person).ok());

  Backend::SnapshotPtr held = backend.GetSnapshot();
  uint64_t held_version = held->version;

  Modification mod;
  mod.type = Modification::Type::kReplace;
  mod.attribute = "stamp";
  mod.values = {"after"};
  ASSERT_TRUE(backend.Modify(MustParse("cn=Pin,o=Lucent"), {mod}).ok());
  ASSERT_TRUE(backend.Delete(MustParse("cn=Pin,o=Lucent")).ok());

  // The held version still shows the world as it was.
  EXPECT_EQ(held->version, held_version);
  const Backend::TreeNode* pinned =
      Backend::FindNode(*held, MustParse("cn=Pin,o=Lucent"));
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->entry.GetFirst("stamp"), "before");
  EXPECT_EQ(held->entry_count, 2u);

  // While the live backend has moved on.
  EXPECT_FALSE(backend.Exists(MustParse("cn=Pin,o=Lucent")));
  EXPECT_EQ(backend.Size(), 1u);
}

}  // namespace
}  // namespace metacomm::ldap
