// Allocation counts, not timings, for the directory read path: DN
// matching and the tree walk compare normalized names without building
// them, equality matching folds values without building them, and a
// copy of a stored entry shares its attribute map. On the write path,
// a treap write copies one logarithmic path whatever the keys look
// like. Every global operator new in this binary is counted.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/persistent_map.h"
#include "ldap/backend.h"
#include "ldap/filter.h"

namespace {

std::atomic<long> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace metacomm::ldap {
namespace {

/// Heap allocations `fn` makes.
template <typename Fn>
long AllocationsOf(Fn&& fn) {
  long before = allocations.load(std::memory_order_relaxed);
  fn();
  return allocations.load(std::memory_order_relaxed) - before;
}

// Values longer than the small-string buffer, so a temporary string
// per comparison would show as an allocation.
constexpr const char* kPerson =
    "cn=John Jacob Jingleheimer Schmidt,ou=People and Places,"
    "o=Lucent Technologies";
constexpr const char* kPersonFolded =
    "CN=john jacob   JINGLEHEIMER schmidt, OU=people and places,"
    "O=lucent technologies";
constexpr const char* kContainer = "ou=People and Places,o=Lucent Technologies";

Dn MustParse(const char* text) {
  auto dn = Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text;
  return dn.ok() ? *dn : Dn();
}

class AllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Add("o=Lucent Technologies", "o", "Lucent Technologies");
    Add(kContainer, "ou", "People and Places");
    for (const char* cn : {"Ada Lovelace the First", "Grace Brewster Hopper",
                           "Zed Alphonse Zebulon"}) {
      Add((std::string("cn=") + cn + "," + kContainer).c_str(), "cn", cn);
    }
    Entry person(MustParse(kPerson));
    person.SetOne("cn", "John Jacob Jingleheimer Schmidt");
    person.SetOne("sn", "Schmidt");
    person.Set("objectClass", {"top", "person", "definityUser"});
    person.Set("telephoneNumber", {"+1 908 582 40123", "+1 908 582 40124"});
    person.SetOne("roomNumber", "2C-401 Murray Hill Building");
    ASSERT_TRUE(backend_.Add(person).ok());
  }

  void Add(const char* dn, const char* attribute, const char* value) {
    Entry entry(MustParse(dn));
    entry.SetOne(attribute, value);
    entry.AddObjectClass("top");
    ASSERT_TRUE(backend_.Add(entry).ok()) << dn;
  }

  Backend backend_;
};

TEST_F(AllocationTest, DnMatchingAllocatesNothing) {
  Dn person = MustParse(kPerson);
  Dn folded = MustParse(kPersonFolded);
  Dn container = MustParse(kContainer);
  ASSERT_EQ(person.depth(), 3u);
  bool equal = false;
  bool within = false;
  auto match = [&] {
    equal = person == folded;
    within = person.IsWithin(container);
  };
  match();  // Warm-up.
  EXPECT_EQ(AllocationsOf(match), 0);
  EXPECT_TRUE(equal);
  EXPECT_TRUE(within);
}

TEST_F(AllocationTest, FindNodeAllocatesNothing) {
  Backend::SnapshotPtr snapshot = backend_.GetSnapshot();
  Dn folded = MustParse(kPersonFolded);
  const Backend::TreeNode* node = nullptr;
  auto find = [&] { node = Backend::FindNode(*snapshot, folded); };
  find();  // Warm-up.
  EXPECT_EQ(AllocationsOf(find), 0);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->entry.GetFirst("sn"), "Schmidt");
}

TEST_F(AllocationTest, EqualityMatchAllocatesNothing) {
  Filter filter =
      Filter::Equality("roomNumber", "2c-401   MURRAY hill building");
  Backend::SnapshotPtr snapshot = backend_.GetSnapshot();
  const Backend::TreeNode* node =
      Backend::FindNode(*snapshot, MustParse(kPerson));
  ASSERT_NE(node, nullptr);
  bool matched = false;
  auto match = [&] { matched = filter.Matches(node->entry); };
  match();  // Warm-up.
  EXPECT_EQ(AllocationsOf(match), 0);
  EXPECT_TRUE(matched);
}

TEST_F(AllocationTest, CopyingAStoredEntryAllocatesNoAttributeStorage) {
  Backend::SnapshotPtr snapshot = backend_.GetSnapshot();
  const Backend::TreeNode* node =
      Backend::FindNode(*snapshot, MustParse(kPerson));
  ASSERT_NE(node, nullptr);
  const Entry& stored = node->entry;
  std::optional<Dn> dn_copy;
  std::optional<Entry> entry_copy;
  long dn_only = AllocationsOf([&] { dn_copy.emplace(stored.dn()); });
  long whole = AllocationsOf([&] { entry_copy.emplace(stored); });
  EXPECT_GT(dn_only, 0);
  EXPECT_EQ(whole, dn_only);  // The DN's storage and nothing more.
  EXPECT_EQ(*entry_copy, stored);

  // A search result is such a copy too.
  SearchRequest request;
  request.base = MustParse(kPerson);
  request.scope = Scope::kBase;
  auto result = backend_.Search(request);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->entries.size(), 1u);
  EXPECT_EQ(&result->entries[0].attributes(), &stored.attributes());
}

// The key shapes the directory indexes: extensions, telephone
// numbers, PBX rooms as servebench's ddu technicians name them a few
// thousand changes into a run, minted subscriber ids, people and
// error-log entries. All but the telephone numbers fit the
// small-string buffer; a node copy then allocates once, and a longer
// key costs one more heap string per copied node.
struct KeyShape {
  const char* name;
  std::string (*key)(int);
};

std::string Printed(const char* format, int i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, i);
  return buf;
}

const KeyShape kKeyShapes[] = {
    {"extension", [](int i) { return std::to_string(20000 + i); }},
    {"telephoneNumber",
     [](int i) { return Printed("+1 908 582 2%04d", i); }},
    {"ddu room",
     [](int i) {
       return "d" + std::to_string(i % 4) + "-" +
              std::to_string(5001 + i / 4);
     }},
    {"subscriber id", [](int i) { return Printed("sub%06d", i + 1); }},
    {"person", [](int i) { return "cn=p" + std::to_string(i); }},
    {"error entry",
     [](int i) { return "cn=error-" + std::to_string(i + 1); }},
};

// A treap with priorities independent of the key order is about
// 2 ln n deep (15 at n = 2000), and a write copies one path. Raw
// FNV-1a priorities left these shapes 46-112 deep on average.
TEST(PersistentMapAllocationTest, AWriteCopiesOneShortPathForEveryKeyShape) {
  constexpr int kKeys = 2000;
  constexpr double kPerNodeBound = 20;
  for (const KeyShape& shape : kKeyShapes) {
    std::vector<std::string> keys;
    PersistentMap<int> map;
    for (int i = 0; i < kKeys; ++i) {
      keys.push_back(shape.key(i));
      map = map.Insert(keys.back(), i);
    }
    ASSERT_EQ(map.size(), static_cast<size_t>(kKeys)) << shape.name;
    bool long_keys = false;
    long overwrites = 0;
    long erases = 0;
    for (const std::string& key : keys) {
      long_keys |= key.size() > 15;
      overwrites += AllocationsOf([&] { (void)map.Insert(key, -1); });
      erases += AllocationsOf([&] { (void)map.Erase(key); });
    }
    const double bound = long_keys ? 2 * kPerNodeBound : kPerNodeBound;
    EXPECT_LE(static_cast<double>(overwrites) / kKeys, bound)
        << "overwriting Insert, " << shape.name << " keys";
    EXPECT_LE(static_cast<double>(erases) / kKeys, bound)
        << "Erase, " << shape.name << " keys";
  }
}

}  // namespace
}  // namespace metacomm::ldap
