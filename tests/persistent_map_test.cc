#include "common/persistent_map.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace metacomm {
namespace {

using Entries = std::vector<std::pair<std::string, int>>;

Entries Collect(const PersistentMap<int>& map) {
  Entries out;
  map.ForEach([&out](const std::string& key, int value) {
    out.emplace_back(key, value);
    return true;
  });
  return out;
}

TEST(PersistentMapTest, EmptyMap) {
  PersistentMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find("anything"), nullptr);
  EXPECT_TRUE(Collect(map).empty());
}

TEST(PersistentMapTest, InsertFindErase) {
  PersistentMap<int> map;
  map = map.Insert("b", 2).Insert("a", 1).Insert("c", 3);
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.Find("a"), nullptr);
  EXPECT_EQ(*map.Find("a"), 1);
  EXPECT_EQ(*map.Find("b"), 2);
  EXPECT_EQ(*map.Find("c"), 3);
  EXPECT_EQ(map.Find("d"), nullptr);

  map = map.Erase("b");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.Find("b"), nullptr);
  EXPECT_NE(map.Find("a"), nullptr);
  EXPECT_NE(map.Find("c"), nullptr);
}

TEST(PersistentMapTest, InsertOverwrites) {
  PersistentMap<int> map;
  map = map.Insert("k", 1);
  map = map.Insert("k", 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find("k"), 2);
}

TEST(PersistentMapTest, EraseMissingIsNoop) {
  PersistentMap<int> map;
  map = map.Insert("a", 1);
  PersistentMap<int> same = map.Erase("zzz");
  EXPECT_EQ(same.size(), 1u);
  EXPECT_EQ(*same.Find("a"), 1);
}

TEST(PersistentMapTest, DerivedMapsLeaveParentsUntouched) {
  // The whole point: a reader holding an old version must never see a
  // writer's derived version.
  PersistentMap<int> v0;
  PersistentMap<int> v1 = v0.Insert("x", 1);
  PersistentMap<int> v2 = v1.Insert("y", 2);
  PersistentMap<int> v3 = v2.Erase("x");
  PersistentMap<int> v4 = v2.Insert("x", 99);

  EXPECT_TRUE(v0.empty());
  EXPECT_EQ(Collect(v1), (Entries{{"x", 1}}));
  EXPECT_EQ(Collect(v2), (Entries{{"x", 1}, {"y", 2}}));
  EXPECT_EQ(Collect(v3), (Entries{{"y", 2}}));
  EXPECT_EQ(Collect(v4), (Entries{{"x", 99}, {"y", 2}}));
}

TEST(PersistentMapTest, IterationIsSortedRegardlessOfInsertionOrder) {
  const std::vector<std::string> keys = {"delta", "alpha",   "echo",
                                         "bravo", "charlie", "foxtrot"};
  PersistentMap<int> forward;
  PersistentMap<int> backward;
  for (size_t i = 0; i < keys.size(); ++i) {
    forward = forward.Insert(keys[i], static_cast<int>(i));
    backward =
        backward.Insert(keys[keys.size() - 1 - i],
                        static_cast<int>(keys.size() - 1 - i));
  }
  Entries expected = {{"alpha", 1},   {"bravo", 3}, {"charlie", 4},
                      {"delta", 0},   {"echo", 2},  {"foxtrot", 5}};
  EXPECT_EQ(Collect(forward), expected);
  EXPECT_EQ(Collect(backward), expected);
}

TEST(PersistentMapTest, ForEachStopsEarly) {
  PersistentMap<int> map;
  for (char c = 'a'; c <= 'e'; ++c) {
    map = map.Insert(std::string(1, c), c);
  }
  Entries seen;
  bool completed = map.ForEach([&seen](const std::string& key, int value) {
    seen.emplace_back(key, value);
    return seen.size() < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "a");
  EXPECT_EQ(seen[1].first, "b");
}

TEST(PersistentMapTest, ForEachFromStartsAtLowerBound) {
  PersistentMap<int> map;
  map = map.Insert("apple", 1)
            .Insert("banana", 2)
            .Insert("cherry", 3)
            .Insert("date", 4);

  Entries from_banana;
  map.ForEachFrom("banana", [&](const std::string& key, int value) {
    from_banana.emplace_back(key, value);
    return true;
  });
  EXPECT_EQ(from_banana,
            (Entries{{"banana", 2}, {"cherry", 3}, {"date", 4}}));

  // A `from` between keys starts at the next key up.
  Entries from_bx;
  map.ForEachFrom("bx", [&](const std::string& key, int value) {
    from_bx.emplace_back(key, value);
    return true;
  });
  EXPECT_EQ(from_bx, (Entries{{"cherry", 3}, {"date", 4}}));

  // A `from` past every key visits nothing.
  Entries from_end;
  map.ForEachFrom("zzz", [&](const std::string& key, int value) {
    from_end.emplace_back(key, value);
    return true;
  });
  EXPECT_TRUE(from_end.empty());
}

TEST(PersistentMapTest, LargeMapStaysConsistent) {
  PersistentMap<int> map;
  for (int i = 0; i < 1000; ++i) {
    map = map.Insert("key" + std::to_string(i), i);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    const int* value = map.Find("key" + std::to_string(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i);
  }
  for (int i = 0; i < 1000; i += 2) {
    map = map.Erase("key" + std::to_string(i));
  }
  EXPECT_EQ(map.size(), 500u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(map.Find("key" + std::to_string(i)) != nullptr, i % 2 == 1);
  }
}

using Model = std::map<std::string, int>;

Entries Collect(const Model& model) {
  return Entries(model.begin(), model.end());
}

Entries CollectFrom(const PersistentMap<int>& map, const std::string& from) {
  Entries out;
  map.ForEachFrom(from, [&out](const std::string& key, int value) {
    out.emplace_back(key, value);
    return true;
  });
  return out;
}

Entries CollectFrom(const Model& model, const std::string& from) {
  return Entries(model.lower_bound(from), model.end());
}

/// Model test: seeded interleavings of inserts (new keys and
/// overwrites) and erases (present and absent keys) against std::map.
/// Keys share long prefixes, and some keys are prefixes of others, so
/// every comparison on a search path runs deep into the key.
class PersistentMapModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistentMapModelTest, RandomOpsAgreeWithStdMap) {
  Random rng(GetParam());
  std::vector<std::string> universe;
  const std::string prefix = "cn=person,ou=people,o=lucent#";
  for (int i = 0; i < 160; ++i) {
    universe.push_back(prefix + std::to_string(i));
  }
  universe.push_back(prefix);
  universe.push_back(prefix.substr(0, prefix.size() / 2));
  universe.push_back("");

  PersistentMap<int> map;
  Model model;
  std::vector<std::pair<PersistentMap<int>, Model>> retained;
  for (int step = 0; step < 3000; ++step) {
    const std::string& key = rng.Choice(universe);
    if (rng.Bernoulli(0.6)) {
      int value = static_cast<int>(rng.Uniform(1000));
      map = map.Insert(key, value);
      model[key] = value;
    } else {
      map = map.Erase(key);
      model.erase(key);
    }
    ASSERT_EQ(map.size(), model.size()) << "step " << step;
    ASSERT_EQ(map.empty(), model.empty()) << "step " << step;
    for (const std::string& probe : {key, rng.Choice(universe)}) {
      const int* found = map.Find(probe);
      auto it = model.find(probe);
      ASSERT_EQ(found != nullptr, it != model.end())
          << "step " << step << " key " << probe;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "step " << step;
      }
    }
    ASSERT_EQ(Collect(map), Collect(model)) << "step " << step;
    // A `from` between keys as well as on one.
    std::string from = rng.Choice(universe) + (rng.Bernoulli(0.5) ? "" : "5");
    ASSERT_EQ(CollectFrom(map, from), CollectFrom(model, from))
        << "step " << step << " from " << from;
    if (step % 250 == 0) retained.emplace_back(map, model);
  }
  for (const auto& [version, expected] : retained) {
    EXPECT_EQ(version.size(), expected.size());
    EXPECT_EQ(Collect(version), Collect(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentMapModelTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 20260705u));

}  // namespace
}  // namespace metacomm
