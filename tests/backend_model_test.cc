#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "ldap/backend.h"

namespace metacomm::ldap {
namespace {

/// Model-based property test: random operation sequences run against
/// the Backend AND a deliberately naive reference model; both must
/// accept/reject the same operations and end in the same state. The
/// model encodes exactly the LDAP semantics the paper leans on:
/// parent-must-exist, leaf-only deletes, per-entry atomicity, RDN
/// protection.
class Model {
 public:
  /// Mirrors Backend::Add.
  bool Add(const Entry& entry) {
    std::string key = entry.dn().Normalized();
    if (entry.dn().IsRoot()) return false;
    if (entries_.count(key) > 0) return false;
    if (entry.dn().depth() > 1 &&
        entries_.count(entry.dn().Parent().Normalized()) == 0) {
      return false;
    }
    entries_.emplace(key, entry);
    return true;
  }

  /// Mirrors Backend::Delete (leaf-only).
  bool Delete(const Dn& dn) {
    std::string key = dn.Normalized();
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    for (const auto& [other_key, other] : entries_) {
      if (other_key != key && other.dn().Parent().Normalized() == key) {
        return false;  // Non-leaf.
      }
    }
    entries_.erase(it);
    return true;
  }

  /// Mirrors Backend::Modify with a single kReplace (non-RDN attr).
  bool Replace(const Dn& dn, const std::string& attr,
               const std::vector<std::string>& values) {
    auto it = entries_.find(dn.Normalized());
    if (it == entries_.end()) return false;
    it->second.Set(attr, values);
    return true;
  }

  /// Mirrors Backend::ModifyRdn for leaves.
  bool Rename(const Dn& dn, const Rdn& new_rdn) {
    std::string key = dn.Normalized();
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    Dn new_dn = dn.WithLeaf(new_rdn);
    std::string new_key = new_dn.Normalized();
    if (new_key != key && entries_.count(new_key) > 0) return false;
    for (const auto& [other_key, other] : entries_) {
      if (other_key != key && other.dn().Parent().Normalized() == key) {
        return false;  // Keep the model simple: rename leaves only.
      }
    }
    Entry entry = it->second;
    // delete_old_rdn semantics for single-AVA RDNs.
    for (const Ava& ava : dn.leaf().avas()) {
      entry.RemoveValue(ava.attribute, ava.value);
    }
    for (const Ava& ava : new_rdn.avas()) {
      entry.AddValue(ava.attribute, ava.value);
    }
    entry.set_dn(new_dn);
    entries_.erase(it);
    entries_.emplace(new_key, entry);
    return true;
  }

  size_t Size() const { return entries_.size(); }

  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

Entry MakeEntry(const Dn& dn, Random& rng) {
  Entry entry(dn);
  entry.AddObjectClass("top");
  for (const Ava& ava : dn.leaf().avas()) {
    entry.AddValue(ava.attribute, ava.value);
  }
  if (rng.Bernoulli(0.6)) {
    entry.SetOne("description", "d" + std::to_string(rng.Uniform(5)));
  }
  return entry;
}

class BackendModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendModelTest, RandomOpsAgreeWithModel) {
  Random rng(GetParam());
  Backend backend;  // Schema-less: pure tree semantics under test.
  Model model;

  // A small universe of names so collisions/conflicts actually happen.
  std::vector<Dn> universe;
  for (const char* org : {"o=A", "o=B"}) {
    Dn suffix = *Dn::Parse(org);
    universe.push_back(suffix);
    for (int ou = 0; ou < 2; ++ou) {
      Dn container = suffix.Child(Rdn("ou", "u" + std::to_string(ou)));
      universe.push_back(container);
      for (int person = 0; person < 4; ++person) {
        universe.push_back(
            container.Child(Rdn("cn", "p" + std::to_string(person))));
      }
    }
  }

  for (int step = 0; step < 2000; ++step) {
    const Dn& dn = universe[rng.Uniform(universe.size())];
    switch (rng.Uniform(4)) {
      case 0: {  // Add.
        Entry entry = MakeEntry(dn, rng);
        bool model_ok = model.Add(entry);
        Status status = backend.Add(entry);
        ASSERT_EQ(status.ok(), model_ok)
            << "step " << step << " add " << dn.ToString() << ": "
            << status;
        break;
      }
      case 1: {  // Delete.
        bool model_ok = model.Delete(dn);
        Status status = backend.Delete(dn);
        ASSERT_EQ(status.ok(), model_ok)
            << "step " << step << " delete " << dn.ToString() << ": "
            << status;
        break;
      }
      case 2: {  // Replace a non-RDN attribute.
        std::vector<std::string> values;
        if (rng.Bernoulli(0.8)) {
          values.push_back("v" + std::to_string(rng.Uniform(5)));
        }
        Modification mod;
        mod.type = Modification::Type::kReplace;
        mod.attribute = "description";
        mod.values = values;
        bool model_ok = model.Replace(dn, "description", values);
        Status status = backend.Modify(dn, {mod});
        ASSERT_EQ(status.ok(), model_ok)
            << "step " << step << " modify " << dn.ToString() << ": "
            << status;
        break;
      }
      default: {  // Rename a leaf within the person namespace.
        if (dn.leaf().avas().front().attribute != "cn") break;
        Rdn new_rdn("cn", "p" + std::to_string(rng.Uniform(6)));
        bool model_ok = model.Rename(dn, new_rdn);
        Status status = backend.ModifyRdn(dn, new_rdn, true);
        ASSERT_EQ(status.ok(), model_ok)
            << "step " << step << " rename " << dn.ToString() << " -> "
            << new_rdn.ToString() << ": " << status;
        break;
      }
    }
    ASSERT_EQ(backend.Size(), model.Size()) << "step " << step;
  }

  // Final deep comparison.
  std::vector<Entry> dump = backend.DumpAll();
  ASSERT_EQ(dump.size(), model.Size());
  for (const Entry& entry : dump) {
    auto it = model.entries().find(entry.dn().Normalized());
    ASSERT_NE(it, model.entries().end()) << entry.dn().ToString();
    EXPECT_TRUE(entry == it->second)
        << "backend:\n" << entry.ToString() << "model:\n"
        << it->second.ToString();
  }
}

/// (attribute key, value key, normalized DN, DN) for every posting.
using IndexTuple =
    std::tuple<std::string, std::string, std::string, std::string>;

/// Flattens a snapshot's value index; flags any empty value layer or
/// postings layer (an absent attribute or value must leave no layer).
std::vector<IndexTuple> FlattenIndex(const Backend::Snapshot& snapshot,
                                     bool* empty_layer) {
  std::vector<IndexTuple> out;
  snapshot.index.ForEach([&](const std::string& attr,
                             const Backend::ValueIndex& values) {
    if (values.empty()) *empty_layer = true;
    values.ForEach([&](const std::string& value,
                       const Backend::Postings& postings) {
      if (postings.empty()) *empty_layer = true;
      postings.ForEach([&](const std::string& norm_dn,
                           const std::shared_ptr<const Dn>& dn) {
        out.emplace_back(attr, value, norm_dn, dn->ToString());
        return true;
      });
      return true;
    });
    return true;
  });
  return out;
}

/// The index a fresh backend builds from `backend`'s entries.
std::vector<IndexTuple> RebuiltIndex(const Backend& backend) {
  Backend fresh;
  for (const Entry& entry : backend.DumpAll()) {
    EXPECT_TRUE(fresh.Add(entry).ok()) << entry.dn().ToString();
  }
  bool empty_layer = false;
  return FlattenIndex(*fresh.GetSnapshot(), &empty_layer);
}

/// The incremental index (Add indexes, Modify moves only the changed
/// keys, ModifyRdn and Delete de-index) must equal a rebuild from the
/// entries after every operation.
TEST_P(BackendModelTest, IncrementalIndexEqualsRebuild) {
  Random rng(GetParam());
  Backend backend;
  std::vector<Dn> universe;
  for (const char* org : {"o=A", "o=B"}) {
    Dn suffix = *Dn::Parse(org);
    universe.push_back(suffix);
    for (int person = 0; person < 6; ++person) {
      universe.push_back(
          suffix.Child(Rdn("cn", "p" + std::to_string(person))));
    }
  }
  const std::vector<std::string> attributes = {"description", "mail",
                                               "objectClass"};
  // Distinct attribute values that share a normalized index key
  // ("Foo Bar" / "foo  bar", "y" / " y ").
  const std::vector<std::string> key_sharing = {
      "Foo Bar", "foo  bar", "FOO BAR", " foo bar", "y", " y ", "Y", "x y",
      "x  y"};
  auto pick_values = [&rng, &key_sharing](size_t max) {
    std::vector<std::string> values;
    size_t count = rng.Uniform(max + 1);
    for (size_t i = 0; i < count; ++i) {
      values.push_back(rng.Choice(key_sharing));
    }
    return values;
  };

  for (int step = 0; step < 1500; ++step) {
    const Dn& dn = rng.Choice(universe);
    switch (rng.Uniform(4)) {
      case 0: {  // Add.
        Entry entry(dn);
        entry.AddObjectClass("top");
        for (const Ava& ava : dn.leaf().avas()) {
          entry.AddValue(ava.attribute, ava.value);
        }
        for (const std::string& value : pick_values(3)) {
          entry.AddValue(rng.Choice(attributes), value);
        }
        backend.Add(entry);
        break;
      }
      case 1: {  // Modify, addressed by the DN in another letter case.
        Modification mod;
        mod.type = rng.Choice(std::vector<Modification::Type>{
            Modification::Type::kAdd, Modification::Type::kDelete,
            Modification::Type::kReplace});
        mod.attribute = rng.Choice(attributes);
        mod.values = pick_values(3);
        Dn target = rng.Bernoulli(0.5) ? *Dn::Parse(ToUpper(dn.ToString()))
                                       : dn;
        backend.Modify(target, {mod});
        break;
      }
      case 2: {  // Leaf ModifyRdn.
        if (dn.depth() < 2) break;
        Rdn new_rdn("cn", "p" + std::to_string(rng.Uniform(6)));
        backend.ModifyRdn(dn, new_rdn, rng.Bernoulli(0.5));
        break;
      }
      default:  // Delete.
        backend.Delete(dn);
        break;
    }
    bool empty_layer = false;
    std::vector<IndexTuple> incremental =
        FlattenIndex(*backend.GetSnapshot(), &empty_layer);
    ASSERT_FALSE(empty_layer) << "step " << step;
    ASSERT_EQ(incremental, RebuiltIndex(backend)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 42u,
                                           20260705u));

}  // namespace
}  // namespace metacomm::ldap
