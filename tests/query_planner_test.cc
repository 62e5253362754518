#include "ldap/query_planner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ldap/backend.h"
#include "ldap/filter.h"

namespace metacomm::ldap {
namespace {

Dn MustParse(const char* text) {
  auto dn = Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text;
  return *dn;
}

Filter MustParseFilter(const std::string& text) {
  auto filter = Filter::Parse(text);
  EXPECT_TRUE(filter.ok()) << text;
  return *filter;
}

/// Reference evaluator: the naive pre-order subtree scan the planner
/// must be indistinguishable from (same entries, same order).
void ScanNode(const Backend::TreeNode* node, const Filter& filter,
              std::vector<Entry>* out) {
  if (filter.Matches(node->entry)) out->push_back(node->entry);
  node->children.ForEach(
      [&](const std::string&,
          const std::shared_ptr<const Backend::TreeNode>& child) {
        ScanNode(child.get(), filter, out);
        return true;
      });
}

std::vector<Entry> ReferenceScan(const Backend& backend, const Dn& base,
                                 const Filter& filter) {
  Backend::SnapshotPtr snapshot = backend.GetSnapshot();
  const Backend::TreeNode* node = Backend::FindNode(*snapshot, base);
  std::vector<Entry> out;
  if (node == nullptr) return out;
  if (base.IsRoot()) {
    node->children.ForEach(
        [&](const std::string&,
            const std::shared_ptr<const Backend::TreeNode>& child) {
          ScanNode(child.get(), filter, &out);
          return true;
        });
  } else {
    ScanNode(node, filter, &out);
  }
  return out;
}

class QueryPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Add("o=Lucent", {{"o", {"Lucent"}}, {"objectClass", {"top"}}});
    Add("ou=People,o=Lucent",
        {{"ou", {"People"}}, {"objectClass", {"top"}}});
    Add("ou=Equipment,o=Lucent",
        {{"ou", {"Equipment"}}, {"objectClass", {"top"}}});
    AddPerson("John Doe", {"+1 908 582 1000"}, "john@lucent.com");
    AddPerson("Jane Roe", {"+1 908 582 1001", "+1 908 582 1002"},
              "jane@lucent.com");
    AddPerson("Jim Poe", {"+1 908 582 2000"}, "");
    // Shares John's number: equality postings with two entries.
    AddPerson("Jack Low", {"+1 908 582 1000"}, "jack@lucent.com");
    // Messy spacing: normalizes to the same index key as Jane's first.
    AddPerson("Copy Cat", {"  +1   908 582 1001 "}, "");
    // A nested container with a person inside, so candidate sets span
    // tree depths and emission order is observable.
    Add("ou=Team A,ou=People,o=Lucent",
        {{"ou", {"Team A"}}, {"objectClass", {"top", "person"}}});
    Add("cn=Ann Lee,ou=Team A,ou=People,o=Lucent",
        {{"cn", {"Ann Lee"}},
         {"sn", {"Lee"}},
         {"objectClass", {"top", "person"}},
         {"telephoneNumber", {"+1 908 582 1003"}}});
    Add("cn=Laser Printer,ou=Equipment,o=Lucent",
        {{"cn", {"Laser Printer"}}, {"objectClass", {"top", "device"}}});
    // Names whose normalized forms hold an escaped comma, a '+' and
    // RDNs that extend a sibling's ("cn=doe" < "cn=doe+l=..." <
    // "cn=doe\, john"; "ou=team" < "ou=team a"), with children under
    // the shorter names: subtree order must cut RDNs at unescaped
    // commas only, and an RDN that ends first sorts first.
    Add("cn=Doe,ou=People,o=Lucent",
        {{"cn", {"Doe"}}, {"objectClass", {"top", "person"}},
         {"telephoneNumber", {"+1 908 582 3000"}}});
    Add("cn=Pager,cn=Doe,ou=People,o=Lucent",
        {{"cn", {"Pager"}}, {"objectClass", {"top", "device"}},
         {"telephoneNumber", {"+1 908 582 3001"}}});
    Add("cn=Doe+l=Murray Hill,ou=People,o=Lucent",
        {{"cn", {"Doe"}}, {"l", {"Murray Hill"}},
         {"objectClass", {"top", "person"}},
         {"telephoneNumber", {"+1 908 582 3002"}}});
    Add("CN=doe\\,  John,ou=People,o=Lucent",
        {{"cn", {"Doe, John"}}, {"objectClass", {"top", "person"}},
         {"telephoneNumber", {"+1 908 582 3003"}}});
    Add("ou=Team,ou=People,o=Lucent",
        {{"ou", {"Team"}}, {"objectClass", {"top"}}});
    Add("cn=Zed,ou=Team,ou=People,o=Lucent",
        {{"cn", {"Zed"}}, {"objectClass", {"top", "person"}},
         {"telephoneNumber", {"+1 908 582 3004"}}});
  }

  void Add(const char* dn,
           const std::vector<std::pair<std::string,
                                       std::vector<std::string>>>& attrs) {
    Entry entry(MustParse(dn));
    for (const auto& [name, values] : attrs) {
      entry.Set(name, values);
    }
    ASSERT_TRUE(backend_.Add(entry).ok()) << dn;
  }

  void AddPerson(const std::string& cn,
                 const std::vector<std::string>& phones,
                 const std::string& mail) {
    Entry entry(
        MustParse(("cn=" + cn + ",ou=People,o=Lucent").c_str()));
    entry.SetOne("cn", cn);
    entry.SetOne("sn", cn.substr(cn.rfind(' ') + 1));
    entry.AddObjectClass("top");
    entry.AddObjectClass("person");
    entry.Set("telephoneNumber", phones);
    if (!mail.empty()) entry.SetOne("mail", mail);
    ASSERT_TRUE(backend_.Add(entry).ok()) << cn;
  }

  StatusOr<SearchResult> Subtree(const Dn& base, const Filter& filter,
                                 size_t size_limit = 0) {
    SearchRequest request;
    request.base = base;
    request.scope = Scope::kSubtree;
    request.filter = filter;
    request.size_limit = size_limit;
    return backend_.Search(request);
  }

  Backend backend_;  // Schema-less; planner behaviour is schema-free.
};

TEST_F(QueryPlannerTest, PlannedSearchesMatchNaiveScanGoldenCorpus) {
  const std::vector<std::string> corpus = {
      // Indexed: equality, incl. case/spacing folding and shared values.
      "(telephoneNumber=+1 908 582 1000)",
      "(TELEPHONENUMBER=+1  908   582 1001)",
      "(cn=JOHN DOE)",
      "(objectClass=person)",
      "(objectClass=top)",
      // Indexed: substring with a literal prefix.
      "(telephoneNumber=+1 908 582 1*)",
      "(cn=j*)",
      "(cn=J*Doe)",
      "(cn=j?m*)",
      // Indexed: compositions.
      "(&(objectClass=person)(telephoneNumber=+1 908 582 1001))",
      "(&(cn=*)(telephoneNumber=+1 908 582 1000))",
      "(&(objectClass=person)(objectClass=top))",
      "(|(cn=John Doe)(cn=Jane Roe))",
      "(|(telephoneNumber=+1 908 582 1*)(cn=Ann Lee))",
      // Indexed, provably empty: absent attribute / absent value.
      "(pager=42)",
      "(cn=Nobody Here)",
      "(&(cn=John Doe)(cn=Jane Roe))",
      // Scan fallbacks: no indexable anchor.
      "(cn=*doe)",
      "(mail=*@lucent.com)",
      "(mail=*)",
      "(telephoneNumber>=+1 908 582 1000)",
      "(telephoneNumber<=+1 908 582 1001)",
      "(sn~=doe)",
      "(!(cn=John Doe))",
      "(|(cn=John Doe)(sn=*oe))",
      "(&(mail=*)(sn=*oe))",
      // Indexed over the escaped-comma, '+' and prefix-sibling names.
      "(cn=Doe*)",
      "(cn=doe)",
      "(cn=doe,  john)",
      "(telephoneNumber=+1 908 582 3*)",
      "(|(cn=Zed)(ou=Team*))",
  };
  const std::vector<Dn> bases = {Dn::Root(), MustParse("o=Lucent"),
                                 MustParse("ou=People,o=Lucent"),
                                 MustParse("ou=Team A,ou=People,o=Lucent"),
                                 MustParse("ou=Team,ou=People,o=Lucent"),
                                 MustParse("cn=Doe,ou=People,o=Lucent")};
  for (const std::string& text : corpus) {
    Filter filter = MustParseFilter(text);
    for (const Dn& base : bases) {
      std::vector<Entry> expected = ReferenceScan(backend_, base, filter);
      auto result = Subtree(base, filter);
      ASSERT_TRUE(result.ok()) << text << " base=" << base.ToString();
      ASSERT_EQ(result->entries.size(), expected.size())
          << text << " base=" << base.ToString();
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(result->entries[i], expected[i])
            << text << " base=" << base.ToString() << " position " << i
            << ": got " << result->entries[i].dn().ToString()
            << ", want " << expected[i].dn().ToString();
      }
    }
  }
}

TEST_F(QueryPlannerTest, StatsDistinguishIndexedFromScanPlans) {
  Backend::ReadStats before = backend_.read_stats();
  ASSERT_TRUE(
      Subtree(Dn::Root(),
              MustParseFilter("(telephoneNumber=+1 908 582 1000)"))
          .ok());
  Backend::ReadStats after_indexed = backend_.read_stats();
  EXPECT_EQ(after_indexed.indexed_plans, before.indexed_plans + 1);
  EXPECT_EQ(after_indexed.scan_plans, before.scan_plans);
  EXPECT_EQ(after_indexed.candidates_examined,
            before.candidates_examined + 2);  // John + Jack share it.
  EXPECT_EQ(after_indexed.candidates_matched,
            before.candidates_matched + 2);

  ASSERT_TRUE(Subtree(Dn::Root(), MustParseFilter("(mail=*)")).ok());
  Backend::ReadStats after_scan = backend_.read_stats();
  EXPECT_EQ(after_scan.scan_plans, after_indexed.scan_plans + 1);
  EXPECT_EQ(after_scan.indexed_plans, after_indexed.indexed_plans);
}

TEST_F(QueryPlannerTest, PrefixPlanPrunesBeforeEvaluation) {
  // "+1 908 582 1*" covers the 100x/1003 keys but not 2000: the plan
  // examines only the five posted entries (Copy Cat is a candidate via
  // its normalized key but its raw value fails the glob re-check, so
  // planned results still equal the scan's).
  Backend::ReadStats before = backend_.read_stats();
  auto result = Subtree(MustParse("ou=People,o=Lucent"),
                        MustParseFilter("(telephoneNumber=+1 908 582 1*)"));
  ASSERT_TRUE(result.ok());
  Backend::ReadStats after = backend_.read_stats();
  EXPECT_EQ(after.indexed_plans, before.indexed_plans + 1);
  uint64_t examined = after.candidates_examined - before.candidates_examined;
  EXPECT_EQ(examined, 5u);
  EXPECT_LT(examined, backend_.Size());  // Pruned: not a full scan.
  EXPECT_EQ(result->entries.size(), 4u);  // John, Jane, Jack, Ann.
}

TEST_F(QueryPlannerTest, IndexedPathKeepsSizeLimitSemantics) {
  Filter shared = MustParseFilter("(telephoneNumber=+1 908 582 1000)");
  // Exactly as many matches as the limit: fine.
  auto exact = Subtree(Dn::Root(), shared, /*size_limit=*/2);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->entries.size(), 2u);
  // One fewer: the third match trips the limit.
  auto over = Subtree(Dn::Root(), shared, /*size_limit=*/1);
  EXPECT_EQ(over.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(QueryPlannerTest, PlanFilterExposesCandidates) {
  Backend::SnapshotPtr snapshot = backend_.GetSnapshot();
  QueryPlan equality = PlanFilter(
      snapshot->index, Filter::Equality("cn", "John Doe"));
  EXPECT_TRUE(equality.indexed);
  ASSERT_EQ(equality.candidates.size(), 1u);
  EXPECT_EQ(equality.candidates[0].second->ToString(),
            "cn=John Doe,ou=People,o=Lucent");

  QueryPlan present = PlanFilter(snapshot->index, Filter::Present("cn"));
  EXPECT_FALSE(present.indexed);

  QueryPlan empty = PlanFilter(
      snapshot->index, Filter::Equality("roomNumber", "4E-432"));
  EXPECT_TRUE(empty.indexed);
  EXPECT_TRUE(empty.candidates.empty());
}

/// Subtree order of two DNs, through the keys a planned search sorts.
bool TreeOrderLess(const Dn& a, const Dn& b) {
  std::string norm_a = a.Normalized();
  std::string norm_b = b.Normalized();
  return TreeOrderKey(norm_a) < TreeOrderKey(norm_b);
}

TEST(TreeOrderLessTest, AncestorsBeforeDescendantsSiblingsByRdn) {
  Dn root = Dn::Root();
  Dn lucent = *Dn::Parse("o=Lucent");
  Dn people = *Dn::Parse("ou=People,o=Lucent");
  Dn equipment = *Dn::Parse("ou=Equipment,o=Lucent");
  Dn john = *Dn::Parse("cn=John Doe,ou=People,o=Lucent");

  EXPECT_TRUE(TreeOrderLess(root, lucent));
  EXPECT_TRUE(TreeOrderLess(lucent, people));
  EXPECT_TRUE(TreeOrderLess(people, john));
  EXPECT_TRUE(TreeOrderLess(equipment, people));  // "equipment" < "people".
  EXPECT_TRUE(TreeOrderLess(equipment, john));
  EXPECT_FALSE(TreeOrderLess(john, people));
  EXPECT_FALSE(TreeOrderLess(people, people));
  // Case-insensitive: normalization drives the order.
  Dn shouty = *Dn::Parse("OU=PEOPLE,O=LUCENT");
  EXPECT_FALSE(TreeOrderLess(people, shouty));
  EXPECT_FALSE(TreeOrderLess(shouty, people));
}

}  // namespace
}  // namespace metacomm::ldap
