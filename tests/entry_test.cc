#include "ldap/entry.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace metacomm::ldap {
namespace {

TEST(AttributeTest, SetSemantics) {
  Attribute attr("mail");
  EXPECT_TRUE(attr.AddValue("jd@lucent.com"));
  EXPECT_FALSE(attr.AddValue("JD@LUCENT.COM"));  // Case-insensitive dup.
  EXPECT_EQ(attr.size(), 1u);
  EXPECT_TRUE(attr.HasValue("Jd@Lucent.Com"));
  EXPECT_TRUE(attr.RemoveValue("JD@lucent.com"));
  EXPECT_FALSE(attr.RemoveValue("jd@lucent.com"));
  EXPECT_TRUE(attr.empty());
}

TEST(AttributeTest, FirstValueAndEquality) {
  Attribute a("cn", {"John", "Johnny"});
  EXPECT_EQ(a.FirstValue(), "John");
  Attribute b("CN", {"johnny", "john"});
  EXPECT_TRUE(a == b);  // Name and value sets match, order ignored.
  Attribute c("cn", {"John"});
  EXPECT_FALSE(a == c);
  Attribute empty("cn");
  EXPECT_EQ(empty.FirstValue(), "");
}

TEST(AttributeTest, ConstructorDeduplicates) {
  Attribute attr("cn", {"A", "a", "B"});
  EXPECT_EQ(attr.size(), 2u);
}

TEST(EntryTest, BasicAccessors) {
  Entry entry(Dn::Root().Child(Rdn("cn", "John Doe")));
  EXPECT_FALSE(entry.Has("cn"));
  entry.SetOne("cn", "John Doe");
  EXPECT_TRUE(entry.Has("cn"));
  EXPECT_TRUE(entry.Has("CN"));  // Case-insensitive names.
  EXPECT_EQ(entry.GetFirst("cN"), "John Doe");
  EXPECT_EQ(entry.GetAll("cn").size(), 1u);
  EXPECT_EQ(entry.GetFirst("missing"), "");
  EXPECT_TRUE(entry.GetAll("missing").empty());
}

TEST(EntryTest, SetEmptyRemoves) {
  Entry entry;
  entry.SetOne("roomNumber", "2C-401");
  entry.Set("roomNumber", {});
  EXPECT_FALSE(entry.Has("roomNumber"));
}

TEST(EntryTest, AddRemoveValues) {
  Entry entry;
  EXPECT_TRUE(entry.AddValue("telephoneNumber", "+1 908 582 9000"));
  EXPECT_TRUE(entry.AddValue("telephoneNumber", "+1 908 582 9001"));
  EXPECT_FALSE(entry.AddValue("telephoneNumber", "+1 908 582 9000"));
  EXPECT_EQ(entry.GetAll("telephoneNumber").size(), 2u);
  EXPECT_TRUE(entry.RemoveValue("telephoneNumber", "+1 908 582 9000"));
  EXPECT_FALSE(entry.RemoveValue("telephoneNumber", "nope"));
  EXPECT_TRUE(entry.RemoveValue("telephoneNumber", "+1 908 582 9001"));
  // Attribute vanishes with its last value.
  EXPECT_FALSE(entry.Has("telephoneNumber"));
  EXPECT_FALSE(entry.RemoveValue("telephoneNumber", "x"));
}

TEST(EntryTest, ObjectClassHelpers) {
  Entry entry;
  EXPECT_FALSE(entry.HasObjectClass("person"));
  entry.AddObjectClass("top");
  entry.AddObjectClass("person");
  entry.AddObjectClass("person");  // Dedup.
  EXPECT_TRUE(entry.HasObjectClass("PERSON"));
  EXPECT_EQ(entry.GetAll("objectClass").size(), 2u);
}

TEST(EntryTest, EqualityIsDeepAndCaseInsensitive) {
  Entry a(Dn::Root().Child(Rdn("cn", "X")));
  a.SetOne("cn", "X");
  a.Set("mail", {"a@x", "b@x"});
  Entry b(Dn::Root().Child(Rdn("CN", "x")));
  b.SetOne("CN", "X");
  b.Set("MAIL", {"B@X", "A@X"});
  EXPECT_TRUE(a == b);
  b.SetOne("sn", "S");
  EXPECT_FALSE(a == b);
}

TEST(EntryTest, ToStringIsLdifLike) {
  Entry entry(Dn::Root().Child(Rdn("cn", "X")));
  entry.SetOne("cn", "X");
  std::string text = entry.ToString();
  EXPECT_NE(text.find("dn: cn=X"), std::string::npos);
  EXPECT_NE(text.find("cn: X"), std::string::npos);
}

Entry MakePat() {
  Entry entry(*Dn::Parse("cn=Pat,o=Lucent"));
  entry.SetOne("cn", "Pat");
  entry.Set("mail", {"a@x", "b@x"});
  entry.AddObjectClass("top");
  entry.AddObjectClass("person");
  return entry;
}

/// Every writer of Entry, each one changing Pat's image.
std::vector<std::pair<const char*, std::function<void(Entry*)>>>
Writers() {
  return {
      {"Set", [](Entry* e) { e->Set("mail", {"c@x"}); }},
      {"SetOne", [](Entry* e) { e->SetOne("sn", "Q"); }},
      {"AddValue", [](Entry* e) { e->AddValue("mail", "c@x"); }},
      {"RemoveValue", [](Entry* e) { e->RemoveValue("mail", "A@X"); }},
      {"Remove", [](Entry* e) { e->Remove("mail"); }},
      {"AddObjectClass",
       [](Entry* e) { e->AddObjectClass("definityUser"); }},
      {"set_dn", [](Entry* e) { e->set_dn(*Dn::Parse("cn=Lee,o=Lucent")); }},
  };
}

TEST(EntryTest, CopiesChangeIndependentlyThroughEveryWriter) {
  const Entry pat = MakePat();
  for (const auto& [name, write] : Writers()) {
    SCOPED_TRACE(name);
    // A written copy leaves its source (and the source's other copies)
    // as they were.
    Entry source = MakePat();
    Entry sibling = source;
    Entry copy = source;
    write(&copy);
    EXPECT_FALSE(copy == pat);
    EXPECT_EQ(source, pat);
    EXPECT_EQ(sibling, pat);

    // A written source leaves its copies as they were, whether copy-
    // constructed, copy-assigned or copied from a copy.
    Entry original = MakePat();
    Entry constructed = original;
    Entry assigned;
    assigned = original;
    Entry second_hand = constructed;
    write(&original);
    EXPECT_FALSE(original == pat);
    EXPECT_EQ(constructed, pat);
    EXPECT_EQ(assigned, pat);
    EXPECT_EQ(second_hand, pat);

    // Writing a copy twice, then its source, keeps both images apart.
    Entry again = MakePat();
    Entry twice = again;
    write(&twice);
    twice.SetOne("description", "twice");
    again.SetOne("description", "source");
    EXPECT_EQ(twice.GetFirst("description"), "twice");
    EXPECT_EQ(again.GetFirst("description"), "source");
  }
}

TEST(EntryTest, MovedFromEntryIsEmptyAndWritable) {
  Entry source = MakePat();
  Entry moved = std::move(source);
  EXPECT_EQ(moved, MakePat());
  source = Entry(*Dn::Parse("cn=Fresh,o=Lucent"));
  EXPECT_TRUE(source.attributes().empty());
  source.SetOne("cn", "Fresh");
  EXPECT_EQ(source.GetFirst("cn"), "Fresh");
  EXPECT_EQ(moved.GetFirst("cn"), "Pat");
}

TEST(EntryTest, ProjectKeepsTheListedAttributesOrAll) {
  const Entry pat = MakePat();
  Entry all = pat.Project({});
  EXPECT_EQ(all, pat);
  all.SetOne("cn", "Changed");  // The projection is a copy.
  EXPECT_EQ(pat.GetFirst("cn"), "Pat");

  Entry some = pat.Project({"MAIL", "cn", "missing"});
  EXPECT_EQ(some.dn(), pat.dn());
  EXPECT_EQ(some.attributes().size(), 2u);
  EXPECT_EQ(some.GetAll("mail"), pat.GetAll("mail"));
  EXPECT_EQ(some.GetFirst("cn"), "Pat");
  EXPECT_FALSE(some.Has("objectClass"));
  some.Remove("mail");
  EXPECT_TRUE(pat.Has("mail"));

  EXPECT_TRUE(pat.Project({"missing"}).attributes().empty());
}

// Paper §5.3: LDAP sets hold atomic values only — related fields
// cannot be correlated within one entry, so MetaComm gives a person
// one entry PER LOCATION instead of set-valued attributes. This test
// documents that modeling.
TEST(EntryTest, MultiLocationPersonsAreSeparateEntries) {
  Entry murray_hill(*Dn::Parse("cn=Jill Lu+l=Murray Hill,o=Lucent"));
  murray_hill.SetOne("cn", "Jill Lu");
  murray_hill.SetOne("l", "Murray Hill");
  murray_hill.SetOne("telephoneNumber", "+1 908 582 9000");

  Entry westminster(*Dn::Parse("cn=Jill Lu+l=Westminster,o=Lucent"));
  westminster.SetOne("cn", "Jill Lu");
  westminster.SetOne("l", "Westminster");
  westminster.SetOne("telephoneNumber", "+1 303 538 1000");

  // Distinct entries under the same parent thanks to multi-valued
  // RDNs; each correlates ONE phone with ONE location.
  EXPECT_FALSE(murray_hill.dn() == westminster.dn());
  EXPECT_EQ(murray_hill.dn().Parent(), westminster.dn().Parent());
}

}  // namespace
}  // namespace metacomm::ldap
