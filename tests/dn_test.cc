#include "ldap/dn.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"

namespace metacomm::ldap {
namespace {

TEST(RdnTest, ParseSimple) {
  auto rdn = Rdn::Parse("cn=John Doe");
  ASSERT_TRUE(rdn.ok());
  EXPECT_EQ(rdn->avas().size(), 1u);
  EXPECT_EQ(rdn->avas()[0].attribute, "cn");
  EXPECT_EQ(rdn->avas()[0].value, "John Doe");
  EXPECT_EQ(rdn->ToString(), "cn=John Doe");
}

TEST(RdnTest, ParseMultiValued) {
  auto rdn = Rdn::Parse("cn=John+employeeNumber=42");
  ASSERT_TRUE(rdn.ok());
  EXPECT_EQ(rdn->avas().size(), 2u);
  EXPECT_EQ(rdn->ValueOf("cn"), "John");
  EXPECT_EQ(rdn->ValueOf("employeeNumber"), "42");
  // AVAs are kept sorted, so parse order does not matter.
  auto flipped = Rdn::Parse("employeeNumber=42+cn=John");
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(rdn->Normalized(), flipped->Normalized());
}

TEST(RdnTest, ParseErrors) {
  EXPECT_FALSE(Rdn::Parse("").ok());
  EXPECT_FALSE(Rdn::Parse("cn").ok());
  EXPECT_FALSE(Rdn::Parse("=value").ok());
  EXPECT_FALSE(Rdn::Parse("cn=").ok());
}

TEST(RdnTest, EscapedComma) {
  auto rdn = Rdn::Parse("cn=Doe\\, John");
  ASSERT_TRUE(rdn.ok());
  EXPECT_EQ(rdn->ValueOf("cn"), "Doe, John");
  EXPECT_EQ(rdn->ToString(), "cn=Doe\\, John");
}

TEST(RdnTest, HexEscape) {
  auto rdn = Rdn::Parse("cn=a\\2Cb");
  ASSERT_TRUE(rdn.ok());
  EXPECT_EQ(rdn->ValueOf("cn"), "a,b");
}

TEST(RdnTest, NormalizedFoldsCaseAndSpace) {
  auto a = Rdn::Parse("CN=John   Doe");
  auto b = Rdn::Parse("cn=john doe");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Normalized(), b->Normalized());
  EXPECT_TRUE(*a == *b);
}

TEST(DnTest, ParsePaperExample) {
  // Figure 2: "cn=John Doe, o=Marketing, o=Lucent".
  auto dn = Dn::Parse("cn=John Doe, o=Marketing, o=Lucent");
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->depth(), 3u);
  EXPECT_EQ(dn->leaf().ValueOf("cn"), "John Doe");
  EXPECT_EQ(dn->ToString(), "cn=John Doe,o=Marketing,o=Lucent");
  EXPECT_EQ(dn->Parent().ToString(), "o=Marketing,o=Lucent");
}

TEST(DnTest, RootIsEmpty) {
  auto dn = Dn::Parse("");
  ASSERT_TRUE(dn.ok());
  EXPECT_TRUE(dn->IsRoot());
  EXPECT_TRUE(dn->Parent().IsRoot());
  EXPECT_EQ(dn->ToString(), "");
}

TEST(DnTest, ChildAndWithLeaf) {
  auto base = Dn::Parse("ou=People,o=Lucent");
  ASSERT_TRUE(base.ok());
  Dn child = base->Child(Rdn("cn", "Pat Smith"));
  EXPECT_EQ(child.ToString(), "cn=Pat Smith,ou=People,o=Lucent");
  Dn renamed = child.WithLeaf(Rdn("cn", "Pat Jones"));
  EXPECT_EQ(renamed.ToString(), "cn=Pat Jones,ou=People,o=Lucent");
  EXPECT_EQ(renamed.Parent().Normalized(), base->Normalized());
}

TEST(DnTest, IsWithin) {
  auto lucent = Dn::Parse("o=Lucent");
  auto marketing = Dn::Parse("o=Marketing,o=Lucent");
  auto john = Dn::Parse("cn=John Doe,o=Marketing,o=Lucent");
  auto other = Dn::Parse("o=Marketing,o=Acme");
  ASSERT_TRUE(john.ok());
  EXPECT_TRUE(john->IsWithin(*lucent));
  EXPECT_TRUE(john->IsWithin(*marketing));
  EXPECT_TRUE(john->IsWithin(*john));
  EXPECT_TRUE(john->IsWithin(Dn::Root()));
  EXPECT_FALSE(marketing->IsWithin(*john));
  EXPECT_FALSE(john->IsWithin(*other));
}

TEST(DnTest, EscapeRoundTrip) {
  std::string value = "Smith, John #1 <j+s>";
  Dn dn = Dn::Root().Child(Rdn("cn", value));
  std::string text = dn.ToString();
  auto reparsed = Dn::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status();
  EXPECT_EQ(reparsed->leaf().ValueOf("cn"), value);
}

TEST(DnTest, LeadingTrailingSpaceEscapes) {
  std::string value = " padded ";
  std::string text = Rdn("cn", value).ToString();
  EXPECT_EQ(text, "cn=\\ padded\\ ");
  auto rdn = Rdn::Parse(text);
  ASSERT_TRUE(rdn.ok());
  EXPECT_EQ(rdn->ValueOf("cn"), value);
}

TEST(DnTest, NormalizedComparesCaseInsensitive) {
  auto a = Dn::Parse("CN=John Doe,OU=People,O=Lucent");
  auto b = Dn::Parse("cn=john doe, ou=people, o=lucent");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a == *b);
}

TEST(DnTest, DanglingEscapeFails) {
  EXPECT_FALSE(Dn::Parse("cn=John\\").ok());
}

/// Names whose matching forms exercise the normalization: escaped and
/// hex-escaped commas, multi-AVA RDNs written in either order, folded
/// case and inner spaces, an escaped backslash before a separator, a
/// leading '#', RDNs that extend a sibling's, and the root.
std::vector<Dn> NormalizationCorpus() {
  std::vector<Dn> corpus;
  for (const char* text : {
           "",
           "o=Lucent",
           "O=LUCENT",
           "ou=People,o=Lucent",
           "OU=people ,  O=lucent",
           "ou=People A,o=Lucent",
           "cn=X,ou=People A,o=Lucent",
           "cn=Doe,ou=People,o=Lucent",
           "cn=John,cn=Doe,ou=People,o=Lucent",
           "cn=Doe\\, John,ou=People,o=Lucent",
           "CN=doe\\,   JOHN,ou=People,o=Lucent",
           "cn=Doe\\2C John,ou=People,o=Lucent",
           "cn=Doe John,ou=People,o=Lucent",
           "cn=Doe+l=Murray Hill,ou=People,o=Lucent",
           "L=murray   HILL+cn=doe,ou=People,o=Lucent",
           "cn=Doe+l=Westminster,ou=People,o=Lucent",
           "cn=Doe\\\\,ou=People,o=Lucent",
           "cn=\\#1,ou=People,o=Lucent",
           "cn=John  Q   Public,o=Lucent",
           "cn=john q public,o=Lucent",
       }) {
    auto dn = Dn::Parse(text);
    EXPECT_TRUE(dn.ok()) << text << ": " << dn.status();
    if (dn.ok()) corpus.push_back(*dn);
  }
  return corpus;
}

/// RFC 2253 value escaping spelled out: the special characters, a
/// leading '#' or space, and a trailing space.
std::string ReferenceEscape(std::string_view value) {
  std::string out;
  for (size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    if (std::string_view(",+\"\\<>;=").find(c) != std::string_view::npos ||
        (c == '#' && i == 0) ||
        (c == ' ' && (i == 0 || i + 1 == value.size()))) {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

/// The normalized form spelled out from its definition: lower-cased
/// attribute names, values space-folded, lower-cased and escaped.
std::string ReferenceNormalized(const Rdn& rdn) {
  std::string out;
  for (const Ava& ava : rdn.avas()) {
    if (!out.empty()) out += "+";
    out += ToLower(ava.attribute) + "=" +
           ReferenceEscape(ToLower(NormalizeSpace(ava.value)));
  }
  return out;
}

bool ReferenceWithin(const Dn& dn, const Dn& ancestor) {
  if (ancestor.depth() > dn.depth()) return false;
  size_t offset = dn.depth() - ancestor.depth();
  for (size_t i = 0; i < ancestor.depth(); ++i) {
    if (dn.rdns()[offset + i].Normalized() !=
        ancestor.rdns()[i].Normalized()) {
      return false;
    }
  }
  return true;
}

/// Subtree-scan order: normalized RDNs compared from the root side,
/// ancestors first.
bool ReferenceTreeOrderLess(const Dn& a, const Dn& b) {
  size_t common = std::min(a.depth(), b.depth());
  for (size_t i = 1; i <= common; ++i) {
    std::string ka = a.rdns()[a.depth() - i].Normalized();
    std::string kb = b.rdns()[b.depth() - i].Normalized();
    if (ka != kb) return ka < kb;
  }
  return a.depth() < b.depth();
}

int Sign(int v) { return (v > 0) - (v < 0); }

TEST(DnMatchingTest, NormalizedFormFollowsItsDefinition) {
  for (const Dn& dn : NormalizationCorpus()) {
    std::string joined;
    for (const Rdn& rdn : dn.rdns()) {
      EXPECT_EQ(rdn.Normalized(), ReferenceNormalized(rdn));
      joined += (joined.empty() ? "" : ",") + ReferenceNormalized(rdn);
    }
    EXPECT_EQ(dn.Normalized(), joined);
  }
  EXPECT_EQ(Rdn::Parse("CN=\\#One\\,  Two+SN=\\ x")->Normalized(),
            "cn=\\#one\\, two+sn=x");
}

TEST(DnMatchingTest, EqualityAndScopeAgreeWithNormalizedStrings) {
  std::vector<Dn> corpus = NormalizationCorpus();
  for (const Dn& a : corpus) {
    for (const Dn& b : corpus) {
      SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
      EXPECT_EQ(a == b, a.Normalized() == b.Normalized());
      EXPECT_EQ(a.IsWithin(b), ReferenceWithin(a, b));
      if (a.IsRoot() || b.IsRoot()) continue;
      EXPECT_EQ(a.leaf() == b.leaf(),
                a.leaf().Normalized() == b.leaf().Normalized());
      EXPECT_EQ(Sign(a.leaf().CompareNormalized(b.leaf().Normalized())),
                Sign(a.leaf().Normalized().compare(b.leaf().Normalized())));
    }
  }
}

TEST(DnMatchingTest, TreeOrderKeysSortAsTheSubtreeScan) {
  std::vector<Dn> corpus = NormalizationCorpus();
  for (const Dn& a : corpus) {
    std::string norm_a = a.Normalized();
    for (const Dn& b : corpus) {
      SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
      std::string norm_b = b.Normalized();
      EXPECT_EQ(TreeOrderKey(norm_a) < TreeOrderKey(norm_b),
                ReferenceTreeOrderLess(a, b));
    }
  }
  // Root first: RDNs reversed, cut only at unescaped commas.
  std::string escaped = "cn=doe\\, john,cn=a\\\\,ou=people,o=lucent";
  EXPECT_EQ(TreeOrderKey(escaped),
            (std::vector<std::string_view>{"o=lucent", "ou=people",
                                           "cn=a\\\\", "cn=doe\\, john"}));
  EXPECT_TRUE(TreeOrderKey("").empty());
}

TEST(DnTest, DepthOneIsSuffix) {
  auto dn = Dn::Parse("o=Lucent");
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->depth(), 1u);
  EXPECT_TRUE(dn->Parent().IsRoot());
}

}  // namespace
}  // namespace metacomm::ldap
