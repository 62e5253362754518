#ifndef METACOMM_LDAP_DN_H_
#define METACOMM_LDAP_DN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace metacomm::ldap {

/// One attribute/value assertion inside an RDN, e.g. cn=John Doe.
struct Ava {
  std::string attribute;
  std::string value;

  friend bool operator==(const Ava&, const Ava&) = default;
};

/// A Relative Distinguished Name: the name of an entry relative to its
/// parent. Usually a single AVA ("cn=John Doe"); LDAP also allows
/// multi-valued RDNs joined with '+' ("cn=John+employeeNumber=42").
class Rdn {
 public:
  Rdn() = default;

  /// Convenience constructor for the common single-AVA case.
  Rdn(std::string attribute, std::string value);

  /// Parses an RDN string ("cn=John Doe" or "cn=J\, Doe+ou=X").
  static StatusOr<Rdn> Parse(std::string_view text);

  const std::vector<Ava>& avas() const { return avas_; }
  bool empty() const { return avas_.empty(); }

  /// Appends an AVA. AVAs are kept sorted by attribute name so that the
  /// normalized form is canonical regardless of input order.
  void AddAva(std::string attribute, std::string value);

  /// Returns the value for `attribute` (case-insensitive), or empty.
  std::string ValueOf(std::string_view attribute) const;

  /// String form with proper escaping, e.g. "cn=Doe\, John".
  std::string ToString() const;

  /// Appends the string form to `out` without a temporary (the WAL
  /// change encoder renders DNs on every committed write).
  void AppendTo(std::string* out) const;

  /// Canonical matching form: attribute names lower-cased, values
  /// space-normalized and lower-cased (LDAP caseIgnoreMatch).
  std::string Normalized() const;

  /// Orders Normalized() against `key` as std::string::compare would,
  /// without building Normalized() (the tree walk's probe).
  int CompareNormalized(std::string_view key) const;

  /// Equal when the normalized forms are: AVA by AVA, names folded
  /// for case and values for case and space, without building either.
  friend bool operator==(const Rdn& a, const Rdn& b);

 private:
  std::vector<Ava> avas_;
};

/// A Distinguished Name: the full path of an entry from the root of the
/// directory tree, leaf first — "cn=John Doe, o=Marketing, o=Lucent"
/// names the entry John Doe under Marketing under Lucent (paper §2).
class Dn {
 public:
  Dn() = default;

  /// Constructs from RDNs in leaf-first order.
  explicit Dn(std::vector<Rdn> rdns) : rdns_(std::move(rdns)) {}

  /// Parses an LDAP string DN. Handles backslash escapes of the special
  /// characters , + " \ < > ; = and hex pairs (\2C), plus escaped
  /// leading/trailing spaces and leading '#'.
  static StatusOr<Dn> Parse(std::string_view text);

  /// The root of the tree (zero RDNs).
  static Dn Root() { return Dn(); }

  const std::vector<Rdn>& rdns() const { return rdns_; }
  bool IsRoot() const { return rdns_.empty(); }
  size_t depth() const { return rdns_.size(); }

  /// Leaf RDN; must not be called on the root.
  const Rdn& leaf() const { return rdns_.front(); }

  /// DN of the parent entry; parent of the root is the root.
  Dn Parent() const;

  /// Returns this DN extended with `rdn` as a new leaf (a child's DN).
  Dn Child(Rdn rdn) const;

  /// Returns the DN with the leaf RDN replaced (ModifyRDN semantics).
  Dn WithLeaf(Rdn rdn) const;

  /// True if this DN equals `ancestor` or lies beneath it.
  bool IsWithin(const Dn& ancestor) const;

  /// String form, e.g. "cn=John Doe,o=Marketing,o=Lucent".
  std::string ToString() const;

  /// Appends the string form to `out` without per-RDN temporaries.
  void AppendTo(std::string* out) const;

  /// Canonical matching form used as a map key (see Rdn::Normalized).
  std::string Normalized() const;

  /// Equal RDN by RDN (see Rdn ==).
  friend bool operator==(const Dn& a, const Dn& b) {
    return a.rdns_ == b.rdns_;
  }

 private:
  std::vector<Rdn> rdns_;  // Leaf first.
};

/// The normalized RDNs of `normalized_dn` (a Dn::Normalized()), root
/// first, as views into it. Keys compare (operator<) in subtree-scan
/// order: ancestors before descendants, siblings by normalized RDN.
std::vector<std::string_view> TreeOrderKey(std::string_view normalized_dn);

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_DN_H_
