#ifndef METACOMM_LDAP_ENTRY_H_
#define METACOMM_LDAP_ENTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ldap/attribute.h"
#include "ldap/dn.h"

namespace metacomm::ldap {

/// A directory entry: a DN plus a set of attributes.
///
/// Every entry carries an objectClass attribute listing its structural
/// class chain plus any auxiliary classes. MetaComm's integrated schema
/// (paper §5.2) attaches one auxiliary class per integrated device to
/// the person entry, so "uses a PBX" is expressed by adding
/// `definityUser` to objectClass and populating its (all-optional)
/// attributes.
///
/// A copy shares its source's attribute map, which is cloned before
/// either writes it: handing out a stored entry copies its DN and one
/// pointer. Like any value, one Entry may be read by many threads at
/// once but written only while no other thread uses it.
class Entry {
 public:
  Entry() = default;
  explicit Entry(Dn dn) : dn_(std::move(dn)) {}
  Entry(const Entry& other);
  Entry& operator=(const Entry& other) { return *this = Entry(other); }
  Entry(Entry&&) = default;
  Entry& operator=(Entry&&) = default;

  const Dn& dn() const { return dn_; }
  void set_dn(Dn dn) { dn_ = std::move(dn); }

  const AttributeMap& attributes() const;

  /// True if the attribute exists with at least one value.
  bool Has(std::string_view attribute) const;

  /// All values of `attribute` (empty vector if absent).
  std::vector<std::string> GetAll(std::string_view attribute) const;

  /// First value of `attribute`, or "" if absent.
  std::string GetFirst(std::string_view attribute) const;

  /// Replaces the values of `attribute` (creating it if needed); an
  /// empty value set removes the attribute.
  void Set(std::string_view attribute, std::vector<std::string> values);

  /// Convenience single-value Set.
  void SetOne(std::string_view attribute, std::string value);

  /// Adds one value; returns false if it was already present.
  bool AddValue(std::string_view attribute, std::string value);

  /// Removes one value; drops the attribute when it becomes empty.
  /// Returns false if the value was absent.
  bool RemoveValue(std::string_view attribute, std::string_view value);

  /// Removes the whole attribute; returns false if absent.
  bool Remove(std::string_view attribute);

  /// True if objectClass contains `object_class` (case-insensitive).
  bool HasObjectClass(std::string_view object_class) const;

  /// Appends an objectClass value if not present.
  void AddObjectClass(std::string object_class);

  /// This entry restricted to `attributes` (a Search's attribute list);
  /// an empty list keeps every attribute.
  Entry Project(const std::vector<std::string>& attributes) const;

  /// Entries are equal when DNs match and attribute sets match
  /// (set semantics per attribute).
  friend bool operator==(const Entry& a, const Entry& b);

  /// Multi-line human-readable form (LDIF-like) for logs and tests.
  std::string ToString() const;

 private:
  struct Attributes;
  /// The map to write: fresh when none is held, cloned when shared.
  AttributeMap& Mutable();
  Dn dn_;
  std::shared_ptr<Attributes> attributes_;  // Null when empty.
};

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_ENTRY_H_
