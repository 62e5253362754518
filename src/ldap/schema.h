#ifndef METACOMM_LDAP_SCHEMA_H_
#define METACOMM_LDAP_SCHEMA_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "ldap/entry.h"

namespace metacomm::ldap {

/// Value syntaxes. LDAP typing is intentionally weak (paper §5.3): the
/// syntax check is the *only* typing the directory performs, and most
/// attributes are plain case-ignore strings.
enum class AttributeSyntax {
  kDirectoryString,  // Case-insensitive UTF-8/ASCII string.
  kInteger,          // Optional sign + digits.
  kBoolean,          // TRUE / FALSE.
  kTelephoneNumber,  // Digits plus printable separators (+, -, space).
  kDn,               // Must parse as a DN.
};

/// Definition of an attribute type.
struct AttributeTypeDef {
  std::string name;
  /// Alternative names resolving to the same attribute (e.g. cn /
  /// commonName).
  std::vector<std::string> aliases;
  AttributeSyntax syntax = AttributeSyntax::kDirectoryString;
  bool single_valued = false;
  /// Attributes maintained by the system (e.g. MetaComm's LastUpdater
  /// bookkeeping is user-modifiable by design; createTimestamp is not).
  bool no_user_modification = false;
};

/// Kind of an object class.
enum class ObjectClassKind { kAbstract, kStructural, kAuxiliary };

/// Definition of an object class: its superior, mandatory (MUST) and
/// optional (MAY) attributes.
struct ObjectClassDef {
  std::string name;
  ObjectClassKind kind = ObjectClassKind::kStructural;
  /// Name of the superior class ("top" for roots); empty only for top.
  std::string superior;
  std::vector<std::string> must;
  std::vector<std::string> may;
};

/// The directory schema: attribute types plus object classes, with
/// entry validation.
///
/// Two properties the paper leans on are enforced here:
///  * Auxiliary classes cannot declare MUST attributes (§5.2) — which
///    is why "person has auxiliary class definityUser" only means the
///    person *may* use a PBX, an anomaly MetaComm lives with.
///  * Attributes not allowed by any of an entry's classes are rejected
///    (objectClassViolation), which forces per-device attribute names.
class Schema {
 public:
  Schema() = default;

  /// Registers an attribute type. Fails on duplicate names/aliases.
  Status AddAttributeType(AttributeTypeDef def);

  /// Registers an object class. Fails if the superior is unknown, if a
  /// MUST/MAY attribute is undefined, or if an auxiliary class declares
  /// MUST attributes.
  Status AddObjectClass(ObjectClassDef def);

  /// Looks up an attribute type by name or alias; nullptr if unknown.
  const AttributeTypeDef* FindAttribute(std::string_view name) const;

  /// Looks up an object class; nullptr if unknown.
  const ObjectClassDef* FindObjectClass(std::string_view name) const;

  /// Validates a complete entry: known classes, exactly one structural
  /// chain, all MUST present, every attribute allowed by some class and
  /// syntax-valid, RDN attributes present in the entry.
  Status ValidateEntry(const Entry& entry) const;

  /// Validates a single value against an attribute's syntax.
  Status ValidateValue(const AttributeTypeDef& def,
                       std::string_view value) const;

  /// All registered attribute names plus their aliases, in registry
  /// order. Feeds tooling that needs the attribute universe (e.g.
  /// lexpress_check --builtin-schemas for unknown-attribute analysis).
  std::vector<std::string> AttributeNames() const;

  /// Builds the standard subset of X.500/inetOrgPerson schema that
  /// MetaComm extends: top, person, organizationalPerson,
  /// inetOrgPerson, organization, organizationalUnit, plus operational
  /// attributes. See core/integrated_schema.h for the MetaComm
  /// extensions.
  static Schema Standard();

 private:
  /// A class with its constraints closed over its superior chain,
  /// computed once by AddObjectClass.
  struct ClassInfo {
    ObjectClassDef def;
    /// MUST attributes in check order: the class's own, then its
    /// superiors', nearest first.
    std::vector<std::string> must;
    /// Canonical names of every MUST and MAY attribute of the chain.
    std::set<std::string, CaseInsensitiveLess> allowed;
    /// The class's own name and its superiors'.
    std::set<std::string, CaseInsensitiveLess> chain;
  };

  std::map<std::string, AttributeTypeDef, CaseInsensitiveLess> attributes_;
  /// Alias -> canonical attribute name.
  std::map<std::string, std::string, CaseInsensitiveLess> aliases_;
  std::map<std::string, ClassInfo, CaseInsensitiveLess> classes_;
};

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_SCHEMA_H_
