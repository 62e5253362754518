#ifndef METACOMM_LDAP_OPERATIONS_H_
#define METACOMM_LDAP_OPERATIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/entry.h"
#include "ldap/filter.h"

namespace metacomm::ldap {

/// Per-operation caller context. Real LDAP carries this in the bind
/// state of a connection; we pass it explicitly.
struct OpContext {
  /// Authenticated principal (DN string), empty for anonymous.
  std::string principal;
  /// Session identifier; LTAP uses it to correlate persistent
  /// connections (paper §5.1) and to tell its own internal writes apart
  /// from client writes.
  uint64_t session_id = 0;
  /// Set on writes issued by the Update Manager while it already holds
  /// the LTAP entry lock; such writes bypass trigger processing and
  /// locking (they *are* the trigger processing).
  bool internal = false;
  /// Set by the Update Manager on an internal write whose update a
  /// durable WAL intent already covers (a direct device update). The
  /// write returns once it is in the log, without waiting for the
  /// fsync: a crash that loses it loses the intent's later resolve
  /// record too, so the intent replays it. Ignored on client writes.
  bool covered_by_intent = false;
};

/// LDAP Add: creates one leaf entry (paper §2: "create ... a single
/// leaf node").
struct AddRequest {
  Entry entry;
};

/// LDAP Delete: removes one leaf entry.
struct DeleteRequest {
  Dn dn;
};

/// One component of a Modify request.
struct Modification {
  enum class Type {
    kAdd,      // Add values to an attribute.
    kDelete,   // Delete specific values, or the attribute when empty.
    kReplace,  // Replace all values (empty set removes the attribute).
  };
  Type type = Type::kReplace;
  std::string attribute;
  std::vector<std::string> values;
};

/// LDAP Modify: atomically applies a sequence of modifications to one
/// entry. Atomic per entry — this is the *only* atomicity the
/// directory offers, the constraint that shaped MetaComm's integrated
/// schema (paper §5.1/5.2).
struct ModifyRequest {
  Dn dn;
  std::vector<Modification> mods;
};

/// LDAP ModifyRDN (ModifyDN restricted to leaf renames, as in the
/// paper): changes the RDN of an entry, optionally retiring the old RDN
/// value(s) from the entry.
struct ModifyRdnRequest {
  Dn dn;
  Rdn new_rdn;
  bool delete_old_rdn = true;
};

/// Search scope.
enum class Scope { kBase, kOneLevel, kSubtree };

/// LDAP Search.
struct SearchRequest {
  Dn base;
  Scope scope = Scope::kSubtree;
  Filter filter = Filter::MatchAll();
  /// Attributes to return; empty means all user attributes.
  std::vector<std::string> attributes;
  /// 0 means no limit.
  size_t size_limit = 0;
};

/// Search result: matching entries (projected onto the requested
/// attributes) in no particular order.
struct SearchResult {
  std::vector<Entry> entries;
};

/// LDAP Compare: does `dn` have `attribute` = `value`?
struct CompareRequest {
  Dn dn;
  std::string attribute;
  std::string value;
};

/// LDAP simple Bind.
struct BindRequest {
  Dn dn;
  std::string password;
};

/// Discriminator for update notifications and descriptors.
enum class UpdateOp { kAdd, kModify, kDelete, kModifyRdn };

/// Returns "add" / "modify" / "delete" / "modifyrdn".
inline const char* UpdateOpName(UpdateOp op) {
  switch (op) {
    case UpdateOp::kAdd:
      return "add";
    case UpdateOp::kModify:
      return "modify";
    case UpdateOp::kDelete:
      return "delete";
    case UpdateOp::kModifyRdn:
      return "modifyrdn";
  }
  return "?";
}

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_OPERATIONS_H_
