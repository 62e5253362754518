#ifndef METACOMM_LDAP_LDIF_H_
#define METACOMM_LDAP_LDIF_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ldap/entry.h"
#include "ldap/operations.h"

namespace metacomm::ldap {

/// One LDIF change record ("changetype: ..."). Content records (no
/// changetype) are represented as kAdd with the full entry.
struct LdifRecord {
  UpdateOp op = UpdateOp::kAdd;
  Entry entry;                       // For kAdd: the full entry.
  Dn dn;                             // Target DN for all ops.
  std::vector<Modification> mods;    // For kModify.
  Rdn new_rdn;                       // For kModifyRdn.
  bool delete_old_rdn = true;        // For kModifyRdn.
};

/// Parses LDIF text (RFC 2849 subset: folded lines, '#' comments,
/// base64 values via '::', content and change records).
StatusOr<std::vector<LdifRecord>> ParseLdif(std::string_view text);

/// Serializes entries as LDIF content records.
std::string ToLdif(const std::vector<Entry>& entries);

/// Serializes one entry as an LDIF content record.
std::string ToLdif(const Entry& entry);

/// Base64 helpers (exposed for tests and the wire protocol).
std::string Base64Encode(std::string_view data);
StatusOr<std::string> Base64Decode(std::string_view encoded);

/// Append-style serializers for hot paths (the WAL change encoder runs
/// inside the backend commit path): AppendLdif writes ToLdif(entry);
/// AppendLdifLine writes one "attr: value" line, in the base64 form
/// ("attr:: ...") when the value demands it (leading space/colon/<,
/// trailing space, or non-printable characters).
void AppendLdif(const Entry& entry, std::string* out);
void AppendLdifLine(std::string_view attribute, std::string_view value,
                    std::string* out);

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_LDIF_H_
