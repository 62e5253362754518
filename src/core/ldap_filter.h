#ifndef METACOMM_CORE_LDAP_FILTER_H_
#define METACOMM_CORE_LDAP_FILTER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/repository_filter.h"
#include "ldap/entry.h"
#include "ldap/service.h"
#include "lexpress/record.h"

namespace metacomm::core {

/// Configuration of the LDAP filter.
struct LdapFilterConfig {
  /// Subtree holding the integrated person entries.
  std::string people_base = "ou=People,o=Lucent";
  /// The LDAP-side record key. It participates in the entry's RDN, so
  /// key changes become the ModifyRDN/Modify pair of §5.1.
  std::string key_attr = "cn";
};

/// The LDAP filter: protocol converter between lexpress' canonical
/// records and LDAP entries, plus descriptor application against the
/// directory (paper §4.1).
///
/// All writes go through the LTAP gateway with OpContext::internal set:
/// the Update Manager calls Apply only while it (or the client whose
/// trigger is being processed) holds the LTAP entry lock, so trigger
/// re-processing and re-locking must be bypassed.
class LdapFilter {
 public:
  /// `service` is the LTAP gateway (or a bare server in tests).
  LdapFilter(ldap::LdapService* service, LdapFilterConfig config);

  const LdapFilterConfig& config() const { return config_; }
  const std::string& key_attr() const { return config_.key_attr; }

  /// Flattens an entry into an "ldap"-schema record (objectClass is
  /// dropped; it is directory plumbing, not integrated data).
  lexpress::Record ToRecord(const ldap::Entry& entry) const;

  /// Builds a person entry (DN under people_base, structural chain and
  /// auxiliary classes derived from the attributes) from a record.
  StatusOr<ldap::Entry> ToEntry(const lexpress::Record& record) const;

  /// DN a record with this key value lives at.
  StatusOr<ldap::Dn> DnForKey(const std::string& key) const;

  /// Entry lookup by key attribute (RDN-based, exact).
  StatusOr<std::optional<ldap::Entry>> FindByKey(const std::string& key);

  /// Entry lookup by an arbitrary equality (uses the backend index);
  /// returns the first match under people_base.
  StatusOr<std::optional<ldap::Entry>> FindByAttr(const std::string& attr,
                                                  const std::string& value);

  /// Applies a canonical update (records in the "ldap" schema) to the
  /// directory. Key-changing modifies are applied as the
  /// ModifyRDN/Modify pair (§5.1); `pair_crash_hook`, if set, runs
  /// between the two operations so tests can simulate the UM crash the
  /// paper analyzes. Conditional updates degrade gracefully
  /// (add->modify fallback etc.). Returns the resulting record (empty
  /// for deletes). `covered_by_intent` marks an update a durable WAL
  /// intent backs: its writes return once logged, without waiting for
  /// the fsync (ldap::OpContext::covered_by_intent).
  ApplyResult Apply(const lexpress::UpdateDescriptor& update,
                    bool covered_by_intent = false);

  /// Installs a hook invoked between ModifyRDN and Modify of a pair.
  /// A non-OK return aborts before the second half (simulated crash).
  void set_pair_crash_hook(std::function<Status()> hook) {
    pair_crash_hook_ = std::move(hook);
  }

  /// Every person entry under people_base, as records.
  StatusOr<std::vector<lexpress::Record>> DumpAll();

  /// Number of ModifyRDN/Modify pairs executed.
  uint64_t pair_operations() const { return pair_operations_; }

 private:
  /// Builds modifications turning `current` into `target` (only the
  /// attributes `target`/`old_image` mention are touched), including
  /// any objectClass values newly required.
  std::vector<ldap::Modification> DiffMods(
      const ldap::Entry& current, const lexpress::Record& old_image,
      const lexpress::Record& target) const;

  ldap::OpContext InternalContext() const;

  ldap::LdapService* service_;
  LdapFilterConfig config_;
  std::function<Status()> pair_crash_hook_;
  uint64_t pair_operations_ = 0;
};

}  // namespace metacomm::core

#endif  // METACOMM_CORE_LDAP_FILTER_H_
