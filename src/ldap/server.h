#ifndef METACOMM_LDAP_SERVER_H_
#define METACOMM_LDAP_SERVER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/mutex.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "ldap/access.h"
#include "ldap/backend.h"
#include "ldap/schema.h"
#include "ldap/service.h"

namespace metacomm::ldap {

/// Server configuration.
struct ServerConfig {
  /// When false (default), write operations require a non-empty
  /// authenticated principal. MetaComm's "very simple security
  /// mechanism" (paper §7) is exactly this bind-based check.
  bool allow_anonymous_writes = false;
  /// Optional subtree ACLs (the paper's future-work security model).
  /// When set, it replaces the bind-based check above: reads require
  /// kRead on each entry (non-readable entries silently drop out of
  /// search results, as in production directories), writes require
  /// kWrite on the target. Internal (Update Manager) operations
  /// bypass ACLs — MetaComm is the integration layer, not a client.
  std::optional<AccessControl> acl;
};

/// A standalone LDAP directory server: schema-validated backend plus
/// simple-bind authentication.
///
/// This is the materialized-view store of MetaComm. In a deployment the
/// LTAP gateway sits in front of it and clients talk to the gateway;
/// the server itself never initiates anything (LDAP servers have no
/// triggers — the gap LTAP fills, paper §4.3).
class LdapServer : public LdapService {
 public:
  explicit LdapServer(Schema schema, ServerConfig config = {});

  /// Registers a bindable principal with a password.
  void AddUser(const Dn& dn, std::string password) EXCLUDES(users_mutex_);

  /// Direct access to the underlying tree (used by the durability
  /// layer, the synchronizer's bulk loads, and tests).
  Backend& backend() { return backend_; }
  const Backend& backend() const { return backend_; }

  const Schema& schema() const { return schema_; }

  // LdapService:
  Status Add(const OpContext& ctx, const AddRequest& request) override;
  Status Delete(const OpContext& ctx, const DeleteRequest& request) override;
  Status Modify(const OpContext& ctx, const ModifyRequest& request) override;
  Status ModifyRdn(const OpContext& ctx,
                   const ModifyRdnRequest& request) override;
  StatusOr<SearchResult> Search(const OpContext& ctx,
                                const SearchRequest& request) override;
  Status Compare(const OpContext& ctx,
                 const CompareRequest& request) override;
  StatusOr<std::string> Bind(const BindRequest& request) override;

 private:
  Status CheckWriteAccess(const OpContext& ctx, const Dn& target) const;

  Schema schema_;
  ServerConfig config_;
  Backend backend_;
  Mutex users_mutex_{LockRank::kLdapServerUsers, "ldap.server.users"};
  // normalized DN -> password
  std::map<std::string, std::string> users_ GUARDED_BY(users_mutex_);
};

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_SERVER_H_
