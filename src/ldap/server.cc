#include "ldap/server.h"

#include "ldap/result.h"

namespace metacomm::ldap {

namespace {

/// An internal write a durable intent covers returns once logged.
Backend::Wait WaitFor(const OpContext& ctx) {
  return ctx.internal && ctx.covered_by_intent ? Backend::Wait::kLogged
                                               : Backend::Wait::kSynced;
}

}  // namespace

LdapServer::LdapServer(Schema schema, ServerConfig config)
    : schema_(std::move(schema)),
      config_(config),
      backend_(&schema_) {}

void LdapServer::AddUser(const Dn& dn, std::string password) {
  MutexLock lock(&users_mutex_);
  users_[dn.Normalized()] = std::move(password);
}

void LdapServer::SetRenderedSubtree(Dn base, RenderFn render) {
  rendered_base_ = std::move(base);
  render_ = std::move(render);
}

bool LdapServer::IsRendered(const Dn& dn) const {
  return render_ != nullptr && dn.IsWithin(rendered_base_);
}

StatusOr<SearchResult> LdapServer::SearchRendered(
    const SearchRequest& request) const {
  SearchResult result;
  bool base_exists = false;
  for (const Entry& entry : render_()) {
    if (!entry.dn().IsWithin(request.base)) continue;
    const size_t below = entry.dn().depth() - request.base.depth();
    if (below == 0) base_exists = true;
    if ((request.scope == Scope::kBase && below != 0) ||
        (request.scope == Scope::kOneLevel && below != 1) ||
        !request.filter.Matches(entry)) {
      continue;
    }
    if (request.size_limit > 0 &&
        result.entries.size() >= request.size_limit) {
      return Status::DeadlineExceeded("size limit exceeded");
    }
    result.entries.push_back(entry.Project(request.attributes));
  }
  if (!base_exists) {
    return Status::NotFound("no such object: " + request.base.ToString());
  }
  return result;
}

StatusOr<Entry> LdapServer::Read(const Dn& dn) const {
  if (!IsRendered(dn)) return backend_.Get(dn);
  SearchRequest request;
  request.base = dn;
  request.scope = Scope::kBase;
  METACOMM_ASSIGN_OR_RETURN(SearchResult result, SearchRendered(request));
  return std::move(result.entries.front());
}

Status LdapServer::CheckWriteAccess(const OpContext& ctx,
                                    const Dn& target) const {
  if (ctx.internal) return Status::Ok();  // The Update Manager.
  if (config_.acl.has_value()) {
    if (!config_.acl->CanWrite(ctx.principal, target)) {
      return Status::PermissionDenied("insufficient access to " +
                                      target.ToString());
    }
    return Status::Ok();
  }
  if (config_.allow_anonymous_writes) return Status::Ok();
  if (ctx.principal.empty()) {
    return Status::PermissionDenied("writes require an authenticated bind");
  }
  return Status::Ok();
}

Status LdapServer::Add(const OpContext& ctx, const AddRequest& request) {
  METACOMM_RETURN_IF_ERROR(CheckWriteAccess(ctx, request.entry.dn()));
  return backend_.Add(request.entry, WaitFor(ctx));
}

Status LdapServer::Delete(const OpContext& ctx,
                          const DeleteRequest& request) {
  METACOMM_RETURN_IF_ERROR(CheckWriteAccess(ctx, request.dn));
  return backend_.Delete(request.dn, WaitFor(ctx));
}

Status LdapServer::Modify(const OpContext& ctx,
                          const ModifyRequest& request) {
  METACOMM_RETURN_IF_ERROR(CheckWriteAccess(ctx, request.dn));
  return backend_.Modify(request.dn, request.mods, WaitFor(ctx));
}

Status LdapServer::ModifyRdn(const OpContext& ctx,
                             const ModifyRdnRequest& request) {
  METACOMM_RETURN_IF_ERROR(CheckWriteAccess(ctx, request.dn));
  return backend_.ModifyRdn(request.dn, request.new_rdn,
                            request.delete_old_rdn, WaitFor(ctx));
}

StatusOr<SearchResult> LdapServer::Search(const OpContext& ctx,
                                          const SearchRequest& request) {
  METACOMM_ASSIGN_OR_RETURN(SearchResult result,
                            IsRendered(request.base)
                                ? SearchRendered(request)
                                : backend_.Search(request));
  // With ACLs, entries the principal may not read silently drop out
  // of the result, like production directory servers behave.
  if (config_.acl.has_value() && !ctx.internal) {
    std::vector<Entry> visible;
    visible.reserve(result.entries.size());
    for (Entry& entry : result.entries) {
      if (config_.acl->CanRead(ctx.principal, entry.dn())) {
        visible.push_back(std::move(entry));
      }
    }
    result.entries = std::move(visible);
  }
  return result;
}

Status LdapServer::Compare(const OpContext& ctx,
                           const CompareRequest& request) {
  if (config_.acl.has_value() && !ctx.internal &&
      !config_.acl->CanCompare(ctx.principal, request.dn)) {
    return Status::PermissionDenied("insufficient access to " +
                                    request.dn.ToString());
  }
  METACOMM_ASSIGN_OR_RETURN(Entry entry, Read(request.dn));
  auto it = entry.attributes().find(request.attribute);
  if (it == entry.attributes().end()) {
    return Status::NotFound("no such attribute: " + request.attribute);
  }
  if (it->second.HasValue(request.value)) return Status::Ok();
  return CompareFalseStatus();
}

StatusOr<std::string> LdapServer::Bind(const BindRequest& request) {
  if (request.dn.IsRoot() && request.password.empty()) {
    return std::string();  // Anonymous bind.
  }
  MutexLock lock(&users_mutex_);
  auto it = users_.find(request.dn.Normalized());
  if (it == users_.end() || it->second != request.password) {
    return Status::PermissionDenied("invalid credentials");
  }
  return request.dn.ToString();
}

}  // namespace metacomm::ldap
