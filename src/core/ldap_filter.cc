#include "core/ldap_filter.h"

#include "core/integrated_schema.h"

namespace metacomm::core {

LdapFilter::LdapFilter(ldap::LdapService* service, LdapFilterConfig config)
    : service_(service), config_(std::move(config)) {}

ldap::OpContext LdapFilter::InternalContext() const {
  ldap::OpContext ctx;
  ctx.principal = "cn=metacomm";
  ctx.internal = true;
  return ctx;
}

lexpress::Record LdapFilter::ToRecord(const ldap::Entry& entry) const {
  lexpress::Record record("ldap");
  for (const auto& [name, attr] : entry.attributes()) {
    if (EqualsIgnoreCase(name, "objectClass")) continue;
    record.Set(name, attr.values());
  }
  return record;
}

StatusOr<ldap::Entry> LdapFilter::ToEntry(
    const lexpress::Record& record) const {
  std::string key = record.GetFirst(config_.key_attr);
  if (key.empty()) {
    return Status::InvalidArgument("ldap record lacks key attribute " +
                                   config_.key_attr + ": " +
                                   record.ToString());
  }
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn dn, DnForKey(key));
  ldap::Entry entry(std::move(dn));
  for (const auto& [name, value] : record.attrs()) {
    entry.Set(name, value);
  }
  // person requires sn; synthesize from cn when the source device has
  // no separate surname field (dirty-data tolerance).
  if (!entry.Has("sn")) {
    std::string cn = entry.GetFirst("cn");
    size_t space = cn.find_last_of(' ');
    entry.SetOne("sn", space == std::string::npos
                           ? cn
                           : cn.substr(space + 1));
  }
  ApplyObjectClasses(&entry);
  return entry;
}

StatusOr<ldap::Dn> LdapFilter::DnForKey(const std::string& key) const {
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn base,
                            ldap::Dn::Parse(config_.people_base));
  return base.Child(ldap::Rdn(config_.key_attr, key));
}

StatusOr<std::optional<ldap::Entry>> LdapFilter::FindByKey(
    const std::string& key) {
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn dn, DnForKey(key));
  ldap::SearchRequest request;
  request.base = std::move(dn);
  request.scope = ldap::Scope::kBase;
  StatusOr<ldap::SearchResult> result =
      service_->Search(InternalContext(), request);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kNotFound) {
      return std::optional<ldap::Entry>();
    }
    return result.status();
  }
  if (result->entries.empty()) return std::optional<ldap::Entry>();
  return std::optional<ldap::Entry>(std::move(result->entries.front()));
}

StatusOr<std::optional<ldap::Entry>> LdapFilter::FindByAttr(
    const std::string& attr, const std::string& value) {
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn base,
                            ldap::Dn::Parse(config_.people_base));
  ldap::SearchRequest request;
  request.base = std::move(base);
  request.scope = ldap::Scope::kSubtree;
  request.filter = ldap::Filter::Equality(attr, value);
  METACOMM_ASSIGN_OR_RETURN(ldap::SearchResult result,
                            service_->Search(InternalContext(), request));
  if (result.entries.empty()) return std::optional<ldap::Entry>();
  return std::optional<ldap::Entry>(std::move(result.entries.front()));
}

std::vector<ldap::Modification> LdapFilter::DiffMods(
    const ldap::Entry& current, const lexpress::Record& old_image,
    const lexpress::Record& target) const {
  std::vector<ldap::Modification> mods;

  // Replace attributes whose target values differ from the entry.
  for (const auto& [name, value] : target.attrs()) {
    if (EqualsIgnoreCase(name, config_.key_attr)) continue;  // RDN.
    std::vector<std::string> current_values = current.GetAll(name);
    bool equal = current_values.size() == value.size();
    if (equal) {
      for (const std::string& v : value) {
        bool found = false;
        for (const std::string& c : current_values) {
          if (EqualsIgnoreCase(c, v)) found = true;
        }
        if (!found) equal = false;
      }
    }
    if (equal) continue;
    ldap::Modification mod;
    mod.type = ldap::Modification::Type::kReplace;
    mod.attribute = name;
    mod.values = value;
    mods.push_back(std::move(mod));
  }

  // Remove attributes the update dropped: present in the old image,
  // absent from the target. Attributes outside the update's view
  // (e.g. mail, set by other tools) are left alone.
  for (const auto& [name, value] : old_image.attrs()) {
    if (EqualsIgnoreCase(name, config_.key_attr)) continue;
    if (target.Has(name) || !current.Has(name)) continue;
    ldap::Modification mod;
    mod.type = ldap::Modification::Type::kReplace;
    mod.attribute = name;
    mods.push_back(std::move(mod));
  }

  // Auxiliary classes required by newly set attributes.
  ldap::Entry merged = current;
  for (const auto& [name, value] : target.attrs()) {
    merged.Set(name, value);
  }
  std::vector<std::string> needed = ApplyObjectClasses(&merged);
  for (std::string& cls : needed) {
    ldap::Modification mod;
    mod.type = ldap::Modification::Type::kAdd;
    mod.attribute = "objectClass";
    mod.values = {std::move(cls)};
    mods.push_back(std::move(mod));
  }
  return mods;
}

ApplyResult LdapFilter::Apply(const lexpress::UpdateDescriptor& update,
                              bool covered_by_intent) {
  ldap::OpContext ctx = InternalContext();
  ctx.covered_by_intent = covered_by_intent;
  std::string old_key = update.old_record.GetFirst(config_.key_attr);
  std::string new_key = update.new_record.GetFirst(config_.key_attr);

  switch (update.op) {
    case lexpress::DescriptorOp::kDelete: {
      METACOMM_ASSIGN_OR_RETURN(ldap::Dn dn, DnForKey(old_key));
      Status status = service_->Delete(ctx, ldap::DeleteRequest{dn});
      if (status.code() == StatusCode::kNotFound && update.conditional) {
        return lexpress::Record("ldap");  // Already gone — converged.
      }
      METACOMM_RETURN_IF_ERROR(status);
      return lexpress::Record("ldap");
    }
    case lexpress::DescriptorOp::kAdd: {
      METACOMM_ASSIGN_OR_RETURN(std::optional<ldap::Entry> existing,
                                FindByKey(new_key));
      if (existing.has_value()) {
        if (!update.conditional) {
          return Status::AlreadyExists("entry already exists: " +
                                       existing->dn().ToString());
        }
        // Conditional add -> modify (§5.4).
        std::vector<ldap::Modification> mods =
            DiffMods(*existing, update.old_record, update.new_record);
        if (!mods.empty()) {
          METACOMM_RETURN_IF_ERROR(service_->Modify(
              ctx, ldap::ModifyRequest{existing->dn(), std::move(mods)}));
        }
      } else {
        METACOMM_ASSIGN_OR_RETURN(ldap::Entry entry,
                                  ToEntry(update.new_record));
        METACOMM_RETURN_IF_ERROR(service_->Add(ctx,
                                               ldap::AddRequest{entry}));
      }
      METACOMM_ASSIGN_OR_RETURN(std::optional<ldap::Entry> stored,
                                FindByKey(new_key));
      return ToRecord(*stored);
    }
    case lexpress::DescriptorOp::kModify: {
      // Locate the entry: normally at the old key; idempotent reapply
      // may find it already renamed to the new key.
      std::string located_key = old_key.empty() ? new_key : old_key;
      METACOMM_ASSIGN_OR_RETURN(std::optional<ldap::Entry> entry,
                                FindByKey(located_key));
      bool renamed_already = false;
      if (!entry.has_value() && !new_key.empty() && new_key != old_key) {
        METACOMM_ASSIGN_OR_RETURN(entry, FindByKey(new_key));
        renamed_already = entry.has_value();
      }
      if (!entry.has_value()) {
        if (update.conditional) {
          // Conditional modify -> add fallback.
          METACOMM_ASSIGN_OR_RETURN(ldap::Entry fresh,
                                    ToEntry(update.new_record));
          METACOMM_RETURN_IF_ERROR(
              service_->Add(ctx, ldap::AddRequest{fresh}));
          return ToRecord(fresh);
        }
        return Status::NotFound("no entry with " + config_.key_attr +
                                "=" + located_key);
      }

      bool key_changes = !new_key.empty() && !old_key.empty() &&
                         new_key != old_key && !renamed_already;
      if (key_changes) {
        // The ModifyRDN/Modify pair (§5.1): the rename and the other
        // attribute changes cannot be one atomic LDAP operation.
        ldap::ModifyRdnRequest rename;
        rename.dn = entry->dn();
        rename.new_rdn = ldap::Rdn(config_.key_attr, new_key);
        rename.delete_old_rdn = true;
        METACOMM_RETURN_IF_ERROR(service_->ModifyRdn(ctx, rename));
        ++pair_operations_;
        if (pair_crash_hook_) {
          // Simulated UM crash between the pair: readers now see the
          // §5.1 inconsistency until resynchronization repairs it.
          METACOMM_RETURN_IF_ERROR(pair_crash_hook_());
        }
        METACOMM_ASSIGN_OR_RETURN(entry, FindByKey(new_key));
        if (!entry.has_value()) {
          return Status::Internal("entry lost during rename");
        }
      }

      std::vector<ldap::Modification> mods =
          DiffMods(*entry, update.old_record, update.new_record);
      if (!mods.empty()) {
        METACOMM_RETURN_IF_ERROR(service_->Modify(
            ctx, ldap::ModifyRequest{entry->dn(), std::move(mods)}));
      }
      METACOMM_ASSIGN_OR_RETURN(
          std::optional<ldap::Entry> stored,
          FindByKey(new_key.empty() ? located_key : new_key));
      if (!stored.has_value()) {
        return Status::Internal("entry vanished after modify");
      }
      return ToRecord(*stored);
    }
  }
  return Status::Internal("bad descriptor op");
}

StatusOr<std::vector<lexpress::Record>> LdapFilter::DumpAll() {
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn base,
                            ldap::Dn::Parse(config_.people_base));
  ldap::SearchRequest request;
  request.base = std::move(base);
  request.scope = ldap::Scope::kSubtree;
  request.filter = ldap::Filter::Equality("objectClass", "person");
  METACOMM_ASSIGN_OR_RETURN(ldap::SearchResult result,
                            service_->Search(InternalContext(), request));
  std::vector<lexpress::Record> out;
  out.reserve(result.entries.size());
  for (const ldap::Entry& entry : result.entries) {
    out.push_back(ToRecord(entry));
  }
  return out;
}

}  // namespace metacomm::core
