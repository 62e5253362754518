#include "ldap/schema.h"

#include <algorithm>

#include "ldap/dn.h"

namespace metacomm::ldap {

Status Schema::AddAttributeType(AttributeTypeDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("attribute type needs a name");
  }
  if (attributes_.count(def.name) || aliases_.count(def.name)) {
    return Status::AlreadyExists("attribute type exists: " + def.name);
  }
  for (const std::string& alias : def.aliases) {
    if (attributes_.count(alias) || aliases_.count(alias)) {
      return Status::AlreadyExists("attribute alias exists: " + alias);
    }
  }
  std::string name = def.name;
  for (const std::string& alias : def.aliases) {
    aliases_.emplace(alias, name);
  }
  attributes_.emplace(name, std::move(def));
  return Status::Ok();
}

Status Schema::AddObjectClass(ObjectClassDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("object class needs a name");
  }
  if (classes_.count(def.name)) {
    return Status::AlreadyExists("object class exists: " + def.name);
  }
  if (!def.superior.empty() && !classes_.count(def.superior)) {
    return Status::NotFound("unknown superior class: " + def.superior);
  }
  if (def.superior.empty() && !EqualsIgnoreCase(def.name, "top")) {
    return Status::InvalidArgument("only 'top' may lack a superior: " +
                                   def.name);
  }
  // Paper §5.2: auxiliary classes cannot have mandatory attributes.
  if (def.kind == ObjectClassKind::kAuxiliary && !def.must.empty()) {
    return Status::SchemaViolation(
        "auxiliary class may not declare MUST attributes: " + def.name);
  }
  ClassInfo info;
  for (const std::string& attr : def.must) {
    const AttributeTypeDef* type = FindAttribute(attr);
    if (type == nullptr) {
      return Status::NotFound("MUST references unknown attribute: " + attr);
    }
    info.allowed.insert(type->name);
  }
  for (const std::string& attr : def.may) {
    const AttributeTypeDef* type = FindAttribute(attr);
    if (type == nullptr) {
      return Status::NotFound("MAY references unknown attribute: " + attr);
    }
    info.allowed.insert(type->name);
  }
  info.must = def.must;
  info.chain.insert(def.name);
  if (!def.superior.empty()) {
    const ClassInfo& superior = classes_.find(def.superior)->second;
    info.must.insert(info.must.end(), superior.must.begin(),
                     superior.must.end());
    info.allowed.insert(superior.allowed.begin(), superior.allowed.end());
    info.chain.insert(superior.chain.begin(), superior.chain.end());
  }
  std::string name = def.name;
  info.def = std::move(def);
  classes_.emplace(std::move(name), std::move(info));
  return Status::Ok();
}

const AttributeTypeDef* Schema::FindAttribute(std::string_view name) const {
  auto it = attributes_.find(name);
  if (it != attributes_.end()) return &it->second;
  auto alias_it = aliases_.find(name);
  if (alias_it != aliases_.end()) {
    auto canon = attributes_.find(alias_it->second);
    if (canon != attributes_.end()) return &canon->second;
  }
  return nullptr;
}

const ObjectClassDef* Schema::FindObjectClass(std::string_view name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : &it->second.def;
}

std::vector<std::string> Schema::AttributeNames() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size() + aliases_.size());
  for (const auto& [name, def] : attributes_) names.push_back(name);
  for (const auto& [alias, canonical] : aliases_) names.push_back(alias);
  return names;
}

Status Schema::ValidateValue(const AttributeTypeDef& def,
                             std::string_view value) const {
  switch (def.syntax) {
    case AttributeSyntax::kDirectoryString:
      if (value.empty()) {
        return Status::SchemaViolation("empty value for " + def.name);
      }
      return Status::Ok();
    case AttributeSyntax::kInteger: {
      std::string_view digits = value;
      if (!digits.empty() && (digits[0] == '-' || digits[0] == '+')) {
        digits.remove_prefix(1);
      }
      if (!IsAllDigits(digits)) {
        return Status::SchemaViolation("not an integer value for " +
                                       def.name + ": " + std::string(value));
      }
      return Status::Ok();
    }
    case AttributeSyntax::kBoolean:
      if (EqualsIgnoreCase(value, "TRUE") ||
          EqualsIgnoreCase(value, "FALSE")) {
        return Status::Ok();
      }
      return Status::SchemaViolation("not a boolean value for " + def.name);
    case AttributeSyntax::kTelephoneNumber: {
      if (value.empty()) {
        return Status::SchemaViolation("empty telephone number");
      }
      bool has_digit = false;
      for (char c : value) {
        if (c >= '0' && c <= '9') {
          has_digit = true;
        } else if (c != '+' && c != '-' && c != ' ' && c != '(' &&
                   c != ')' && c != '.') {
          return Status::SchemaViolation(
              "bad telephoneNumber character in " + std::string(value));
        }
      }
      if (!has_digit) {
        return Status::SchemaViolation("telephoneNumber without digits");
      }
      return Status::Ok();
    }
    case AttributeSyntax::kDn: {
      StatusOr<Dn> dn = Dn::Parse(value);
      if (!dn.ok()) return Status::SchemaViolation("bad DN value");
      return Status::Ok();
    }
  }
  return Status::Internal("unknown syntax");
}

Status Schema::ValidateEntry(const Entry& entry) const {
  std::vector<std::string> classes = entry.GetAll("objectClass");
  if (classes.empty()) {
    return Status::SchemaViolation("entry has no objectClass: " +
                                   entry.dn().ToString());
  }
  // Exactly one structural chain: at least one structural class, and
  // all structural classes must lie on one superior chain.
  std::vector<const ClassInfo*> infos;
  std::vector<const ClassInfo*> structural;
  for (const std::string& cls : classes) {
    auto it = classes_.find(cls);
    if (it == classes_.end()) {
      return Status::SchemaViolation("unknown object class: " + cls);
    }
    infos.push_back(&it->second);
    if (it->second.def.kind == ObjectClassKind::kStructural) {
      structural.push_back(&it->second);
    }
  }
  if (structural.empty()) {
    return Status::SchemaViolation("entry has no structural class: " +
                                   entry.dn().ToString());
  }
  for (const ClassInfo* a : structural) {
    for (const ClassInfo* b : structural) {
      // One must be an ancestor of the other.
      if (a->chain.count(b->def.name) == 0 &&
          b->chain.count(a->def.name) == 0) {
        return Status::SchemaViolation(
            "entry mixes unrelated structural classes: " + a->def.name +
            " and " + b->def.name);
      }
    }
  }

  // Every MUST attribute present.
  for (const ClassInfo* info : infos) {
    for (const std::string& m : info->must) {
      if (!entry.Has(m)) {
        return Status::SchemaViolation("missing mandatory attribute '" + m +
                                       "' in " + entry.dn().ToString());
      }
    }
  }

  // Every attribute allowed and syntax-valid.
  for (const auto& [name, attr] : entry.attributes()) {
    if (EqualsIgnoreCase(name, "objectClass")) continue;
    const AttributeTypeDef* def = FindAttribute(name);
    if (def == nullptr) {
      return Status::SchemaViolation("undefined attribute type: " + name);
    }
    if (std::none_of(infos.begin(), infos.end(),
                     [def](const ClassInfo* info) {
                       return info->allowed.count(def->name) > 0;
                     })) {
      return Status::SchemaViolation(
          "attribute '" + name + "' not allowed by object classes of " +
          entry.dn().ToString());
    }
    if (def->single_valued && attr.size() > 1) {
      return Status::SchemaViolation("attribute '" + name +
                                     "' is single-valued");
    }
    for (const std::string& value : attr.values()) {
      METACOMM_RETURN_IF_ERROR(ValidateValue(*def, value));
    }
  }

  // RDN attributes must appear in the entry with the RDN value.
  if (!entry.dn().IsRoot()) {
    for (const Ava& ava : entry.dn().leaf().avas()) {
      auto it = entry.attributes().find(ava.attribute);
      if (it == entry.attributes().end() ||
          !it->second.HasValue(ava.value)) {
        return Status::SchemaViolation(
            "RDN attribute/value not present in entry: " + ava.attribute +
            "=" + ava.value);
      }
    }
  }
  return Status::Ok();
}

Schema Schema::Standard() {
  Schema schema;
  auto attr = [&schema](std::string name, AttributeSyntax syntax,
                        bool single, std::vector<std::string> aliases =
                                         {}) {
    AttributeTypeDef def;
    def.name = std::move(name);
    def.syntax = syntax;
    def.single_valued = single;
    def.aliases = std::move(aliases);
    Status s = schema.AddAttributeType(std::move(def));
    (void)s;  // Standard() definitions are statically correct.
  };

  const auto kStr = AttributeSyntax::kDirectoryString;
  const auto kTel = AttributeSyntax::kTelephoneNumber;

  attr("objectClass", kStr, false);
  attr("cn", kStr, false, {"commonName"});
  attr("sn", kStr, false, {"surname"});
  attr("givenName", kStr, false);
  attr("uid", kStr, false, {"userid"});
  attr("mail", kStr, false, {"rfc822Mailbox"});
  attr("o", kStr, false, {"organizationName"});
  attr("ou", kStr, false, {"organizationalUnitName"});
  attr("title", kStr, false);
  attr("description", kStr, false);
  attr("telephoneNumber", kTel, false);
  attr("facsimileTelephoneNumber", kTel, false);
  attr("roomNumber", kStr, false);
  attr("employeeNumber", kStr, true);
  attr("employeeType", kStr, false);
  attr("departmentNumber", kStr, false);
  attr("displayName", kStr, true);
  attr("userPassword", kStr, false);
  attr("seeAlso", AttributeSyntax::kDn, false);
  attr("postalAddress", kStr, false);
  attr("l", kStr, false, {"localityName"});
  attr("st", kStr, false, {"stateOrProvinceName"});
  attr("street", kStr, false, {"streetAddress"});
  attr("creatorsName", kStr, true);
  attr("createTimestamp", kStr, true);
  attr("modifyTimestamp", kStr, true);

  auto cls = [&schema](std::string name, ObjectClassKind kind,
                       std::string superior,
                       std::vector<std::string> must,
                       std::vector<std::string> may) {
    ObjectClassDef def;
    def.name = std::move(name);
    def.kind = kind;
    def.superior = std::move(superior);
    def.must = std::move(must);
    def.may = std::move(may);
    Status s = schema.AddObjectClass(std::move(def));
    (void)s;
  };

  cls("top", ObjectClassKind::kAbstract, "", {"objectClass"}, {});
  cls("organization", ObjectClassKind::kStructural, "top", {"o"},
      {"description", "telephoneNumber", "postalAddress", "l", "st",
       "street"});
  cls("organizationalUnit", ObjectClassKind::kStructural, "top", {"ou"},
      {"description", "telephoneNumber", "postalAddress", "l", "st",
       "street"});
  cls("person", ObjectClassKind::kStructural, "top", {"cn", "sn"},
      {"userPassword", "telephoneNumber", "seeAlso", "description"});
  cls("organizationalPerson", ObjectClassKind::kStructural, "person", {},
      {"title", "ou", "roomNumber", "postalAddress", "l", "st", "street",
       "facsimileTelephoneNumber"});
  cls("inetOrgPerson", ObjectClassKind::kStructural,
      "organizationalPerson", {},
      {"givenName", "uid", "mail", "employeeNumber", "employeeType",
       "departmentNumber", "displayName"});
  return schema;
}

}  // namespace metacomm::ldap
