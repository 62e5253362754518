#include "ldap/entry.h"

namespace metacomm::ldap {

bool Entry::Has(std::string_view attribute) const {
  auto it = attributes_.find(attribute);
  return it != attributes_.end() && !it->second.empty();
}

std::vector<std::string> Entry::GetAll(std::string_view attribute) const {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) return {};
  return it->second.values();
}

std::string Entry::GetFirst(std::string_view attribute) const {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) return "";
  return it->second.FirstValue();
}

void Entry::Set(std::string_view attribute,
                std::vector<std::string> values) {
  if (values.empty()) {
    Remove(attribute);
    return;
  }
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) {
    Attribute attr{std::string(attribute), std::move(values)};
    attributes_.emplace(std::string(attribute), std::move(attr));
  } else {
    it->second.SetValues(std::move(values));
  }
}

void Entry::SetOne(std::string_view attribute, std::string value) {
  Set(attribute, {std::move(value)});
}

bool Entry::AddValue(std::string_view attribute, std::string value) {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) {
    Attribute attr{std::string(attribute)};
    attr.AddValue(std::move(value));
    attributes_.emplace(std::string(attribute), std::move(attr));
    return true;
  }
  return it->second.AddValue(std::move(value));
}

bool Entry::RemoveValue(std::string_view attribute,
                        std::string_view value) {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) return false;
  bool removed = it->second.RemoveValue(value);
  if (removed && it->second.empty()) attributes_.erase(it);
  return removed;
}

bool Entry::Remove(std::string_view attribute) {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) return false;
  attributes_.erase(it);
  return true;
}

bool Entry::HasObjectClass(std::string_view object_class) const {
  auto it = attributes_.find("objectClass");
  if (it == attributes_.end()) return false;
  return it->second.HasValue(object_class);
}

void Entry::AddObjectClass(std::string object_class) {
  AddValue("objectClass", std::move(object_class));
}

Entry Entry::Project(const std::vector<std::string>& attributes) const {
  if (attributes.empty()) return *this;
  Entry out(dn_);
  for (const std::string& name : attributes) {
    auto it = attributes_.find(name);
    if (it != attributes_.end()) {
      out.Set(it->second.name(), it->second.values());
    }
  }
  return out;
}

bool operator==(const Entry& a, const Entry& b) {
  if (!(a.dn_ == b.dn_)) return false;
  if (a.attributes_.size() != b.attributes_.size()) return false;
  for (const auto& [name, attr] : a.attributes_) {
    auto it = b.attributes_.find(name);
    if (it == b.attributes_.end() || !(it->second == attr)) return false;
  }
  return true;
}

std::string Entry::ToString() const {
  std::string out = "dn: " + dn_.ToString() + "\n";
  for (const auto& [name, attr] : attributes_) {
    for (const std::string& value : attr.values()) {
      out += name + ": " + value + "\n";
    }
  }
  return out;
}

}  // namespace metacomm::ldap
