#include "ldap/entry.h"

#include <atomic>

namespace metacomm::ldap {

struct Entry::Attributes {
  explicit Attributes(AttributeMap m) : map(std::move(m)) {}
  /// Set by the first copy, never cleared. Writers test this, not
  /// use_count() == 1, a relaxed load that would not order the last
  /// other holder's reads before this holder's writes.
  std::atomic<bool> shared{false};
  AttributeMap map;
};

Entry::Entry(const Entry& other)
    : dn_(other.dn_), attributes_(other.attributes_) {
  if (attributes_) attributes_->shared.store(true, std::memory_order_relaxed);
}

AttributeMap& Entry::Mutable() {
  if (attributes_ == nullptr ||
      attributes_->shared.load(std::memory_order_relaxed)) {
    attributes_ = std::make_shared<Attributes>(attributes());
  }
  return attributes_->map;
}

const AttributeMap& Entry::attributes() const {
  static const AttributeMap* empty = new AttributeMap;
  return attributes_ != nullptr ? attributes_->map : *empty;
}

bool Entry::Has(std::string_view attribute) const {
  auto it = attributes().find(attribute);
  return it != attributes().end() && !it->second.empty();
}

std::vector<std::string> Entry::GetAll(std::string_view attribute) const {
  auto it = attributes().find(attribute);
  if (it == attributes().end()) return {};
  return it->second.values();
}

std::string Entry::GetFirst(std::string_view attribute) const {
  auto it = attributes().find(attribute);
  if (it == attributes().end()) return "";
  return it->second.FirstValue();
}

void Entry::Set(std::string_view attribute,
                std::vector<std::string> values) {
  if (values.empty()) {
    Remove(attribute);
    return;
  }
  AttributeMap& map = Mutable();
  auto it = map.find(attribute);
  if (it == map.end()) {
    Attribute attr{std::string(attribute), std::move(values)};
    map.emplace(std::string(attribute), std::move(attr));
  } else {
    it->second.SetValues(std::move(values));
  }
}

void Entry::SetOne(std::string_view attribute, std::string value) {
  Set(attribute, {std::move(value)});
}

bool Entry::AddValue(std::string_view attribute, std::string value) {
  AttributeMap& map = Mutable();
  auto it = map.find(attribute);
  if (it == map.end()) {
    Attribute attr{std::string(attribute)};
    attr.AddValue(std::move(value));
    map.emplace(std::string(attribute), std::move(attr));
    return true;
  }
  return it->second.AddValue(std::move(value));
}

bool Entry::RemoveValue(std::string_view attribute,
                        std::string_view value) {
  AttributeMap& map = Mutable();
  auto it = map.find(attribute);
  if (it == map.end()) return false;
  bool removed = it->second.RemoveValue(value);
  if (removed && it->second.empty()) map.erase(it);
  return removed;
}

bool Entry::Remove(std::string_view attribute) {
  AttributeMap& map = Mutable();
  auto it = map.find(attribute);
  if (it == map.end()) return false;
  map.erase(it);
  return true;
}

bool Entry::HasObjectClass(std::string_view object_class) const {
  auto it = attributes().find("objectClass");
  if (it == attributes().end()) return false;
  return it->second.HasValue(object_class);
}

void Entry::AddObjectClass(std::string object_class) {
  AddValue("objectClass", std::move(object_class));
}

Entry Entry::Project(const std::vector<std::string>& attributes) const {
  if (attributes.empty()) return *this;
  Entry out(dn_);
  for (const std::string& name : attributes) {
    auto it = this->attributes().find(name);
    if (it != this->attributes().end()) {
      out.Set(it->second.name(), it->second.values());
    }
  }
  return out;
}

bool operator==(const Entry& a, const Entry& b) {
  if (!(a.dn_ == b.dn_)) return false;
  if (a.attributes().size() != b.attributes().size()) return false;
  for (const auto& [name, attr] : a.attributes()) {
    auto it = b.attributes().find(name);
    if (it == b.attributes().end() || !(it->second == attr)) return false;
  }
  return true;
}

std::string Entry::ToString() const {
  std::string out = "dn: " + dn_.ToString() + "\n";
  for (const auto& [name, attr] : attributes()) {
    for (const std::string& value : attr.values()) {
      out += name + ": " + value + "\n";
    }
  }
  return out;
}

}  // namespace metacomm::ldap
