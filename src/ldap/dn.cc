#include "ldap/dn.h"

#include <algorithm>

#include "common/strings.h"

namespace metacomm::ldap {

namespace {

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return c - 'A' + 10;
}

/// Strips insignificant outer spaces from a DN piece WITHOUT eating an
/// escaped trailing space ("cn=x\ " keeps its final space; naive
/// trimming would leave a dangling backslash).
std::string_view TrimOuterSpaces(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && s[begin] == ' ') ++begin;
  size_t end = s.size();
  while (end > begin && s[end - 1] == ' ') {
    size_t backslashes = 0;
    size_t i = end - 1;
    while (i > begin && s[i - 1] == '\\') {
      ++backslashes;
      --i;
    }
    if (backslashes % 2 == 1) break;  // Escaped: significant.
    --end;
  }
  return s.substr(begin, end - begin);
}

bool NeedsEscape(char c) {
  switch (c) {
    case ',':
    case '+':
    case '"':
    case '\\':
    case '<':
    case '>':
    case ';':
    case '=':
      return true;
    default:
      return false;
  }
}

/// Splits `text` on unescaped occurrences of `sep`, preserving escapes
/// in the returned pieces (they are decoded later).
StatusOr<std::vector<std::string>> SplitUnescaped(std::string_view text,
                                                  char sep) {
  std::vector<std::string> pieces;
  std::string current;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        return Status::InvalidArgument("dangling escape in DN");
      }
      current.push_back(c);
      current.push_back(text[++i]);
      continue;
    }
    if (c == sep) {
      pieces.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  pieces.push_back(current);
  return pieces;
}

/// Decodes backslash escapes and strips insignificant outer whitespace.
StatusOr<std::string> DecodeValue(std::string_view raw) {
  // Leading/trailing unescaped spaces are insignificant.
  size_t begin = 0;
  size_t end = raw.size();
  while (begin < end && raw[begin] == ' ') ++begin;
  while (end > begin && raw[end - 1] == ' ' &&
         (end < 2 || raw[end - 2] != '\\')) {
    --end;
  }
  std::string_view v = raw.substr(begin, end - begin);
  std::string out;
  out.reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    char c = v[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i + 1 >= v.size()) {
      return Status::InvalidArgument("dangling escape in DN value");
    }
    char next = v[i + 1];
    if (IsHexDigit(next) && i + 2 < v.size() && IsHexDigit(v[i + 2])) {
      out.push_back(
          static_cast<char>(HexValue(next) * 16 + HexValue(v[i + 2])));
      i += 2;
    } else {
      out.push_back(next);
      ++i;
    }
  }
  return out;
}

/// Escapes one AVA value per RFC 2253 onto `out`: the AppendTo render
/// path, which must not allocate per component.
void AppendEscapedDnValue(std::string_view value, std::string* out) {
  for (size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    bool escape = NeedsEscape(c);
    // Leading space or '#', and trailing space, must be escaped.
    if (c == ' ' && (i == 0 || i + 1 == value.size())) escape = true;
    if (c == '#' && i == 0) escape = true;
    if (escape) out->push_back('\\');
    out->push_back(c);
  }
}

/// Feeds Rdn::Normalized() to `emit` one character at a time, without
/// building it, until `emit` returns false: lower(attribute) '=' and
/// lower(NormalizeSpace(value)) escaped per RFC 2253, per AVA, joined
/// by '+'.
template <typename Emit>
void ForEachNormalizedChar(const std::vector<Ava>& avas, Emit&& emit) {
  for (size_t i = 0; i < avas.size(); ++i) {
    if (i > 0 && !emit('+')) return;
    for (char c : avas[i].attribute) {
      if (!emit(AsciiLower(c))) return;
    }
    if (!emit('=')) return;
    // Folded values have no outer spaces to escape, only specials and '#'.
    FoldedChars value{avas[i].value};
    for (int c = value.Next(), first = 1; c >= 0; c = value.Next(), first = 0) {
      char ch = static_cast<char>(c);
      if ((NeedsEscape(ch) || (ch == '#' && first)) && !emit('\\')) return;
      if (!emit(ch)) return;
    }
  }
}

}  // namespace

Rdn::Rdn(std::string attribute, std::string value) {
  AddAva(std::move(attribute), std::move(value));
}

void Rdn::AddAva(std::string attribute, std::string value) {
  avas_.push_back(Ava{std::move(attribute), std::move(value)});
  std::sort(avas_.begin(), avas_.end(), [](const Ava& a, const Ava& b) {
    return CaseInsensitiveLess()(a.attribute, b.attribute);
  });
}

StatusOr<Rdn> Rdn::Parse(std::string_view text) {
  METACOMM_ASSIGN_OR_RETURN(std::vector<std::string> parts,
                            SplitUnescaped(text, '+'));
  Rdn rdn;
  for (const std::string& part : parts) {
    // Find the first unescaped '='.
    size_t eq = std::string::npos;
    for (size_t i = 0; i < part.size(); ++i) {
      if (part[i] == '\\') {
        ++i;
        continue;
      }
      if (part[i] == '=') {
        eq = i;
        break;
      }
    }
    if (eq == std::string::npos) {
      return Status::InvalidArgument("RDN component lacks '=': " + part);
    }
    std::string attribute = Trim(part.substr(0, eq));
    if (attribute.empty()) {
      return Status::InvalidArgument("RDN has empty attribute: " + part);
    }
    METACOMM_ASSIGN_OR_RETURN(std::string value,
                              DecodeValue(std::string_view(part).substr(eq + 1)));
    if (value.empty()) {
      return Status::InvalidArgument("RDN has empty value: " + part);
    }
    rdn.AddAva(std::move(attribute), std::move(value));
  }
  if (rdn.empty()) return Status::InvalidArgument("empty RDN");
  return rdn;
}

std::string Rdn::ValueOf(std::string_view attribute) const {
  for (const Ava& ava : avas_) {
    if (EqualsIgnoreCase(ava.attribute, attribute)) return ava.value;
  }
  return "";
}

std::string Rdn::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Rdn::AppendTo(std::string* out) const {
  for (size_t i = 0; i < avas_.size(); ++i) {
    if (i > 0) out->push_back('+');
    *out += avas_[i].attribute;
    out->push_back('=');
    AppendEscapedDnValue(avas_[i].value, out);
  }
}

std::string Rdn::Normalized() const {
  std::string out;
  ForEachNormalizedChar(avas_, [&out](char c) {
    out.push_back(c);
    return true;
  });
  return out;
}

int Rdn::CompareNormalized(std::string_view key) const {
  size_t i = 0;
  int order = 0;
  ForEachNormalizedChar(avas_, [&](char c) {
    if (i == key.size()) {
      order = 1;  // `key` is a proper prefix.
    } else if (c != key[i]) {
      order = std::char_traits<char>::lt(c, key[i]) ? -1 : 1;
    }
    ++i;
    return order == 0;
  });
  return order != 0 ? order : (i < key.size() ? -1 : 0);
}

bool operator==(const Rdn& a, const Rdn& b) {
  return std::equal(a.avas_.begin(), a.avas_.end(), b.avas_.begin(),
                    b.avas_.end(), [](const Ava& x, const Ava& y) {
                      return EqualsIgnoreCase(x.attribute, y.attribute) &&
                             EqualsNormalizedIgnoreCase(x.value, y.value);
                    });
}

StatusOr<Dn> Dn::Parse(std::string_view text) {
  std::string_view trimmed = TrimOuterSpaces(text);
  if (trimmed.empty()) return Dn::Root();
  METACOMM_ASSIGN_OR_RETURN(std::vector<std::string> parts,
                            SplitUnescaped(trimmed, ','));
  std::vector<Rdn> rdns;
  rdns.reserve(parts.size());
  for (const std::string& part : parts) {
    METACOMM_ASSIGN_OR_RETURN(Rdn rdn,
                              Rdn::Parse(TrimOuterSpaces(part)));
    rdns.push_back(std::move(rdn));
  }
  return Dn(std::move(rdns));
}

Dn Dn::Parent() const {
  if (rdns_.empty()) return Dn();
  return Dn(std::vector<Rdn>(rdns_.begin() + 1, rdns_.end()));
}

Dn Dn::Child(Rdn rdn) const {
  std::vector<Rdn> rdns;
  rdns.reserve(rdns_.size() + 1);
  rdns.push_back(std::move(rdn));
  rdns.insert(rdns.end(), rdns_.begin(), rdns_.end());
  return Dn(std::move(rdns));
}

Dn Dn::WithLeaf(Rdn rdn) const {
  std::vector<Rdn> rdns = rdns_;
  if (rdns.empty()) {
    rdns.push_back(std::move(rdn));
  } else {
    rdns.front() = std::move(rdn);
  }
  return Dn(std::move(rdns));
}

bool Dn::IsWithin(const Dn& ancestor) const {
  if (ancestor.rdns_.size() > rdns_.size()) return false;
  size_t offset = rdns_.size() - ancestor.rdns_.size();
  for (size_t i = 0; i < ancestor.rdns_.size(); ++i) {
    if (!(rdns_[offset + i] == ancestor.rdns_[i])) return false;
  }
  return true;
}

std::string Dn::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Dn::AppendTo(std::string* out) const {
  for (size_t i = 0; i < rdns_.size(); ++i) {
    if (i > 0) out->push_back(',');
    rdns_[i].AppendTo(out);
  }
}

std::string Dn::Normalized() const {
  std::string out;
  for (size_t i = 0; i < rdns_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += rdns_[i].Normalized();
  }
  return out;
}

std::vector<std::string_view> TreeOrderKey(std::string_view normalized_dn) {
  std::vector<std::string_view> key;
  bool escaped = false;
  for (size_t i = 0, start = 0; i <= normalized_dn.size(); ++i) {
    if (i < normalized_dn.size() && (escaped || normalized_dn[i] != ',')) {
      escaped = !escaped && normalized_dn[i] == '\\';
    } else if (i > 0) {  // An unescaped comma or the end closes an RDN.
      key.insert(key.begin(), normalized_dn.substr(start, i - start));
      start = i + 1;
    }
  }
  return key;
}

}  // namespace metacomm::ldap
