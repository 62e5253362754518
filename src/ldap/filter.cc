#include "ldap/filter.h"

#include "common/strings.h"

namespace metacomm::ldap {

namespace {

/// Recursive-descent parser over the RFC 2254 grammar.
class FilterParser {
 public:
  explicit FilterParser(std::string_view text) : text_(text) {}

  StatusOr<Filter> Parse() {
    METACOMM_ASSIGN_OR_RETURN(Filter f, ParseFilter());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in filter: " +
                                     std::string(text_.substr(pos_)));
    }
    return f;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<Filter> ParseFilter() {
    // Depth guard: adversarial inputs like "(((((..." must fail
    // cleanly instead of exhausting the stack.
    if (++depth_ > kMaxDepth) {
      return Status::InvalidArgument("filter nesting too deep");
    }
    SkipSpace();
    if (!Consume('(')) {
      return Status::InvalidArgument("filter must start with '('");
    }
    METACOMM_ASSIGN_OR_RETURN(Filter f, ParseBody());
    if (!Consume(')')) {
      return Status::InvalidArgument("filter missing ')'");
    }
    --depth_;
    return f;
  }

  StatusOr<Filter> ParseBody() {
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated filter");
    }
    char c = text_[pos_];
    if (c == '&' || c == '|') {
      ++pos_;
      std::vector<Filter> children;
      SkipSpace();
      while (pos_ < text_.size() && text_[pos_] == '(') {
        METACOMM_ASSIGN_OR_RETURN(Filter child, ParseFilter());
        children.push_back(std::move(child));
        SkipSpace();
      }
      if (children.empty()) {
        return Status::InvalidArgument("empty and/or filter");
      }
      return c == '&' ? Filter::And(std::move(children))
                      : Filter::Or(std::move(children));
    }
    if (c == '!') {
      ++pos_;
      METACOMM_ASSIGN_OR_RETURN(Filter child, ParseFilter());
      return Filter::Not(std::move(child));
    }
    return ParseSimple();
  }

  StatusOr<Filter> ParseSimple() {
    // attribute [~<>]? = value
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '=' &&
           text_[pos_] != ')' && text_[pos_] != '~' &&
           text_[pos_] != '<' && text_[pos_] != '>') {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated simple filter");
    }
    std::string attribute = Trim(text_.substr(start, pos_ - start));
    if (attribute.empty()) {
      return Status::InvalidArgument("filter with empty attribute");
    }

    Filter::Kind kind = Filter::Kind::kEquality;
    char op = text_[pos_];
    if (op == '~' || op == '<' || op == '>') {
      ++pos_;
      if (!Consume('=')) {
        return Status::InvalidArgument("expected '=' after ~/</>");
      }
      kind = op == '~'   ? Filter::Kind::kApprox
             : op == '<' ? Filter::Kind::kLessOrEqual
                         : Filter::Kind::kGreaterOrEqual;
    } else if (!Consume('=')) {
      return Status::InvalidArgument("expected '=' in filter");
    }

    // Value runs to the matching ')'. Handle RFC 2254 backslash-hex
    // escapes (\2a etc.).
    std::string value;
    bool has_star = false;
    while (pos_ < text_.size() && text_[pos_] != ')') {
      char vc = text_[pos_];
      if (vc == '\\' && pos_ + 2 < text_.size()) {
        auto hex = [](char h) -> int {
          if (h >= '0' && h <= '9') return h - '0';
          if (h >= 'a' && h <= 'f') return h - 'a' + 10;
          if (h >= 'A' && h <= 'F') return h - 'A' + 10;
          return -1;
        };
        int hi = hex(text_[pos_ + 1]);
        int lo = hex(text_[pos_ + 2]);
        if (hi >= 0 && lo >= 0) {
          value.push_back(static_cast<char>(hi * 16 + lo));
          pos_ += 3;
          continue;
        }
      }
      if (vc == '*') has_star = true;
      value.push_back(vc);
      ++pos_;
    }

    // Presence/substring forms require LITERAL stars; an escaped \2a
    // is an ordinary value character.
    if (kind == Filter::Kind::kEquality && has_star) {
      if (value == "*") return Filter::Present(std::move(attribute));
      return Filter::Substring(std::move(attribute), std::move(value));
    }
    switch (kind) {
      case Filter::Kind::kEquality:
        return Filter::Equality(std::move(attribute), std::move(value));
      case Filter::Kind::kApprox:
        return Filter::Approx(std::move(attribute), std::move(value));
      case Filter::Kind::kGreaterOrEqual:
        return Filter::GreaterOrEqual(std::move(attribute),
                                      std::move(value));
      case Filter::Kind::kLessOrEqual:
        return Filter::LessOrEqual(std::move(attribute), std::move(value));
      default:
        return Status::Internal("unreachable filter kind");
    }
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

/// Escapes *, (, ), \ and NUL for round-tripping filter values.
std::string EscapeFilterValue(std::string_view value, bool keep_stars) {
  std::string out;
  for (char c : value) {
    switch (c) {
      case '*':
        if (keep_stars) {
          out.push_back(c);
        } else {
          out += "\\2a";
        }
        break;
      case '(':
        out += "\\28";
        break;
      case ')':
        out += "\\29";
        break;
      case '\\':
        out += "\\5c";
        break;
      case '\0':
        out += "\\00";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Numeric-aware ordering comparison: if both sides are integers,
/// compare numerically, else lexicographically case-insensitive.
int OrderCompare(std::string_view a, std::string_view b) {
  if (IsAllDigits(a) && IsAllDigits(b)) {
    // Compare as numbers: longer digit string (sans leading zeros) wins.
    auto strip = [](std::string_view s) {
      size_t i = 0;
      while (i + 1 < s.size() && s[i] == '0') ++i;
      return s.substr(i);
    };
    std::string_view sa = strip(a), sb = strip(b);
    if (sa.size() != sb.size()) return sa.size() < sb.size() ? -1 : 1;
    if (sa == sb) return 0;
    return sa < sb ? -1 : 1;
  }
  std::string la = ToLower(a), lb = ToLower(b);
  if (la == lb) return 0;
  return la < lb ? -1 : 1;
}

}  // namespace

StatusOr<Filter> Filter::Parse(std::string_view text) {
  std::string trimmed = Trim(text);
  if (trimmed.empty()) return MatchAll();
  // Tolerate a bare "attr=value" without parentheses, as many LDAP
  // tools do.
  if (trimmed.front() != '(') trimmed = "(" + trimmed + ")";
  return FilterParser(trimmed).Parse();
}

Filter Filter::Equality(std::string attribute, std::string value) {
  Filter f;
  f.kind_ = Kind::kEquality;
  f.attribute_ = std::move(attribute);
  f.value_ = std::move(value);
  return f;
}

Filter Filter::Present(std::string attribute) {
  Filter f;
  f.kind_ = Kind::kPresent;
  f.attribute_ = std::move(attribute);
  return f;
}

Filter Filter::Substring(std::string attribute, std::string pattern) {
  Filter f;
  f.kind_ = Kind::kSubstring;
  f.attribute_ = std::move(attribute);
  f.value_ = std::move(pattern);
  return f;
}

Filter Filter::GreaterOrEqual(std::string attribute, std::string value) {
  Filter f;
  f.kind_ = Kind::kGreaterOrEqual;
  f.attribute_ = std::move(attribute);
  f.value_ = std::move(value);
  return f;
}

Filter Filter::LessOrEqual(std::string attribute, std::string value) {
  Filter f;
  f.kind_ = Kind::kLessOrEqual;
  f.attribute_ = std::move(attribute);
  f.value_ = std::move(value);
  return f;
}

Filter Filter::Approx(std::string attribute, std::string value) {
  Filter f;
  f.kind_ = Kind::kApprox;
  f.attribute_ = std::move(attribute);
  f.value_ = std::move(value);
  return f;
}

Filter Filter::And(std::vector<Filter> children) {
  Filter f;
  f.kind_ = Kind::kAnd;
  f.children_ = std::move(children);
  return f;
}

Filter Filter::Or(std::vector<Filter> children) {
  Filter f;
  f.kind_ = Kind::kOr;
  f.children_ = std::move(children);
  return f;
}

Filter Filter::Not(Filter child) {
  Filter f;
  f.kind_ = Kind::kNot;
  f.children_.push_back(std::move(child));
  return f;
}

Filter Filter::MatchAll() { return Present("objectClass"); }

bool Filter::Matches(const Entry& entry) const {
  switch (kind_) {
    case Kind::kAnd:
      for (const Filter& c : children_) {
        if (!c.Matches(entry)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Filter& c : children_) {
        if (c.Matches(entry)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_.front().Matches(entry);
    case Kind::kPresent:
      return entry.Has(attribute_);
    case Kind::kEquality: {
      auto it = entry.attributes().find(attribute_);
      if (it == entry.attributes().end()) return false;
      for (const std::string& v : it->second.values()) {
        if (EqualsNormalizedIgnoreCase(v, value_)) return true;
      }
      return false;
    }
    case Kind::kApprox: {
      // Approximate match folded to space- and case-insensitive
      // equality (real servers use phonetic algorithms; this suffices
      // for the directory behaviour MetaComm relies on).
      auto it = entry.attributes().find(attribute_);
      if (it == entry.attributes().end()) return false;
      std::string want = ToLower(ReplaceAll(value_, " ", ""));
      for (const std::string& v : it->second.values()) {
        if (ToLower(ReplaceAll(v, " ", "")) == want) return true;
      }
      return false;
    }
    case Kind::kSubstring: {
      auto it = entry.attributes().find(attribute_);
      if (it == entry.attributes().end()) return false;
      for (const std::string& v : it->second.values()) {
        if (GlobMatchIgnoreCase(value_, v)) return true;
      }
      return false;
    }
    case Kind::kGreaterOrEqual:
    case Kind::kLessOrEqual: {
      auto it = entry.attributes().find(attribute_);
      if (it == entry.attributes().end()) return false;
      for (const std::string& v : it->second.values()) {
        int cmp = OrderCompare(v, value_);
        if (kind_ == Kind::kGreaterOrEqual ? cmp >= 0 : cmp <= 0) {
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

std::string Filter::ToString() const {
  switch (kind_) {
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = kind_ == Kind::kAnd ? "(&" : "(|";
      for (const Filter& c : children_) out += c.ToString();
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "(!" + children_.front().ToString() + ")";
    case Kind::kPresent:
      return "(" + attribute_ + "=*)";
    case Kind::kEquality:
      return "(" + attribute_ + "=" +
             EscapeFilterValue(value_, /*keep_stars=*/false) + ")";
    case Kind::kSubstring:
      return "(" + attribute_ + "=" +
             EscapeFilterValue(value_, /*keep_stars=*/true) + ")";
    case Kind::kGreaterOrEqual:
      return "(" + attribute_ + ">=" +
             EscapeFilterValue(value_, /*keep_stars=*/false) + ")";
    case Kind::kLessOrEqual:
      return "(" + attribute_ + "<=" +
             EscapeFilterValue(value_, /*keep_stars=*/false) + ")";
    case Kind::kApprox:
      return "(" + attribute_ + "~=" +
             EscapeFilterValue(value_, /*keep_stars=*/false) + ")";
  }
  return "";
}

}  // namespace metacomm::ldap
