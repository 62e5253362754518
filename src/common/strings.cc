#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

namespace metacomm {

namespace {

char AsciiUpper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), AsciiLower);
  return out;
}

void ToLowerInto(std::string_view s, std::string* out) {
  out->resize(s.size());
  std::transform(s.begin(), s.end(), out->begin(), AsciiLower);
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), AsciiUpper);
  return out;
}

std::string Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsSpace(s[begin])) ++begin;
  while (end > begin && IsSpace(s[end - 1])) --end;
  return std::string(s.substr(begin, end - begin));
}

std::string NormalizeSpace(std::string_view s) {
  std::string out;
  FoldedChars{s, /*keep_case=*/true}.AppendTo(&out);
  return out;
}

void NormalizeSpaceLowerInto(std::string_view s, std::string* out) {
  out->clear();
  FoldedChars{s}.AppendTo(out);
}

bool EqualsNormalizedIgnoreCase(std::string_view a, std::string_view b) {
  FoldedChars x{a};
  FoldedChars y{b};
  for (int c = x.Next();; c = x.Next()) {
    if (c != y.Next()) return false;
    if (c < 0) return true;
  }
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         EqualsIgnoreCase(s.substr(0, prefix.size()), prefix);
}

bool EndsWithIgnoreCase(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         EqualsIgnoreCase(s.substr(s.size() - suffix.size()), suffix);
}

bool ContainsIgnoreCase(std::string_view s, std::string_view needle) {
  if (needle.empty()) return true;
  if (s.size() < needle.size()) return false;
  for (size_t i = 0; i + needle.size() <= s.size(); ++i) {
    if (EqualsIgnoreCase(s.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(s.substr(start));
      break;
    }
    pieces.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::vector<std::string> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string> pieces = Split(s, sep);
  for (std::string& p : pieces) p = Trim(p);
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::string FormatPercentS(std::string_view fmt,
                           const std::vector<std::string>& args) {
  std::string out;
  size_t next_arg = 0;
  for (size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] == '%' && i + 1 < fmt.size()) {
      if (fmt[i + 1] == 's') {
        if (next_arg < args.size()) out.append(args[next_arg]);
        ++next_arg;
        ++i;
        continue;
      }
      if (fmt[i + 1] == '%') {
        out.push_back('%');
        ++i;
        continue;
      }
    }
    out.push_back(fmt[i]);
  }
  return out;
}

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

std::optional<uint64_t> ParseUint64(std::string_view s) {
  if (!IsAllDigits(s)) return std::nullopt;
  uint64_t value = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  std::optional<uint64_t> value = ParseUint64(s);
  if (!value.has_value() ||
      *value > static_cast<uint64_t>(
                   std::numeric_limits<int64_t>::max())) {
    return std::nullopt;
  }
  return static_cast<int64_t>(*value);
}

std::optional<int64_t> ParseSignedInt64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  bool negative = false;
  if (s.front() == '+' || s.front() == '-') {
    negative = s.front() == '-';
    s.remove_prefix(1);
  }
  std::optional<uint64_t> magnitude = ParseUint64(s);
  if (!magnitude.has_value()) return std::nullopt;
  constexpr uint64_t kMaxPositive =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  if (negative) {
    // |INT64_MIN| = INT64_MAX + 1 is representable only when negated.
    if (*magnitude > kMaxPositive + 1) return std::nullopt;
    return static_cast<int64_t>(0 - *magnitude);
  }
  if (*magnitude > kMaxPositive) return std::nullopt;
  return static_cast<int64_t>(*magnitude);
}

std::optional<uint64_t> ParseHexUint64(std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  uint64_t value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

namespace {

bool GlobMatchImpl(std::string_view pattern, std::string_view text,
                   bool fold_case) {
  // Iterative matcher with single-star backtracking.
  size_t p = 0, t = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  auto eq = [fold_case](char a, char b) {
    return fold_case ? AsciiLower(a) == AsciiLower(b) : a == b;
  };
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || eq(pattern[p], text[t]))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace

bool GlobMatch(std::string_view pattern, std::string_view text) {
  return GlobMatchImpl(pattern, text, /*fold_case=*/false);
}

bool GlobMatchIgnoreCase(std::string_view pattern, std::string_view text) {
  return GlobMatchImpl(pattern, text, /*fold_case=*/true);
}

bool CaseInsensitiveLess::operator()(std::string_view a,
                                     std::string_view b) const {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    char ca = AsciiLower(a[i]);
    char cb = AsciiLower(b[i]);
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

}  // namespace metacomm
