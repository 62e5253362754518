#ifndef METACOMM_COMMON_STRINGS_H_
#define METACOMM_COMMON_STRINGS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace metacomm {

/// String helpers shared across the LDAP substrate, the lexpress VM and
/// the device protocol parsers. LDAP attribute handling is pervasively
/// case-insensitive (caseIgnoreMatch), so the case-folding helpers here
/// define *the* canonical folding used for DN normalization, attribute
/// name lookup and filter evaluation.

/// ASCII lower-casing, and the whitespace NormalizeSpace collapses.
inline char AsciiLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
inline bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Returns `s` with ASCII letters lower-cased.
std::string ToLower(std::string_view s);

/// Writes lower(`s`) into `*out`, reusing its capacity. In-place
/// variant for hot paths that fold many strings in a loop.
void ToLowerInto(std::string_view s, std::string* out);

/// Returns `s` with ASCII letters upper-cased.
std::string ToUpper(std::string_view s);

/// Returns `s` without leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Returns `s` with runs of internal whitespace collapsed to single
/// spaces and leading/trailing whitespace removed. This is the
/// "insignificant space" handling LDAP matching rules prescribe.
std::string NormalizeSpace(std::string_view s);

/// Single-pass NormalizeSpace + ToLower written into `*out`, reusing
/// its capacity. This is the canonical key form of the LDAP equality
/// index; the in-place single scan avoids the two temporaries of
/// ToLower(NormalizeSpace(s)) on indexing/search hot paths.
void NormalizeSpaceLowerInto(std::string_view s, std::string* out);

/// Reads NormalizeSpace(text), lower-cased unless `keep_case` (the
/// caseIgnoreMatch fold), one character at a time without building it:
/// Next() returns the next character as 0..255, or -1 at the end.
struct FoldedChars {
  std::string_view text;
  bool keep_case = false;
  size_t pos = 0;
  bool started = false;

  int Next() {
    size_t run = pos;
    while (pos < text.size() && IsSpace(text[pos])) ++pos;
    if (pos == text.size()) return -1;      // Trailing space is dropped.
    if (pos > run && started) return ' ';  // An inner run is one space.
    started = true;
    char c = text[pos++];
    return static_cast<unsigned char>(keep_case ? c : AsciiLower(c));
  }
  void AppendTo(std::string* out) {
    for (int c = Next(); c >= 0; c = Next()) {
      out->push_back(static_cast<char>(c));
    }
  }
};

/// True when NormalizeSpace(a) and NormalizeSpace(b) are equal ignoring
/// ASCII case (caseIgnoreMatch), compared without building either.
bool EqualsNormalizedIgnoreCase(std::string_view a, std::string_view b);

/// Case-insensitive equality over ASCII.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `s` begins with `prefix`, ignoring ASCII case.
bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`, ignoring ASCII case. Allocation-free
/// (the lexpress suffix() builtin used to lower-case both operands into
/// temporaries per value per evaluation).
bool EndsWithIgnoreCase(std::string_view s, std::string_view suffix);

/// True if `needle` occurs anywhere in `s`, ignoring ASCII case.
/// Allocation-free; an empty needle matches everything.
bool ContainsIgnoreCase(std::string_view s, std::string_view needle);

/// Splits `s` on every occurrence of `sep`; an empty input yields one
/// empty piece, matching the behaviour of most split utilities.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits and trims each piece; empty pieces are kept.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// printf-lite used by lexpress' format() builtin: each "%s" in `fmt` is
/// replaced by the next element of `args`; "%%" yields a literal '%'.
/// Surplus placeholders render as empty strings.
std::string FormatPercentS(std::string_view fmt,
                           const std::vector<std::string>& args);

/// True if all characters of non-empty `s` are ASCII digits.
bool IsAllDigits(std::string_view s);

/// Checked decimal parse of the complete string: nullopt unless `s` is
/// a non-empty run of ASCII digits (no sign, no surrounding space)
/// whose value fits the result type. The protocol parsers use these
/// instead of atoi/atoll, which silently saturate or overflow on long
/// digit strings.
std::optional<int64_t> ParseInt64(std::string_view s);
std::optional<uint64_t> ParseUint64(std::string_view s);

/// Like ParseInt64 but accepts one leading '+' or '-' (the lexpress
/// int() builtin's accepted syntax). Handles INT64_MIN exactly.
std::optional<int64_t> ParseSignedInt64(std::string_view s);

/// Checked hexadecimal parse of the complete string (no "0x" prefix,
/// no sign): nullopt unless `s` is 1..16 hex digits. Used by the
/// error-log unescaper instead of strtol.
std::optional<uint64_t> ParseHexUint64(std::string_view s);

/// Simple glob match supporting '*' (any run) and '?' (any one char).
/// Used by LDAP substring filters and lexpress patterns.
bool GlobMatch(std::string_view pattern, std::string_view text);

/// Case-insensitive glob match.
bool GlobMatchIgnoreCase(std::string_view pattern, std::string_view text);

/// Functor pair for case-insensitive keyed containers
/// (std::map<std::string, V, CaseInsensitiveLess>).
struct CaseInsensitiveLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

}  // namespace metacomm

#endif  // METACOMM_COMMON_STRINGS_H_
