#include "ldap/ldif.h"

#include "common/strings.h"

namespace metacomm::ldap {

namespace {

constexpr char kBase64Chars[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// True when an LDIF value needs base64 encoding (leading space/colon/<,
/// or non-printable characters).
bool NeedsBase64(std::string_view value) {
  if (value.empty()) return false;
  if (value.front() == ' ' || value.front() == ':' || value.front() == '<') {
    return true;
  }
  if (value.back() == ' ') return true;
  for (char c : value) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (uc < 0x20 || uc >= 0x7f) return true;
  }
  return false;
}

/// Unfolds LDIF physical lines into logical lines: a line starting with
/// a single space continues the previous line. Comments are dropped.
std::vector<std::string> UnfoldLines(std::string_view text) {
  std::vector<std::string> logical;
  for (std::string& raw : Split(text, '\n')) {
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (!raw.empty() && raw.front() == ' ') {
      if (!logical.empty()) logical.back() += raw.substr(1);
      continue;
    }
    if (!raw.empty() && raw.front() == '#') continue;
    logical.push_back(std::move(raw));
  }
  return logical;
}

struct LdifLine {
  std::string attribute;
  std::string value;
};

StatusOr<LdifLine> ParseLine(const std::string& line) {
  size_t colon = line.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("LDIF line lacks ':': " + line);
  }
  LdifLine out;
  out.attribute = Trim(line.substr(0, colon));
  if (colon + 1 < line.size() && line[colon + 1] == ':') {
    // Base64 value.
    METACOMM_ASSIGN_OR_RETURN(out.value,
                              Base64Decode(Trim(line.substr(colon + 2))));
  } else {
    std::string_view rest(line);
    rest.remove_prefix(colon + 1);
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    out.value = std::string(rest);
  }
  return out;
}

}  // namespace

std::string Base64Encode(std::string_view data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  size_t i = 0;
  while (i + 2 < data.size()) {
    uint32_t n = (static_cast<unsigned char>(data[i]) << 16) |
                 (static_cast<unsigned char>(data[i + 1]) << 8) |
                 static_cast<unsigned char>(data[i + 2]);
    out.push_back(kBase64Chars[(n >> 18) & 63]);
    out.push_back(kBase64Chars[(n >> 12) & 63]);
    out.push_back(kBase64Chars[(n >> 6) & 63]);
    out.push_back(kBase64Chars[n & 63]);
    i += 3;
  }
  size_t remaining = data.size() - i;
  if (remaining == 1) {
    uint32_t n = static_cast<unsigned char>(data[i]) << 16;
    out.push_back(kBase64Chars[(n >> 18) & 63]);
    out.push_back(kBase64Chars[(n >> 12) & 63]);
    out += "==";
  } else if (remaining == 2) {
    uint32_t n = (static_cast<unsigned char>(data[i]) << 16) |
                 (static_cast<unsigned char>(data[i + 1]) << 8);
    out.push_back(kBase64Chars[(n >> 18) & 63]);
    out.push_back(kBase64Chars[(n >> 12) & 63]);
    out.push_back(kBase64Chars[(n >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

StatusOr<std::string> Base64Decode(std::string_view encoded) {
  auto value_of = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  std::string out;
  uint32_t buffer = 0;
  int bits = 0;
  for (char c : encoded) {
    if (c == '=' || c == '\n' || c == '\r' || c == ' ') continue;
    int v = value_of(c);
    if (v < 0) {
      return Status::InvalidArgument("bad base64 character");
    }
    buffer = (buffer << 6) | static_cast<uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<char>((buffer >> bits) & 0xff));
    }
  }
  return out;
}

StatusOr<std::vector<LdifRecord>> ParseLdif(std::string_view text) {
  std::vector<std::string> lines = UnfoldLines(text);
  std::vector<LdifRecord> records;

  // Group logical lines into blank-line-separated blocks.
  std::vector<std::vector<LdifLine>> blocks;
  std::vector<LdifLine> current;
  for (const std::string& line : lines) {
    if (Trim(line).empty()) {
      if (!current.empty()) blocks.push_back(std::move(current));
      current.clear();
      continue;
    }
    if (EqualsIgnoreCase(Trim(line), "version: 1")) continue;
    if (Trim(line) == "-") {
      // Separator line inside a modify record; it has no colon, so it
      // is represented as attribute "-" with no value.
      current.push_back(LdifLine{"-", ""});
      continue;
    }
    METACOMM_ASSIGN_OR_RETURN(LdifLine parsed, ParseLine(line));
    current.push_back(std::move(parsed));
  }
  if (!current.empty()) blocks.push_back(std::move(current));

  for (const std::vector<LdifLine>& block : blocks) {
    if (!EqualsIgnoreCase(block.front().attribute, "dn")) {
      return Status::InvalidArgument("LDIF record must start with dn:");
    }
    METACOMM_ASSIGN_OR_RETURN(Dn dn, Dn::Parse(block.front().value));

    // Determine changetype (default: content record == add).
    std::string changetype = "add";
    size_t body_start = 1;
    if (block.size() > 1 &&
        EqualsIgnoreCase(block[1].attribute, "changetype")) {
      changetype = ToLower(block[1].value);
      body_start = 2;
    }

    LdifRecord record;
    record.dn = dn;
    if (changetype == "add") {
      record.op = UpdateOp::kAdd;
      record.entry = Entry(dn);
      for (size_t i = body_start; i < block.size(); ++i) {
        record.entry.AddValue(block[i].attribute, block[i].value);
      }
    } else if (changetype == "delete") {
      record.op = UpdateOp::kDelete;
    } else if (changetype == "modify") {
      record.op = UpdateOp::kModify;
      // Body: op lines (add/delete/replace: attr), value lines, "-".
      size_t i = body_start;
      while (i < block.size()) {
        const LdifLine& head = block[i];
        Modification mod;
        if (EqualsIgnoreCase(head.attribute, "add")) {
          mod.type = Modification::Type::kAdd;
        } else if (EqualsIgnoreCase(head.attribute, "delete")) {
          mod.type = Modification::Type::kDelete;
        } else if (EqualsIgnoreCase(head.attribute, "replace")) {
          mod.type = Modification::Type::kReplace;
        } else if (head.attribute == "-") {
          ++i;
          continue;
        } else {
          return Status::InvalidArgument("bad modify op: " +
                                         head.attribute);
        }
        mod.attribute = head.value;
        ++i;
        while (i < block.size() &&
               EqualsIgnoreCase(block[i].attribute, mod.attribute)) {
          mod.values.push_back(block[i].value);
          ++i;
        }
        // Skip the separator if present. ("-" parses as attribute "-"
        // with an empty value because it contains no colon — handle
        // both spellings.)
        if (i < block.size() && Trim(block[i].attribute) == "-") ++i;
        record.mods.push_back(std::move(mod));
      }
    } else if (changetype == "modrdn" || changetype == "moddn") {
      record.op = UpdateOp::kModifyRdn;
      for (size_t i = body_start; i < block.size(); ++i) {
        if (EqualsIgnoreCase(block[i].attribute, "newrdn")) {
          METACOMM_ASSIGN_OR_RETURN(record.new_rdn,
                                    Rdn::Parse(block[i].value));
        } else if (EqualsIgnoreCase(block[i].attribute, "deleteoldrdn")) {
          record.delete_old_rdn = block[i].value != "0";
        }
      }
      if (record.new_rdn.empty()) {
        return Status::InvalidArgument("modrdn without newrdn");
      }
    } else {
      return Status::InvalidArgument("unsupported changetype: " +
                                     changetype);
    }
    records.push_back(std::move(record));
  }
  return records;
}

void AppendLdifLine(std::string_view attribute, std::string_view value,
                    std::string* out) {
  out->append(attribute);
  if (NeedsBase64(value)) {
    out->append(":: ");
    *out += Base64Encode(value);
  } else {
    out->append(": ");
    out->append(value);
  }
  out->push_back('\n');
}

std::string ToLdif(const Entry& entry) {
  std::string out;
  AppendLdif(entry, &out);
  return out;
}

void AppendLdif(const Entry& entry, std::string* out) {
  out->append("dn: ");
  entry.dn().AppendTo(out);
  out->push_back('\n');
  for (const auto& [name, attr] : entry.attributes()) {
    for (const std::string& value : attr.values()) {
      AppendLdifLine(name, value, out);
    }
  }
}

std::string ToLdif(const std::vector<Entry>& entries) {
  std::string out;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out.push_back('\n');
    AppendLdif(entries[i], &out);
  }
  return out;
}

}  // namespace metacomm::ldap
