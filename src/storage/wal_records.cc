#include "storage/wal_records.h"

#include <charconv>
#include <vector>

#include "common/strings.h"
#include "ldap/ldif.h"
#include "storage/record_codec.h"

namespace metacomm::storage {

namespace {

void AppendUint(uint64_t value, std::string* out) {
  char buf[20];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // Cannot fail: the buffer fits any uint64.
  out->append(buf, end);
}

/// Renders `dn` escaped into `out`, reusing `scratch` for the unescaped
/// text. EncodeChange runs on every committed write (under the
/// backend's group-commit path), so it avoids per-DN temporaries.
void AppendEscapedDn(const ldap::Dn& dn, std::string* scratch,
                     std::string* out) {
  scratch->clear();
  dn.AppendTo(scratch);
  AppendEscapedToken(*scratch, out);
}

StatusOr<ldap::UpdateOp> ParseUpdateOp(std::string_view name) {
  if (EqualsIgnoreCase(name, "add")) return ldap::UpdateOp::kAdd;
  if (EqualsIgnoreCase(name, "modify")) return ldap::UpdateOp::kModify;
  if (EqualsIgnoreCase(name, "delete")) return ldap::UpdateOp::kDelete;
  if (EqualsIgnoreCase(name, "modifyrdn")) {
    return ldap::UpdateOp::kModifyRdn;
  }
  return Status::InvalidArgument("unknown wal op '" + std::string(name) +
                                 "'");
}

StatusOr<lexpress::DescriptorOp> ParseDescriptorOp(std::string_view name) {
  if (EqualsIgnoreCase(name, "add")) return lexpress::DescriptorOp::kAdd;
  if (EqualsIgnoreCase(name, "modify")) {
    return lexpress::DescriptorOp::kModify;
  }
  if (EqualsIgnoreCase(name, "delete")) {
    return lexpress::DescriptorOp::kDelete;
  }
  return Status::InvalidArgument("unknown intent op '" +
                                 std::string(name) + "'");
}

StatusOr<uint64_t> ParseField(std::string_view text,
                              const std::string& what) {
  std::optional<uint64_t> value = ParseUint64(text);
  if (!value.has_value()) {
    return Status::InvalidArgument("bad " + what + " '" +
                                   std::string(text) + "' in wal record");
  }
  return *value;
}

StatusOr<WalRecord> DecodeChangePayload(
    const std::vector<std::string>& fields, std::string_view rest) {
  if (fields.size() < 4) {
    return Status::InvalidArgument("short change header in wal record");
  }
  WalRecord record;
  record.type = WalRecord::Type::kChange;
  METACOMM_ASSIGN_OR_RETURN(record.change.sequence,
                            ParseField(fields[1], "sequence"));
  METACOMM_ASSIGN_OR_RETURN(record.change.op, ParseUpdateOp(fields[2]));
  METACOMM_ASSIGN_OR_RETURN(std::string dn_text, UnescapeToken(fields[3]));
  METACOMM_ASSIGN_OR_RETURN(record.change.dn, ldap::Dn::Parse(dn_text));
  if (fields.size() > 4) {
    METACOMM_ASSIGN_OR_RETURN(std::string new_dn_text,
                              UnescapeToken(fields[4]));
    METACOMM_ASSIGN_OR_RETURN(ldap::Dn new_dn,
                              ldap::Dn::Parse(new_dn_text));
    record.change.new_dn = std::move(new_dn);
  }
  if (record.change.op != ldap::UpdateOp::kDelete) {
    METACOMM_ASSIGN_OR_RETURN(std::vector<ldap::LdifRecord> parsed,
                              ldap::ParseLdif(rest));
    if (parsed.size() != 1 || parsed[0].op != ldap::UpdateOp::kAdd) {
      return Status::InvalidArgument(
          "wal change record must embed exactly one LDIF content record");
    }
    record.change.entry = std::move(parsed[0].entry);
  }
  return record;
}

StatusOr<WalRecord> DecodeIntentPayload(
    const std::vector<std::string>& fields,
    const std::vector<std::string>& lines) {
  if (fields.size() < 6) {
    return Status::InvalidArgument("short intent header in wal record");
  }
  WalRecord record;
  record.type = WalRecord::Type::kIntent;
  METACOMM_ASSIGN_OR_RETURN(record.intent.id,
                            ParseField(fields[1], "intent id"));
  lexpress::UpdateDescriptor& update = record.intent.update;
  METACOMM_ASSIGN_OR_RETURN(update.op, ParseDescriptorOp(fields[2]));
  METACOMM_ASSIGN_OR_RETURN(update.schema, UnescapeToken(fields[3]));
  METACOMM_ASSIGN_OR_RETURN(update.source, UnescapeToken(fields[4]));
  update.conditional = fields[5] == "1";
  std::vector<std::string> old_lines;
  std::vector<std::string> new_lines;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.size() < 2 || line[1] != ' ') {
      return Status::InvalidArgument("bad intent body line: " + line);
    }
    std::string body = line.substr(2);
    switch (line[0]) {
      case 'X': {
        METACOMM_ASSIGN_OR_RETURN(std::string attr, UnescapeToken(body));
        update.explicit_attrs.insert(std::move(attr));
        break;
      }
      case 'O':
        old_lines.push_back(std::move(body));
        break;
      case 'N':
        new_lines.push_back(std::move(body));
        break;
      default:
        return Status::InvalidArgument("bad intent body line: " + line);
    }
  }
  METACOMM_RETURN_IF_ERROR(
      DecodeRecordImage(old_lines, update.schema, &update.old_record));
  METACOMM_RETURN_IF_ERROR(
      DecodeRecordImage(new_lines, update.schema, &update.new_record));
  return record;
}

}  // namespace

std::string EncodeChange(const ldap::ChangeRecord& record) {
  std::string payload;
  payload.reserve(192);  // Header + a typical entry image, one alloc.
  std::string scratch;   // DN render buffer; short DNs stay in SSO.
  payload += "C ";
  AppendUint(record.sequence, &payload);
  payload.push_back(' ');
  payload += ldap::UpdateOpName(record.op);
  payload.push_back(' ');
  AppendEscapedDn(record.dn, &scratch, &payload);
  if (record.new_dn.has_value()) {
    payload.push_back(' ');
    AppendEscapedDn(*record.new_dn, &scratch, &payload);
  }
  payload.push_back('\n');
  if (record.op != ldap::UpdateOp::kDelete &&
      record.new_entry.has_value()) {
    ldap::AppendLdif(*record.new_entry, &payload);
  }
  return payload;
}

std::string EncodeIntent(uint64_t id,
                         const lexpress::UpdateDescriptor& update) {
  std::string payload = "I ";
  AppendUint(id, &payload);
  payload.push_back(' ');
  payload += lexpress::DescriptorOpName(update.op);
  payload.push_back(' ');
  AppendEscapedToken(update.schema, &payload);
  payload.push_back(' ');
  AppendEscapedToken(update.source, &payload);
  payload += update.conditional ? " 1\n" : " 0\n";
  for (const std::string& attr : update.explicit_attrs) {
    payload += "X ";
    AppendEscapedToken(attr, &payload);
    payload.push_back('\n');
  }
  for (const std::string& line : EncodeRecordImage(update.old_record)) {
    payload += "O ";
    payload += line;
    payload.push_back('\n');
  }
  for (const std::string& line : EncodeRecordImage(update.new_record)) {
    payload += "N ";
    payload += line;
    payload.push_back('\n');
  }
  return payload;
}

std::string EncodeResolve(uint64_t id) {
  std::string payload = "R ";
  AppendUint(id, &payload);
  payload.push_back('\n');
  return payload;
}

StatusOr<WalRecord> DecodeWalRecord(std::string_view payload) {
  size_t newline = payload.find('\n');
  std::string_view head =
      newline == std::string_view::npos ? payload : payload.substr(0, newline);
  std::string_view rest =
      newline == std::string_view::npos ? std::string_view()
                                        : payload.substr(newline + 1);
  std::vector<std::string> fields = Split(head, ' ');
  if (fields.empty() || fields[0].size() != 1) {
    return Status::InvalidArgument("unrecognized wal record header");
  }
  switch (fields[0][0]) {
    case 'C':
      return DecodeChangePayload(fields, rest);
    case 'I': {
      std::vector<std::string> lines = Split(payload, '\n');
      while (!lines.empty() && lines.back().empty()) lines.pop_back();
      return DecodeIntentPayload(fields, lines);
    }
    case 'R': {
      if (fields.size() < 2) {
        return Status::InvalidArgument("short resolve record");
      }
      WalRecord record;
      record.type = WalRecord::Type::kResolve;
      METACOMM_ASSIGN_OR_RETURN(record.resolve_id,
                                ParseField(fields[1], "intent id"));
      return record;
    }
    default:
      return Status::InvalidArgument("unrecognized wal record type '" +
                                     fields[0] + "'");
  }
}

namespace {

/// Forces the entry at `image.dn()` to equal `image` (the entry is
/// known to exist): replace every image attribute, delete every
/// current attribute the image lacks.
Status ForceEntryToImage(ldap::Backend* backend,
                         const ldap::Entry& image) {
  METACOMM_ASSIGN_OR_RETURN(ldap::Entry current,
                            backend->Get(image.dn()));
  std::vector<ldap::Modification> mods;
  for (const auto& [name, attribute] : image.attributes()) {
    ldap::Modification mod;
    mod.type = ldap::Modification::Type::kReplace;
    mod.attribute = name;
    mod.values = attribute.values();
    mods.push_back(std::move(mod));
  }
  for (const auto& [name, attribute] : current.attributes()) {
    (void)attribute;
    if (image.Has(name)) continue;
    ldap::Modification mod;
    mod.type = ldap::Modification::Type::kReplace;
    mod.attribute = name;
    mods.push_back(std::move(mod));  // Empty replace removes it.
  }
  if (mods.empty()) return Status::Ok();
  Status status = backend->Modify(image.dn(), mods);
  // Replaying a change that is already reflected can look like a
  // no-op touching RDN attributes; equality means we are converged.
  if (!status.ok()) {
    METACOMM_ASSIGN_OR_RETURN(ldap::Entry after,
                              backend->Get(image.dn()));
    if (after == image) return Status::Ok();
  }
  return status;
}

Status UpsertEntry(ldap::Backend* backend, const ldap::Entry& image) {
  Status added = backend->Add(image);
  if (added.code() != StatusCode::kAlreadyExists) return added;
  return ForceEntryToImage(backend, image);
}

/// True when the renamed `image` lacks a value of `old_rdn`: the
/// logged rename deleted the old RDN.
bool DeletedOldRdn(const ldap::Entry& image, const ldap::Rdn& old_rdn) {
  for (const ldap::Ava& ava : old_rdn.avas()) {
    auto it = image.attributes().find(ava.attribute);
    if (it == image.attributes().end() || !it->second.HasValue(ava.value)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status ApplyChange(ldap::Backend* backend, const WalChange& change) {
  switch (change.op) {
    case ldap::UpdateOp::kAdd:
    case ldap::UpdateOp::kModify: {
      if (!change.entry.has_value()) {
        return Status::InvalidArgument(
            "wal change without a post-state image");
      }
      return UpsertEntry(backend, *change.entry);
    }
    case ldap::UpdateOp::kDelete: {
      Status status = backend->Delete(change.dn);
      if (status.code() == StatusCode::kNotFound) return Status::Ok();
      return status;
    }
    case ldap::UpdateOp::kModifyRdn: {
      if (!change.entry.has_value() || !change.new_dn.has_value()) {
        return Status::InvalidArgument(
            "wal rename without image or target dn");
      }
      // Rename through ModifyRdn, which moves the entry's children
      // with it (Delete refuses a non-leaf), unless the old DN is
      // already gone. Then upsert the logged image.
      if (!(change.dn == *change.new_dn) && backend->Exists(change.dn)) {
        METACOMM_RETURN_IF_ERROR(backend->ModifyRdn(
            change.dn, change.new_dn->leaf(),
            DeletedOldRdn(*change.entry, change.dn.leaf())));
      }
      return UpsertEntry(backend, *change.entry);
    }
  }
  return Status::Internal("unhandled wal change op");
}

}  // namespace metacomm::storage
