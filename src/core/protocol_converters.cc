#include "core/protocol_converters.h"

#include "common/strings.h"

namespace metacomm::core {

namespace {

/// Runs a display command and parses its "Field<separator>value" lines
/// into a record; a record the device does not hold is nullopt.
StatusOr<std::optional<lexpress::Record>> Show(devices::Device* device,
                                               const std::string& command,
                                               char separator) {
  StatusOr<std::string> reply = device->ExecuteCommand(command);
  if (!reply.ok()) {
    if (reply.status().code() == StatusCode::kNotFound) {
      return std::optional<lexpress::Record>();
    }
    return reply.status();
  }
  lexpress::Record record(device->schema());
  for (const std::string& line : Split(*reply, '\n')) {
    size_t at = line.find(separator);
    if (at == std::string::npos) continue;
    std::string field = Trim(line.substr(0, at));
    std::string value = Trim(line.substr(at + 1));
    if (!field.empty() && !value.empty()) record.SetOne(field, value);
  }
  return std::optional<lexpress::Record>(std::move(record));
}

/// Every record: runs the listing command, whose lines each start with
/// a record's key, then fetches each listed record through `converter`.
StatusOr<std::vector<lexpress::Record>> ListThenGet(
    devices::Device* device, const std::string& list_command,
    ProtocolConverter& converter) {
  METACOMM_ASSIGN_OR_RETURN(std::string listing,
                            device->ExecuteCommand(list_command));
  std::vector<lexpress::Record> out;
  for (const std::string& line : Split(listing, '\n')) {
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    METACOMM_ASSIGN_OR_RETURN(std::optional<lexpress::Record> record,
                              converter.Get(Split(trimmed, ' ').front()));
    if (record.has_value()) out.push_back(std::move(*record));
  }
  return out;
}

}  // namespace

std::string PbxProtocolConverter::RenderFields(
    const lexpress::Record& record) {
  std::string out;
  for (const auto& [field, value] : record.attrs()) {
    if (EqualsIgnoreCase(field, "Extension")) continue;
    if (value.empty()) continue;
    out += " " + field + " ";
    const std::string& v = value.front();
    if (v.find(' ') != std::string::npos) {
      out += "\"" + v + "\"";
    } else {
      out += v;
    }
  }
  return out;
}

StatusOr<std::optional<lexpress::Record>> PbxProtocolConverter::Get(
    const std::string& key) {
  return Show(device_, "display station " + key, ':');
}

Status PbxProtocolConverter::Add(const lexpress::Record& record) {
  std::string command = "add station " + record.GetFirst("Extension") +
                        RenderFields(record);
  return device_->ExecuteCommand(command).status();
}

Status PbxProtocolConverter::Modify(const std::string& key,
                                    const lexpress::Record& record) {
  std::string command = "change station " + key + RenderFields(record);
  // Modify carries the full desired image: fields the station holds
  // but the image lacks are cleared (empty quoted value).
  METACOMM_ASSIGN_OR_RETURN(std::optional<lexpress::Record> current,
                            Get(key));
  if (current.has_value()) {
    for (const auto& [field, value] : current->attrs()) {
      if (EqualsIgnoreCase(field, "Extension")) continue;
      if (!record.Has(field)) command += " " + field + " \"\"";
    }
  }
  // A key change rides along as an explicit Extension field.
  std::string new_key = record.GetFirst("Extension");
  if (!new_key.empty() && new_key != key) {
    command += " Extension " + new_key;
  }
  return device_->ExecuteCommand(command).status();
}

Status PbxProtocolConverter::Delete(const std::string& key) {
  return device_->ExecuteCommand("remove station " + key).status();
}

StatusOr<std::vector<lexpress::Record>> PbxProtocolConverter::DumpAll() {
  return ListThenGet(device_, "list station", *this);
}

std::string MpProtocolConverter::RenderAssignments(
    const lexpress::Record& record) {
  std::string out;
  for (const auto& [field, value] : record.attrs()) {
    if (EqualsIgnoreCase(field, "MailboxNumber")) continue;
    if (EqualsIgnoreCase(field, "SubscriberId")) continue;  // Generated.
    if (value.empty()) continue;
    const std::string& v = value.front();
    out += " " + field + "=";
    if (v.find(' ') != std::string::npos) {
      out += "\"" + v + "\"";
    } else {
      out += v;
    }
  }
  return out;
}

StatusOr<std::optional<lexpress::Record>> MpProtocolConverter::Get(
    const std::string& key) {
  return Show(device_, "SHOW MAILBOX " + key, '=');
}

Status MpProtocolConverter::Add(const lexpress::Record& record) {
  std::string command = "ADD MAILBOX " + record.GetFirst("MailboxNumber") +
                        RenderAssignments(record);
  return device_->ExecuteCommand(command).status();
}

Status MpProtocolConverter::Modify(const std::string& key,
                                   const lexpress::Record& record) {
  std::string command = "MODIFY MAILBOX " + key +
                        RenderAssignments(record);
  METACOMM_ASSIGN_OR_RETURN(std::optional<lexpress::Record> current,
                            Get(key));
  if (current.has_value()) {
    for (const auto& [field, value] : current->attrs()) {
      if (EqualsIgnoreCase(field, "MailboxNumber") ||
          EqualsIgnoreCase(field, "SubscriberId")) {
        continue;
      }
      if (!record.Has(field)) command += " " + field + "=\"\"";
    }
  }
  std::string new_key = record.GetFirst("MailboxNumber");
  if (!new_key.empty() && new_key != key) {
    command += " MailboxNumber=" + new_key;
  }
  return device_->ExecuteCommand(command).status();
}

Status MpProtocolConverter::Delete(const std::string& key) {
  return device_->ExecuteCommand("DELETE MAILBOX " + key).status();
}

StatusOr<std::vector<lexpress::Record>> MpProtocolConverter::DumpAll() {
  return ListThenGet(device_, "LIST MAILBOXES", *this);
}

}  // namespace metacomm::core
