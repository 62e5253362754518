#include "devices/messaging_platform.h"

#include <cstdio>

#include "common/strings.h"

namespace metacomm::devices {

namespace {

const char* const kMailboxFields[] = {"SubscriberName", "Pin", "Greeting",
                                      "EmailAddress"};

bool IsMailboxField(std::string_view field) {
  for (const char* known : kMailboxFields) {
    if (EqualsIgnoreCase(field, known)) return true;
  }
  return false;
}

/// Parses `Key="quoted value"` / `Key=value` assignments after the
/// first `skip` words of a command line.
StatusOr<lexpress::Record> ParseAssignments(const std::string& command,
                                            size_t start_pos,
                                            const std::string& schema) {
  lexpress::Record record(schema);
  size_t i = start_pos;
  while (i < command.size()) {
    while (i < command.size() && command[i] == ' ') ++i;
    if (i >= command.size()) break;
    size_t eq = command.find('=', i);
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected Key=value at: " +
                                     command.substr(i));
    }
    std::string key = Trim(command.substr(i, eq - i));
    std::string value;
    i = eq + 1;
    if (i < command.size() && command[i] == '"') {
      ++i;
      size_t close = command.find('"', i);
      if (close == std::string::npos) {
        return Status::InvalidArgument("unterminated quoted value");
      }
      value = command.substr(i, close - i);
      i = close + 1;
    } else {
      size_t end = command.find(' ', i);
      if (end == std::string::npos) end = command.size();
      value = command.substr(i, end - i);
      i = end;
    }
    record.SetOne(key, value);
  }
  return record;
}

}  // namespace

MessagingPlatform::MessagingPlatform(MpConfig config)
    : Device(config.name, "mp", "MailboxNumber", "SubscriberId",
             config.command_rtt_micros),
      config_(std::move(config)) {}

Status MessagingPlatform::Validate(const lexpress::Record& record) const {
  std::string number = record.GetFirst("MailboxNumber");
  if (number.empty() || !IsAllDigits(number)) {
    return Status::InvalidArgument(config_.name +
                                   ": MailboxNumber must be digits");
  }
  if (record.GetFirst("SubscriberName").empty()) {
    return Status::InvalidArgument(config_.name +
                                   ": mailbox requires SubscriberName");
  }
  std::string pin = record.GetFirst("Pin");
  if (!pin.empty() && (!IsAllDigits(pin) || pin.size() < 4)) {
    return Status::InvalidArgument(config_.name +
                                   ": Pin must be at least 4 digits");
  }
  for (const auto& [field, value] : record.attrs()) {
    if (EqualsIgnoreCase(field, "MailboxNumber") ||
        EqualsIgnoreCase(field, "SubscriberId") ||
        IsMailboxField(field)) {
      continue;
    }
    return Status::InvalidArgument(config_.name + ": unknown field '" +
                                   field + "'");
  }
  return Status::Ok();
}

void MessagingPlatform::OnAdd(lexpress::Record* record) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06llu",
                config_.subscriber_id_prefix.c_str(),
                static_cast<unsigned long long>(next_subscriber_++));
  record->SetOne("SubscriberId", buf);
}

StatusOr<std::string> MessagingPlatform::ExecuteCommand(
    const std::string& command) {
  // One command = one administrative round-trip; the typed operations
  // the command dispatches to below ride this session for free.
  LatencyEmulator::SessionScope rtt_session(&latency());
  std::string trimmed = Trim(command);
  std::vector<std::string> head = Split(trimmed, ' ');
  if (head.size() < 2) {
    return Status::InvalidArgument(config_.name + ": bad command");
  }
  const std::string& verb = head[0];

  if (EqualsIgnoreCase(verb, "LIST")) {
    METACOMM_ASSIGN_OR_RETURN(std::vector<lexpress::Record> mailboxes,
                              DumpAll());
    std::string out;
    for (const lexpress::Record& record : mailboxes) {
      out += record.GetFirst("MailboxNumber") + " " +
             record.GetFirst("SubscriberId") + " " +
             record.GetFirst("SubscriberName") + "\n";
    }
    return out;
  }

  if (!EqualsIgnoreCase(head[1], "MAILBOX") || head.size() < 3) {
    return Status::InvalidArgument(
        config_.name + ": usage: <ADD|MODIFY|DELETE|SHOW> MAILBOX <num>");
  }
  const std::string& number = head[2];

  // Offset of the text after "<VERB> MAILBOX <num>".
  size_t after = verb.size() + 1 + head[1].size() + 1 + number.size();

  if (EqualsIgnoreCase(verb, "SHOW")) {
    METACOMM_ASSIGN_OR_RETURN(lexpress::Record record, GetRecord(number));
    std::string out;
    for (const auto& [field, value] : record.attrs()) {
      out += field + "=" + (value.empty() ? "" : value.front()) + "\n";
    }
    return out;
  }
  if (EqualsIgnoreCase(verb, "DELETE")) {
    METACOMM_RETURN_IF_ERROR(DeleteRecord(number));
    return std::string("OK");
  }

  METACOMM_ASSIGN_OR_RETURN(
      lexpress::Record record,
      ParseAssignments(trimmed, std::min(after, trimmed.size()), schema()));
  // The addressed mailbox is the record's number unless the command
  // explicitly renumbers it (MODIFY ... MailboxNumber=<new>).
  if (record.GetFirst("MailboxNumber").empty()) {
    record.SetOne("MailboxNumber", number);
  }

  // An assignment with an empty value ("Greeting=") clears the field.
  std::vector<std::string> clears;
  std::vector<std::string> to_remove;
  for (const auto& [field, value] : record.attrs()) {
    if (!value.empty() && value.front().empty()) {
      clears.push_back(field);
      to_remove.push_back(field);
    }
  }
  for (const std::string& field : to_remove) record.Remove(field);

  if (EqualsIgnoreCase(verb, "ADD")) {
    METACOMM_RETURN_IF_ERROR(AddRecord(record));
    // Reply carries the generated id, like the real platform's
    // confirmation screen.
    METACOMM_ASSIGN_OR_RETURN(lexpress::Record stored, GetRecord(number));
    return "OK SubscriberId=" + stored.GetFirst("SubscriberId");
  }
  if (EqualsIgnoreCase(verb, "MODIFY")) {
    METACOMM_RETURN_IF_ERROR(ModifyRecord(number, record, clears));
    return std::string("OK");
  }
  return Status::InvalidArgument(config_.name + ": unknown verb '" + verb +
                                 "'");
}

}  // namespace metacomm::devices
