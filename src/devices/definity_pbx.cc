#include "devices/definity_pbx.h"

#include <algorithm>

#include "common/strings.h"

namespace metacomm::devices {

namespace {

/// Station fields the switch understands, beyond the Extension key.
const char* const kStationFields[] = {"Name",         "Room", "Cos",
                                      "CoveragePath", "SetType", "Port"};

bool IsStationField(std::string_view field) {
  for (const char* known : kStationFields) {
    if (EqualsIgnoreCase(field, known)) return true;
  }
  return false;
}

/// Splits an OSSI command line into words; double quotes group words.
StatusOr<std::vector<std::string>> TokenizeCommand(
    const std::string& command) {
  std::vector<std::string> words;
  std::string current;
  bool in_quotes = false;
  bool have_word = false;
  for (char c : command) {
    if (c == '"') {
      in_quotes = !in_quotes;
      have_word = true;
      continue;
    }
    if (!in_quotes && (c == ' ' || c == '\t')) {
      if (have_word) {
        words.push_back(current);
        current.clear();
        have_word = false;
      }
      continue;
    }
    current.push_back(c);
    have_word = true;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unbalanced quotes in command");
  }
  if (have_word) words.push_back(current);
  return words;
}

}  // namespace

DefinityPbx::DefinityPbx(PbxConfig config)
    : Device(config.name, "pbx", "Extension", /*generated_field=*/"",
             config.command_rtt_micros),
      config_(std::move(config)) {}

bool DefinityPbx::AcceptsExtension(const std::string& extension) const {
  if (config_.extension_prefixes.empty()) return true;
  return std::any_of(config_.extension_prefixes.begin(),
                     config_.extension_prefixes.end(),
                     [&extension](const std::string& prefix) {
                       return StartsWith(extension, prefix);
                     });
}

Status DefinityPbx::Validate(const lexpress::Record& record) const {
  std::string extension = record.GetFirst("Extension");
  if (extension.empty()) {
    return Status::InvalidArgument(config_.name +
                                   ": station requires Extension");
  }
  if (!IsAllDigits(extension) || extension.size() < 3 ||
      extension.size() > 6) {
    return Status::InvalidArgument(config_.name + ": bad extension '" +
                                   extension + "' (3-6 digits)");
  }
  if (!AcceptsExtension(extension)) {
    return Status::InvalidArgument(config_.name + ": extension " +
                                   extension + " outside dial plan");
  }
  if (record.GetFirst("Name").empty()) {
    return Status::InvalidArgument(config_.name +
                                   ": station requires Name");
  }
  std::string cos = record.GetFirst("Cos");
  if (!cos.empty()) {
    if (!IsAllDigits(cos) || cos.size() > 1 || cos[0] > '7') {
      return Status::InvalidArgument(config_.name + ": bad Cos '" + cos +
                                     "' (0-7)");
    }
  }
  for (const auto& [field, value] : record.attrs()) {
    if (!EqualsIgnoreCase(field, "Extension") && !IsStationField(field)) {
      return Status::InvalidArgument(config_.name + ": unknown field '" +
                                     field + "'");
    }
    if (value.size() > 1) {
      return Status::InvalidArgument(config_.name + ": field '" + field +
                                     "' cannot hold multiple values");
    }
  }
  return Status::Ok();
}

void DefinityPbx::OnAdd(lexpress::Record* record) {
  if (record->GetFirst("Cos").empty()) record->SetOne("Cos", "1");
}

StatusOr<std::string> DefinityPbx::ExecuteCommand(
    const std::string& command) {
  // One command = one administrative round-trip; the typed operations
  // the command dispatches to below ride this session for free.
  LatencyEmulator::SessionScope rtt_session(&latency());
  METACOMM_ASSIGN_OR_RETURN(std::vector<std::string> words,
                            TokenizeCommand(command));
  if (words.empty()) {
    return Status::InvalidArgument(config_.name + ": empty command");
  }
  const std::string& verb = words[0];

  if (EqualsIgnoreCase(verb, "list")) {
    if (words.size() < 2 || !EqualsIgnoreCase(words[1], "station")) {
      return Status::InvalidArgument(config_.name + ": usage: list station");
    }
    METACOMM_ASSIGN_OR_RETURN(std::vector<lexpress::Record> stations,
                              DumpAll());
    std::string out;
    for (const lexpress::Record& record : stations) {
      out += record.GetFirst("Extension") + " " + record.GetFirst("Name") +
             "\n";
    }
    return out;
  }

  if (words.size() < 3 || !EqualsIgnoreCase(words[1], "station")) {
    return Status::InvalidArgument(
        config_.name + ": usage: <add|change|remove|display> station <ext>");
  }
  const std::string& extension = words[2];

  if (EqualsIgnoreCase(verb, "display")) {
    METACOMM_ASSIGN_OR_RETURN(lexpress::Record record,
                              GetRecord(extension));
    std::string out;
    for (const auto& [field, value] : record.attrs()) {
      out += field + ": " + (value.empty() ? "" : value.front()) + "\n";
    }
    return out;
  }

  if (EqualsIgnoreCase(verb, "remove")) {
    METACOMM_RETURN_IF_ERROR(DeleteRecord(extension));
    return std::string("command successfully completed");
  }

  // add / change take "Field value" pairs; an empty quoted value
  // ("") on change clears the field.
  lexpress::Record record(schema());
  record.SetOne("Extension", extension);
  std::vector<std::string> clears;
  for (size_t i = 3; i + 1 < words.size(); i += 2) {
    if (words[i + 1].empty()) {
      clears.push_back(words[i]);
    } else {
      record.SetOne(words[i], words[i + 1]);
    }
  }
  if ((words.size() - 3) % 2 != 0) {
    return Status::InvalidArgument(config_.name +
                                   ": field without value in command");
  }

  if (EqualsIgnoreCase(verb, "add")) {
    METACOMM_RETURN_IF_ERROR(AddRecord(record));
    return std::string("command successfully completed");
  }
  if (EqualsIgnoreCase(verb, "change")) {
    METACOMM_RETURN_IF_ERROR(ModifyRecord(extension, record, clears));
    return std::string("command successfully completed");
  }
  return Status::InvalidArgument(config_.name + ": unknown command verb '" +
                                 verb + "'");
}

}  // namespace metacomm::devices
