// Web-Based Administration stand-in: a scriptable console that offers
// the "single point of administration for the telecom devices" of
// paper Figure 1. Every command is an ordinary LDAP operation against
// the LTAP gateway — "any LDAP tool can contact LTAP to administer the
// telecom devices" (§4).
//
// Commands (read from stdin, or run the built-in demo with no input):
//   add <cn> ; <extension> [; <room>]      provision a person
//   set <cn> ; <attr> ; <value>            modify one attribute
//   rename <cn> ; <new cn>                 rename (ModifyRDN path)
//   del <cn>                               deprovision
//   show <cn>                              display the entry
//   search <filter>                        subtree search under People
//   station <extension>                    ask the PBX directly
//   mailbox <number>                       ask the MP directly
//   sync <device>                          resynchronize a device
//   errors                                 show the error log
//   monitor                                show cn=monitor statistics
//   quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/metacomm.h"

using metacomm::Status;
using metacomm::core::MetaCommSystem;
using metacomm::core::SystemConfig;

namespace {

/// Splits "a ; b ; c" into trimmed fields.
std::vector<std::string> Fields(const std::string& rest) {
  return metacomm::SplitAndTrim(rest, ';');
}

class Console {
 public:
  explicit Console(MetaCommSystem& system)
      : system_(system), client_(system.NewClient()) {}

  bool Execute(const std::string& line) {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    std::string rest;
    std::getline(in, rest);
    rest = metacomm::Trim(rest);

    if (verb.empty() || verb[0] == '#') return true;
    if (verb == "quit" || verb == "exit") return false;

    Status status = Dispatch(verb, rest);
    if (!status.ok()) std::printf("! %s\n", status.ToString().c_str());
    return true;
  }

 private:
  std::string DnOf(const std::string& cn) {
    return "cn=" + cn + ",ou=People,o=Lucent";
  }

  Status Dispatch(const std::string& verb, const std::string& rest) {
    if (verb == "add") {
      std::vector<std::string> f = Fields(rest);
      if (f.size() < 2) return Status::InvalidArgument("add <cn> ; <ext>");
      std::vector<std::pair<std::string, std::string>> attrs = {
          {"telephoneNumber", "+1 908 582 " + f[1]}};
      if (f.size() > 2 && !f[2].empty()) {
        attrs.emplace_back("roomNumber", f[2]);
      }
      METACOMM_RETURN_IF_ERROR(system_.AddPerson(f[0], attrs));
      std::printf("provisioned %s on extension %s\n", f[0].c_str(),
                  f[1].c_str());
      return Status::Ok();
    }
    if (verb == "set") {
      std::vector<std::string> f = Fields(rest);
      if (f.size() != 3) {
        return Status::InvalidArgument("set <cn> ; <attr> ; <value>");
      }
      return client_.Replace(DnOf(f[0]), f[1], f[2]);
    }
    if (verb == "rename") {
      std::vector<std::string> f = Fields(rest);
      if (f.size() != 2) {
        return Status::InvalidArgument("rename <cn> ; <new cn>");
      }
      return client_.ModifyRdn(DnOf(f[0]), "cn=" + f[1]);
    }
    if (verb == "del") {
      return client_.Delete(DnOf(metacomm::Trim(rest)));
    }
    if (verb == "show") {
      METACOMM_ASSIGN_OR_RETURN(metacomm::ldap::Entry entry,
                                client_.Get(DnOf(metacomm::Trim(rest))));
      std::printf("%s", entry.ToString().c_str());
      return Status::Ok();
    }
    if (verb == "search") {
      METACOMM_ASSIGN_OR_RETURN(
          std::vector<metacomm::ldap::Entry> entries,
          client_.Search("ou=People,o=Lucent", rest));
      for (const metacomm::ldap::Entry& entry : entries) {
        std::printf("%s  (ext %s)\n", entry.dn().ToString().c_str(),
                    entry.GetFirst("DefinityExtension").c_str());
      }
      std::printf("%zu entries\n", entries.size());
      return Status::Ok();
    }
    if (verb == "station") {
      METACOMM_ASSIGN_OR_RETURN(
          std::string reply,
          system_.pbx("pbx1")->ExecuteCommand("display station " +
                                              metacomm::Trim(rest)));
      std::printf("%s", reply.c_str());
      return Status::Ok();
    }
    if (verb == "mailbox") {
      METACOMM_ASSIGN_OR_RETURN(
          std::string reply,
          system_.mp("mp1")->ExecuteCommand("SHOW MAILBOX " +
                                            metacomm::Trim(rest)));
      std::printf("%s", reply.c_str());
      return Status::Ok();
    }
    if (verb == "sync") {
      return system_.update_manager().Synchronize(metacomm::Trim(rest));
    }
    if (verb == "monitor") {
      METACOMM_ASSIGN_OR_RETURN(
          std::vector<metacomm::ldap::Entry> entries,
          client_.Search(system_.monitor_base().ToString(),
                         "(monitorInfo=*)"));
      for (const metacomm::ldap::Entry& entry : entries) {
        std::printf("%s:\n", entry.GetFirst("cn").c_str());
        for (const std::string& info : entry.GetAll("monitorInfo")) {
          std::printf("  %s\n", info.c_str());
        }
      }
      return Status::Ok();
    }
    if (verb == "errors") {
      METACOMM_ASSIGN_OR_RETURN(
          std::vector<metacomm::ldap::Entry> entries,
          client_.Search("cn=errors,o=Lucent",
                         "(objectClass=metacommError)"));
      for (const metacomm::ldap::Entry& entry : entries) {
        std::string text = entry.GetFirst("errorText");
        if (!text.empty()) {
          std::printf("%s: %s\n", entry.GetFirst("cn").c_str(),
                      text.c_str());
        }
      }
      return Status::Ok();
    }
    return Status::InvalidArgument("unknown command: " + verb);
  }

  MetaCommSystem& system_;
  metacomm::ldap::Client client_;
};

const char* kDemoScript[] = {
    "# demo: provision, inspect, administer, deprovision",
    "add John Doe ; 4567 ; 2C-401",
    "add Pat Smith ; 4568",
    "show John Doe",
    "station 4567",
    "mailbox 4567",
    "set John Doe ; roomNumber ; 3F-112",
    "station 4567",
    "rename Pat Smith ; Pat Smith-Jones",
    "search (DefinityExtension=*)",
    "del John Doe",
    "search (objectClass=person)",
    "errors",
    "monitor",
};

}  // namespace

int main(int argc, char** argv) {
  auto system_or = MetaCommSystem::Create(SystemConfig{});
  if (!system_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 system_or.status().ToString().c_str());
    return 1;
  }
  Console console(**system_or);

  bool interactive = argc > 1 && std::string(argv[1]) == "--stdin";
  if (!interactive) {
    for (const char* line : kDemoScript) {
      std::printf("wba> %s\n", line);
      console.Execute(line);
    }
    return 0;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!console.Execute(line)) break;
  }
  return 0;
}
