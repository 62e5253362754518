#ifndef METACOMM_CORE_METACOMM_H_
#define METACOMM_CORE_METACOMM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/device_filter.h"
#include "core/ldap_filter.h"
#include "core/mapping_gen.h"
#include "core/update_manager.h"
#include "devices/definity_pbx.h"
#include "devices/messaging_platform.h"
#include "ldap/client.h"
#include "ldap/server.h"
#include "ltap/gateway.h"
#include "storage/durability.h"

namespace metacomm::core {

/// Deployment-level configuration of a MetaComm instance.
struct SystemConfig {
  /// Directory suffix and the standard containers beneath it.
  std::string suffix = "o=Lucent";
  std::string people_base = "ou=People,o=Lucent";
  std::string errors_base = "cn=errors,o=Lucent";

  /// PBXs to instantiate. Default: the paper's single Definity
  /// ("pbx1", any extension, numbers under +1 908 582).
  std::vector<PbxMappingParams> pbxs = {PbxMappingParams{}};
  /// Messaging platforms to instantiate. Default: one platform "mp1".
  std::vector<MpMappingParams> mps = {MpMappingParams{}};

  /// Emulated per-conversation round-trip latency of every device's
  /// administrative link (devices::LatencyEmulator). Zero (the default)
  /// keeps the simulators instantaneous; benches set it to model the
  /// slow proprietary interfaces the paper's devices sit behind.
  int64_t device_command_rtt_micros = 0;

  /// Update Manager settings (threading, ablations, extensions).
  UpdateManagerConfig um;
  /// Gateway settings (lock/quiesce timeouts, ablations).
  ltap::GatewayConfig gateway;
  /// Durability settings. With a data_dir set, Create() recovers the
  /// directory from the newest checkpoint + WAL suffix, journals every
  /// commit write-ahead, intent-logs device updates, replays the
  /// previous process's unsettled intents, and checkpoints in the
  /// background. Empty data_dir (the default) keeps the system purely
  /// in-memory, exactly as before.
  storage::DurabilityConfig durability;
};

/// A fully assembled MetaComm deployment (paper Figure 1): LDAP server
/// behind an LTAP gateway, one filter per device, and the Update
/// Manager wiring them together. This is the top-level object the
/// examples and benchmarks instantiate.
///
/// Clients administer everything through LDAP against gateway() — "any
/// LDAP tool can contact LTAP to administer the telecom devices" (§4) —
/// while device administrators keep using each device's proprietary
/// command interface; MetaComm keeps both sides consistent.
class MetaCommSystem {
 public:
  /// Builds and wires a full deployment; creates the suffix entries
  /// and installs the UM trigger. Fails if the generated mappings do
  /// not validate.
  static StatusOr<std::unique_ptr<MetaCommSystem>> Create(
      SystemConfig config);

  ~MetaCommSystem();

  /// The service clients should talk to (the LTAP gateway).
  ltap::LtapGateway& gateway() { return *gateway_; }

  /// The raw directory server (reads bypassing the gateway, tests).
  ldap::LdapServer& server() { return *server_; }

  UpdateManager& update_manager() { return *um_; }
  LdapFilter& ldap_filter() { return *ldap_filter_; }

  /// DN of the read-only cn=monitor subtree: browse it via LDAP (it is
  /// rendered from the live counters on every read, see monitor.h).
  const ldap::Dn& monitor_base() const { return monitor_base_; }

  /// The durability subsystem; nullptr when no data_dir is configured.
  storage::DurabilityManager* durability() { return durability_.get(); }

  /// What recovery found at Create() time (zeros without durability).
  const storage::DurabilityManager::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  /// Device updates the previous process acknowledged but had not
  /// applied, re-submitted during Create().
  size_t replayed_intents() const { return replayed_intents_; }

  /// Devices by name; nullptr when unknown.
  devices::DefinityPbx* pbx(const std::string& name);
  devices::MessagingPlatform* mp(const std::string& name);
  DeviceFilter* filter(const std::string& name);

  /// A new LDAP client session against the gateway (what the WBA and
  /// other tools use). Each client gets its own LTAP session id.
  ldap::Client NewClient();

  /// Convenience: adds a person entry (inetOrgPerson under
  /// people_base) through the gateway, triggering full propagation.
  Status AddPerson(const std::string& cn,
                   const std::vector<std::pair<std::string, std::string>>&
                       extra_attrs = {});

  const SystemConfig& config() const { return config_; }

 private:
  explicit MetaCommSystem(SystemConfig config);
  Status Init();

  SystemConfig config_;
  ldap::Schema schema_;
  std::unique_ptr<ldap::LdapServer> server_;
  /// Declared after server_ (journal callbacks reference it while the
  /// backend runs); the destructor clears the backend journal before
  /// either goes away.
  std::unique_ptr<storage::DurabilityManager> durability_;
  storage::DurabilityManager::RecoveryStats recovery_stats_;
  size_t replayed_intents_ = 0;
  std::unique_ptr<ltap::LtapGateway> gateway_;
  std::unique_ptr<LdapFilter> ldap_filter_;
  std::vector<std::unique_ptr<devices::DefinityPbx>> pbxs_;
  std::vector<std::unique_ptr<devices::MessagingPlatform>> mps_;
  std::vector<std::unique_ptr<DeviceFilter>> filters_;
  std::unique_ptr<UpdateManager> um_;
  ldap::Dn monitor_base_;
};

}  // namespace metacomm::core

#endif  // METACOMM_CORE_METACOMM_H_
