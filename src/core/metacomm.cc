#include "core/metacomm.h"

#include "core/integrated_schema.h"
#include "core/monitor.h"
#include "lexpress/mapping.h"

namespace metacomm::core {

MetaCommSystem::MetaCommSystem(SystemConfig config)
    : config_(std::move(config)), schema_(BuildIntegratedSchema()) {}

MetaCommSystem::~MetaCommSystem() {
  // Order matters: stop mutation sources (UM workers), then the
  // checkpointer, and only then unhook the journal — ClearJournal
  // requires mutations to have quiesced, and the journal lambdas
  // reference the durability manager.
  if (um_ != nullptr) um_->Stop();
  if (durability_ != nullptr) {
    durability_->Stop();
    server_->backend().ClearJournal();
  }
}

StatusOr<std::unique_ptr<MetaCommSystem>> MetaCommSystem::Create(
    SystemConfig config) {
  std::unique_ptr<MetaCommSystem> system(
      new MetaCommSystem(std::move(config)));
  METACOMM_RETURN_IF_ERROR(system->Init());
  return system;
}

Status MetaCommSystem::Init() {
  // Directory server + gateway.
  ldap::ServerConfig server_config;
  server_config.allow_anonymous_writes = true;  // §7: simple security.
  server_ = std::make_unique<ldap::LdapServer>(BuildIntegratedSchema(),
                                               server_config);
  gateway_ = std::make_unique<ltap::LtapGateway>(server_.get(),
                                                 config_.gateway);

  // Durability: recover the directory BEFORE anything writes to it,
  // and attach the journal BEFORE the container bootstrap below — on
  // a fresh data dir the suffix entries must hit the WAL, or a crash
  // before the first checkpoint would replay their children against a
  // missing parent.
  if (config_.durability.enabled()) {
    METACOMM_ASSIGN_OR_RETURN(
        durability_, storage::DurabilityManager::Open(config_.durability));
    METACOMM_ASSIGN_OR_RETURN(
        recovery_stats_, durability_->RecoverBackend(&server_->backend()));
    durability_->AttachBackend(&server_->backend());
  }

  // Bootstrap the suffix entries (written directly to the backend —
  // they exist before MetaComm starts).
  auto add_container = [this](const std::string& dn_text,
                              const std::string& object_class,
                              const std::string& naming_attr,
                              const std::string& naming_value) -> Status {
    METACOMM_ASSIGN_OR_RETURN(ldap::Dn dn, ldap::Dn::Parse(dn_text));
    ldap::Entry entry(std::move(dn));
    entry.AddObjectClass("top");
    entry.AddObjectClass(object_class);
    entry.SetOne(naming_attr, naming_value);
    Status status = server_->backend().Add(entry);
    if (status.code() == StatusCode::kAlreadyExists) return Status::Ok();
    return status;
  };
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn suffix, ldap::Dn::Parse(config_.suffix));
  {
    const ldap::Ava& ava = suffix.leaf().avas().front();
    std::string cls = EqualsIgnoreCase(ava.attribute, "ou")
                          ? "organizationalUnit"
                          : "organization";
    METACOMM_RETURN_IF_ERROR(
        add_container(config_.suffix, cls, ava.attribute, ava.value));
  }
  {
    METACOMM_ASSIGN_OR_RETURN(ldap::Dn people,
                              ldap::Dn::Parse(config_.people_base));
    const ldap::Ava& ava = people.leaf().avas().front();
    METACOMM_RETURN_IF_ERROR(add_container(
        config_.people_base, "organizationalUnit", ava.attribute,
        ava.value));
  }
  if (!config_.errors_base.empty()) {
    METACOMM_ASSIGN_OR_RETURN(ldap::Dn errors,
                              ldap::Dn::Parse(config_.errors_base));
    const ldap::Ava& ava = errors.leaf().avas().front();
    METACOMM_RETURN_IF_ERROR(add_container(
        config_.errors_base, kMetacommErrorClass, ava.attribute,
        ava.value));
  }

  // LDAP filter + Update Manager.
  LdapFilterConfig filter_config;
  filter_config.people_base = config_.people_base;
  ldap_filter_ =
      std::make_unique<LdapFilter>(gateway_.get(), filter_config);
  UpdateManagerConfig um_config = config_.um;
  um_config.error_base = config_.errors_base;
  um_ = std::make_unique<UpdateManager>(gateway_.get(), ldap_filter_.get(),
                                        um_config);
  if (durability_ != nullptr) um_->set_durability(durability_.get());

  // Devices and their filters.
  for (const PbxMappingParams& params : config_.pbxs) {
    devices::PbxConfig pbx_config;
    pbx_config.name = params.name;
    pbx_config.command_rtt_micros = config_.device_command_rtt_micros;
    if (!params.extension_prefix.empty()) {
      pbx_config.extension_prefixes = {params.extension_prefix};
    }
    auto pbx = std::make_unique<devices::DefinityPbx>(pbx_config);

    METACOMM_ASSIGN_OR_RETURN(
        std::vector<lexpress::Mapping> mappings,
        lexpress::CompileMappings(GeneratePbxMappings(params)));
    if (mappings.size() != 2) {
      return Status::Internal("expected a mapping pair for " + params.name);
    }
    auto filter = std::make_unique<DeviceFilter>(
        pbx.get(),
        std::make_unique<PbxProtocolConverter>(pbx.get()),
        std::move(mappings[0]), std::move(mappings[1]));
    um_->AddDeviceFilter(filter.get());
    pbxs_.push_back(std::move(pbx));
    filters_.push_back(std::move(filter));
  }
  for (const MpMappingParams& params : config_.mps) {
    devices::MpConfig mp_config;
    mp_config.name = params.name;
    mp_config.command_rtt_micros = config_.device_command_rtt_micros;
    auto mp = std::make_unique<devices::MessagingPlatform>(mp_config);

    METACOMM_ASSIGN_OR_RETURN(
        std::vector<lexpress::Mapping> mappings,
        lexpress::CompileMappings(GenerateMpMappings(params)));
    if (mappings.size() != 2) {
      return Status::Internal("expected a mapping pair for " + params.name);
    }
    auto filter = std::make_unique<DeviceFilter>(
        mp.get(), std::make_unique<MpProtocolConverter>(mp.get()),
        std::move(mappings[0]), std::move(mappings[1]));
    um_->AddDeviceFilter(filter.get());
    mps_.push_back(std::move(mp));
    filters_.push_back(std::move(filter));
  }

  METACOMM_RETURN_IF_ERROR(um_->ValidateMappings());
  METACOMM_RETURN_IF_ERROR(um_->InstallTrigger(config_.people_base));
  monitor_base_ = suffix.Child(ldap::Rdn("cn", "monitor"));
  server_->SetRenderedSubtree(monitor_base_, [this] {
    return RenderMonitor(monitor_base_, *server_, *gateway_, *um_,
                         durability_.get());
  });
  if (config_.um.threaded) um_->Start();
  if (durability_ != nullptr) {
    // Replay the previous process's acked-but-unapplied device
    // updates through the normal convergence path, then begin
    // checkpointing. Synchronous assemblies process the replays
    // inline inside ReplayRecoveredIntents itself.
    replayed_intents_ = um_->ReplayRecoveredIntents();
    durability_->StartCheckpointThread(&server_->backend());
  }
  return Status::Ok();
}

devices::DefinityPbx* MetaCommSystem::pbx(const std::string& name) {
  for (auto& pbx : pbxs_) {
    if (EqualsIgnoreCase(pbx->name(), name)) return pbx.get();
  }
  return nullptr;
}

devices::MessagingPlatform* MetaCommSystem::mp(const std::string& name) {
  for (auto& mp : mps_) {
    if (EqualsIgnoreCase(mp->name(), name)) return mp.get();
  }
  return nullptr;
}

DeviceFilter* MetaCommSystem::filter(const std::string& name) {
  for (auto& filter : filters_) {
    if (EqualsIgnoreCase(filter->name(), name)) return filter.get();
  }
  return nullptr;
}

ldap::Client MetaCommSystem::NewClient() {
  ldap::Client client(gateway_.get());
  client.set_session_id(gateway_->NewSession());
  return client;
}

Status MetaCommSystem::AddPerson(
    const std::string& cn,
    const std::vector<std::pair<std::string, std::string>>& extra_attrs) {
  ldap::Client client = NewClient();
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn base,
                            ldap::Dn::Parse(config_.people_base));
  ldap::Entry entry(base.Child(ldap::Rdn("cn", cn)));
  entry.SetOne("cn", cn);
  size_t space = cn.find_last_of(' ');
  entry.SetOne("sn", space == std::string::npos ? cn
                                                : cn.substr(space + 1));
  for (const auto& [attr, value] : extra_attrs) {
    entry.AddValue(attr, value);
  }
  ApplyObjectClasses(&entry);
  return client.Add(entry);
}

}  // namespace metacomm::core
