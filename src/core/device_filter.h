#ifndef METACOMM_CORE_DEVICE_FILTER_H_
#define METACOMM_CORE_DEVICE_FILTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "core/protocol_converters.h"
#include "core/repository_filter.h"
#include "devices/device.h"

namespace metacomm::core {

/// Filter for a legacy telecom device: protocol converter + lexpress
/// mapper pair, plus the change-notification plumbing that turns
/// direct device updates into lexpress update descriptors (paper §4.1,
/// §4.4).
class DeviceFilter : public RepositoryFilter {
 public:
  /// Invoked with the descriptor of every direct device update; wired
  /// to UpdateManager::SubmitDeviceUpdate.
  using DduHandler = std::function<void(lexpress::UpdateDescriptor)>;

  /// `device` is not owned. `to_ldap`/`from_ldap` are this instance's
  /// compiled mapping pair. The device's key field is the filter's key.
  DeviceFilter(devices::Device* device,
               std::unique_ptr<ProtocolConverter> converter,
               lexpress::Mapping to_ldap, lexpress::Mapping from_ldap);

  /// Starts forwarding device notifications as DDU descriptors.
  /// Notifications caused by this filter's own Apply calls are
  /// suppressed (they are MetaComm's propagation, not new updates).
  void SetDduHandler(DduHandler handler);

  devices::Device* device() { return device_; }

  // RepositoryFilter:
  const std::string& name() const override { return device_->name(); }
  const std::string& schema() const override { return device_->schema(); }
  const lexpress::Mapping& to_ldap() const override { return to_ldap_; }
  const lexpress::Mapping& from_ldap() const override {
    return from_ldap_;
  }
  ApplyResult Apply(const lexpress::UpdateDescriptor& update) override;
  std::vector<ApplyResult> ApplyBatch(
      const std::vector<lexpress::UpdateDescriptor>& updates) override;
  StatusOr<std::optional<lexpress::Record>> Fetch(
      const std::string& key) override;
  StatusOr<std::vector<lexpress::Record>> DumpAll() override;
  const std::string& key_attr() const override {
    return device_->key_field();
  }
  RepositoryHealth Health() const override;

  /// Number of conditional operations that needed the fallback path
  /// (conditional modify failed -> add attempted; §5.4).
  uint64_t conditional_fallbacks() const {
    return conditional_fallbacks_.load();
  }

 private:
  devices::Device* device_;
  std::unique_ptr<ProtocolConverter> converter_;
  lexpress::Mapping to_ldap_;
  lexpress::Mapping from_ldap_;
  DduHandler ddu_handler_;
  std::atomic<uint64_t> conditional_fallbacks_{0};
};

}  // namespace metacomm::core

#endif  // METACOMM_CORE_DEVICE_FILTER_H_
