#include "core/device_filter.h"

namespace metacomm::core {

namespace {

/// Set while the filter itself is mutating the device on this thread.
/// Device notifications are synchronous on the mutating thread, so a
/// thread-local flag cleanly separates MetaComm's own propagation
/// (suppressed) from genuine direct device updates (forwarded).
thread_local bool tls_self_apply = false;

class SelfApplyScope {
 public:
  SelfApplyScope() { tls_self_apply = true; }
  ~SelfApplyScope() { tls_self_apply = false; }
};

}  // namespace

DeviceFilter::DeviceFilter(devices::Device* device,
                           std::unique_ptr<ProtocolConverter> converter,
                           lexpress::Mapping to_ldap,
                           lexpress::Mapping from_ldap)
    : device_(device),
      converter_(std::move(converter)),
      to_ldap_(std::move(to_ldap)),
      from_ldap_(std::move(from_ldap)) {}

void DeviceFilter::SetDduHandler(DduHandler handler) {
  ddu_handler_ = std::move(handler);
  device_->SetNotificationHandler(
      [this](const devices::DeviceNotification& notification) {
        if (tls_self_apply) return;  // Echo of our own propagation.
        if (!ddu_handler_) return;
        lexpress::UpdateDescriptor desc;
        desc.op = notification.op;
        desc.schema = device_->schema();
        desc.old_record = notification.old_record;
        desc.new_record = notification.new_record;
        desc.source = device_->name();
        // A device administrator set whatever fields changed.
        for (const auto& [attr, value] : desc.new_record.attrs()) {
          if (!(desc.old_record.Get(attr) == value)) {
            desc.explicit_attrs.insert(attr);
          }
        }
        for (const auto& [attr, value] : desc.old_record.attrs()) {
          if (!desc.new_record.Has(attr)) desc.explicit_attrs.insert(attr);
        }
        ddu_handler_(std::move(desc));
      });
}

ApplyResult DeviceFilter::Apply(const lexpress::UpdateDescriptor& update) {
  SelfApplyScope self_apply;
  std::string old_key = update.old_record.GetFirst(key_attr());
  std::string new_key = update.new_record.GetFirst(key_attr());

  switch (update.op) {
    case lexpress::DescriptorOp::kAdd: {
      if (update.conditional) {
        // Reapplied add -> conditional modify; on failure, add (§5.4).
        Status status = converter_->Modify(new_key, update.new_record);
        if (status.code() == StatusCode::kNotFound) {
          conditional_fallbacks_.fetch_add(1);
          METACOMM_RETURN_IF_ERROR(converter_->Add(update.new_record));
        } else {
          METACOMM_RETURN_IF_ERROR(status);
        }
      } else {
        METACOMM_RETURN_IF_ERROR(converter_->Add(update.new_record));
      }
      break;
    }
    case lexpress::DescriptorOp::kModify: {
      std::string key = old_key.empty() ? new_key : old_key;
      Status status = converter_->Modify(key, update.new_record);
      if (status.code() == StatusCode::kNotFound && update.conditional) {
        conditional_fallbacks_.fetch_add(1);
        METACOMM_RETURN_IF_ERROR(converter_->Add(update.new_record));
      } else {
        METACOMM_RETURN_IF_ERROR(status);
      }
      break;
    }
    case lexpress::DescriptorOp::kDelete: {
      Status status = converter_->Delete(old_key);
      if (status.code() == StatusCode::kNotFound && update.conditional) {
        // Reapplied delete: the record is already gone — converged.
        break;
      }
      METACOMM_RETURN_IF_ERROR(status);
      break;
    }
  }

  if (update.op == lexpress::DescriptorOp::kDelete) {
    return lexpress::Record(schema());
  }
  // Return the repository's resulting record so the Update Manager can
  // pick up device-generated information (§5.5).
  METACOMM_ASSIGN_OR_RETURN(std::optional<lexpress::Record> result,
                            converter_->Get(new_key.empty() ? old_key
                                                            : new_key));
  if (!result.has_value()) {
    return Status::Internal(name() + ": record vanished after apply");
  }
  return *result;
}

std::vector<ApplyResult> DeviceFilter::ApplyBatch(
    const std::vector<lexpress::UpdateDescriptor>& updates) {
  // One administrative session for the whole batch: the emulated link
  // RTT is paid once, and every converter command inside — including
  // conditional-fallback retries and result fetches — rides it.
  devices::LatencyEmulator::SessionScope session(&device_->latency());
  return RepositoryFilter::ApplyBatch(updates);
}

RepositoryHealth DeviceFilter::Health() const {
  devices::FaultInjector& faults = device_->faults();
  RepositoryHealth health;
  health.reachable = !faults.ReadBlocked();
  health.commands = faults.mutations_seen();
  health.injected_failures = faults.injected_failures();
  return health;
}

StatusOr<std::optional<lexpress::Record>> DeviceFilter::Fetch(
    const std::string& key) {
  return converter_->Get(key);
}

StatusOr<std::vector<lexpress::Record>> DeviceFilter::DumpAll() {
  return converter_->DumpAll();
}

}  // namespace metacomm::core
