#include "devices/device.h"

#include <iterator>

#include "common/clock.h"
#include "common/strings.h"

namespace metacomm::devices {

void FaultInjector::ScheduleOutage(uint64_t after_commands,
                                   uint64_t length_commands) {
  uint64_t seen = mutations_seen_.load();
  MutexLock lock(&mutex_);
  outages_.emplace_back(seen + after_commands,
                        seen + after_commands + length_commands);
}

void FaultInjector::set_error_probability(double p) {
  MutexLock lock(&mutex_);
  error_probability_ = p;
}

void FaultInjector::set_error_code(StatusCode code) {
  MutexLock lock(&mutex_);
  error_code_ = code;
}

void FaultInjector::set_seed(uint64_t seed) {
  MutexLock lock(&mutex_);
  rng_.seed(seed);
}

Status FaultInjector::Fail(const std::string& device_name, StatusCode code,
                           const char* what) {
  injected_failures_.fetch_add(1);
  int64_t stall = fail_latency_micros_.load();
  if (stall > 0) RealClock::Get()->SleepMicros(stall);
  return Status(code, device_name + ": " + what);
}

bool FaultInjector::ConsumeFailure() {
  int current = fail_next_.load();
  while (current > 0) {
    if (fail_next_.compare_exchange_weak(current, current - 1)) return true;
  }
  return false;
}

Status FaultInjector::OnMutation(const std::string& device_name) {
  uint64_t seq = mutations_seen_.fetch_add(1);
  if (disconnected_.load()) {
    return Fail(device_name, StatusCode::kUnavailable, "link down");
  }
  bool in_window = false;
  {
    MutexLock lock(&mutex_);
    for (const auto& [start, end] : outages_) {
      if (seq >= start && seq < end) {
        in_window = true;
        break;
      }
    }
  }
  if (in_window) {
    return Fail(device_name, StatusCode::kUnavailable,
                "link down (scheduled outage)");
  }
  if (ConsumeFailure()) {
    return Fail(device_name,
                static_cast<StatusCode>(fail_next_code_.load()),
                "injected transient fault");
  }
  bool random_fail = false;
  StatusCode random_code = StatusCode::kUnavailable;
  {
    MutexLock lock(&mutex_);
    if (error_probability_ > 0.0) {
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      if (uniform(rng_) < error_probability_) {
        random_fail = true;
        random_code = error_code_;
      }
    }
  }
  if (random_fail) {
    // Fail() may stall (fail-latency injection); the lock is dropped.
    return Fail(device_name, random_code, "injected random fault");
  }
  return Status::Ok();
}

bool FaultInjector::ReadBlocked() const {
  if (disconnected_.load()) return true;
  uint64_t seen = mutations_seen_.load();
  MutexLock lock(&mutex_);
  for (const auto& [start, end] : outages_) {
    if (seen >= start && seen < end) return true;
  }
  return false;
}

thread_local std::vector<const LatencyEmulator*>
    LatencyEmulator::open_sessions_;

bool LatencyEmulator::InSession() const {
  for (const LatencyEmulator* open : open_sessions_) {
    if (open == this) return true;
  }
  return false;
}

void LatencyEmulator::Charge() {
  int64_t rtt = rtt_micros();
  if (rtt <= 0) return;
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  RealClock::Get()->SleepMicros(rtt);
}

void LatencyEmulator::OnCommand() {
  if (InSession()) return;
  Charge();
}

LatencyEmulator::SessionScope::SessionScope(LatencyEmulator* emulator)
    : emulator_(emulator) {
  if (emulator_ == nullptr) return;
  // An already-open outer session covers this one; only the outermost
  // scope pays (and registers) the round-trip.
  if (!emulator_->InSession()) {
    emulator_->Charge();
    open_sessions_.push_back(emulator_);
    opened_ = true;
  }
}

LatencyEmulator::SessionScope::~SessionScope() {
  if (!opened_) return;
  for (auto it = open_sessions_.rbegin(); it != open_sessions_.rend();
       ++it) {
    if (*it == emulator_) {
      open_sessions_.erase(std::next(it).base());
      break;
    }
  }
}

Device::Device(std::string name, std::string schema, std::string key_field,
               std::string generated_field, int64_t command_rtt_micros)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_field_(std::move(key_field)),
      generated_field_(std::move(generated_field)) {
  latency_.set_rtt_micros(command_rtt_micros);
}

Status Device::NotFound(const std::string& key) const {
  return Status::NotFound(name_ + ": " + key_field_ + " " + key +
                          " not found");
}

void Device::Notify(lexpress::DescriptorOp op, lexpress::Record old_record,
                    lexpress::Record new_record) {
  if (faults_.drop_notifications()) return;
  NotificationHandler handler;
  {
    MutexLock lock(&mutex_);
    handler = handler_;
  }
  if (!handler) return;
  DeviceNotification notification;
  notification.op = op;
  notification.old_record = std::move(old_record);
  notification.new_record = std::move(new_record);
  notification.device_name = name_;
  handler(notification);
}

Status Device::AddRecord(const lexpress::Record& record) {
  latency_.OnCommand();
  METACOMM_RETURN_IF_ERROR(faults_.OnMutation(name_));
  lexpress::Record added = record;
  added.set_schema(schema_);
  if (!generated_field_.empty()) added.Remove(generated_field_);
  METACOMM_RETURN_IF_ERROR(Validate(added));
  std::string key = added.GetFirst(key_field_);
  {
    MutexLock lock(&mutex_);
    if (records_.count(key) > 0) {
      return Status::AlreadyExists(name_ + ": " + key_field_ + " " + key +
                                   " already exists");
    }
    OnAdd(&added);
    records_.emplace(key, added);
  }
  Notify(lexpress::DescriptorOp::kAdd, lexpress::Record(schema_),
         std::move(added));
  return Status::Ok();
}

Status Device::ModifyRecord(const std::string& key,
                            const lexpress::Record& record,
                            const std::vector<std::string>& clear_fields) {
  latency_.OnCommand();
  METACOMM_RETURN_IF_ERROR(faults_.OnMutation(name_));
  lexpress::Record old_record(schema_);
  lexpress::Record new_record = record;
  new_record.set_schema(schema_);
  {
    MutexLock lock(&mutex_);
    auto it = records_.find(key);
    if (it == records_.end()) return NotFound(key);
    const lexpress::Record& stored = it->second;
    // Merge: fields absent from the request keep their old values
    // (change commands touch only listed fields), except fields
    // explicitly cleared. The key and generated fields cannot be
    // cleared, and the generated field cannot be changed.
    for (const auto& [field, value] : stored.attrs()) {
      if (!new_record.Has(field)) new_record.Set(field, value);
    }
    for (const std::string& field : clear_fields) {
      if (EqualsIgnoreCase(field, key_field_) ||
          EqualsIgnoreCase(field, generated_field_)) {
        continue;
      }
      new_record.Remove(field);
    }
    if (new_record.GetFirst(key_field_).empty()) {
      new_record.SetOne(key_field_, key);
    }
    if (!generated_field_.empty()) {
      new_record.Set(generated_field_, stored.Get(generated_field_));
    }
    METACOMM_RETURN_IF_ERROR(Validate(new_record));
    std::string new_key = new_record.GetFirst(key_field_);
    if (new_key != key && records_.count(new_key) > 0) {
      return Status::AlreadyExists(name_ + ": " + key_field_ + " " +
                                   new_key + " already exists");
    }
    old_record = std::move(it->second);
    records_.erase(it);
    records_.emplace(new_key, new_record);
  }
  Notify(lexpress::DescriptorOp::kModify, std::move(old_record),
         std::move(new_record));
  return Status::Ok();
}

Status Device::DeleteRecord(const std::string& key) {
  latency_.OnCommand();
  METACOMM_RETURN_IF_ERROR(faults_.OnMutation(name_));
  lexpress::Record old_record(schema_);
  {
    MutexLock lock(&mutex_);
    auto it = records_.find(key);
    if (it == records_.end()) return NotFound(key);
    old_record = std::move(it->second);
    records_.erase(it);
  }
  Notify(lexpress::DescriptorOp::kDelete, std::move(old_record),
         lexpress::Record(schema_));
  return Status::Ok();
}

StatusOr<lexpress::Record> Device::GetRecord(const std::string& key) {
  latency_.OnCommand();
  if (faults_.ReadBlocked()) return Status::Unavailable(name_ + ": link down");
  MutexLock lock(&mutex_);
  auto it = records_.find(key);
  if (it == records_.end()) return NotFound(key);
  return it->second;
}

StatusOr<std::vector<lexpress::Record>> Device::DumpAll() {
  latency_.OnCommand();
  if (faults_.ReadBlocked()) return Status::Unavailable(name_ + ": link down");
  MutexLock lock(&mutex_);
  std::vector<lexpress::Record> out;
  out.reserve(records_.size());
  for (const auto& [key, record] : records_) out.push_back(record);
  return out;
}

void Device::SetNotificationHandler(NotificationHandler handler) {
  MutexLock lock(&mutex_);
  handler_ = std::move(handler);
}

size_t Device::RecordCount() const {
  MutexLock lock(&mutex_);
  return records_.size();
}

}  // namespace metacomm::devices
