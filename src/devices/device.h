#ifndef METACOMM_DEVICES_DEVICE_H_
#define METACOMM_DEVICES_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "lexpress/record.h"

namespace metacomm::devices {

/// A change committed at a device, reported to whoever registered for
/// notifications (normally the device's MetaComm filter).
///
/// "The update is noted during transaction commit at the device and a
/// notification is sent to the appropriate device filter" (paper §4.4).
/// Old and new record images are included because partitioning
/// constraints need both sides (§4.2).
struct DeviceNotification {
  lexpress::DescriptorOp op = lexpress::DescriptorOp::kModify;
  /// Schema-tagged images in the device's native schema.
  lexpress::Record old_record;
  lexpress::Record new_record;
  /// Name of the device instance emitting the notification.
  std::string device_name;
};

/// Simulated fault state shared by the device simulators. MetaComm's
/// recovery story (error logging, circuit breaking, resynchronization
/// after "catastrophic communication or storage errors", §4) is
/// exercised through this injector: beyond the original manual
/// switches it drives scripted outage windows, flaky
/// fails-N-then-succeeds sequences, probabilistic per-command errors,
/// and injected command timeouts — on every typed mutation of a
/// Device, which all pass OnMutation().
class FaultInjector {
 public:
  // ---- Manual switches (the original API) --------------------------

  /// Device unreachable: every command fails with kUnavailable.
  void set_disconnected(bool disconnected) {
    disconnected_.store(disconnected);
  }
  bool disconnected() const { return disconnected_.load(); }

  /// Notifications silently dropped (models lost change callbacks —
  /// the reason the Update Manager needs resync, §4.4).
  void set_drop_notifications(bool drop) { drop_notifications_.store(drop); }
  bool drop_notifications() const { return drop_notifications_.load(); }

  /// The next `n` mutating commands fail, then the device recovers
  /// (flaky behaviour). The one-argument form keeps the original
  /// kInternal flavour; the two-argument form types the failure.
  void FailNext(int n) { FailNext(n, StatusCode::kInternal); }
  void FailNext(int n, StatusCode code) {
    fail_next_code_.store(static_cast<int>(code));
    fail_next_.store(n);
  }

  // ---- Scripted / probabilistic schedules --------------------------

  /// Schedules a full outage covering the mutation-command window
  /// [seen + after, seen + after + length): those commands fail with
  /// kUnavailable, where `seen` is the mutation count at call time.
  /// Windows may be stacked; reads are refused while a window is
  /// active but do not advance it.
  void ScheduleOutage(uint64_t after_commands, uint64_t length_commands)
      EXCLUDES(mutex_);

  /// Each mutating command independently fails with probability `p`
  /// (code from set_error_code, default kUnavailable). Deterministic
  /// under set_seed.
  void set_error_probability(double p) EXCLUDES(mutex_);
  void set_error_code(StatusCode code) EXCLUDES(mutex_);
  void set_seed(uint64_t seed) EXCLUDES(mutex_);

  /// Stall injected before a *failing* command returns — models an
  /// administrative link that times out instead of failing fast. This
  /// is the cost the Update Manager's circuit breaker exists to avoid.
  void set_fail_latency_micros(int64_t micros) {
    fail_latency_micros_.store(micros);
  }
  int64_t fail_latency_micros() const { return fail_latency_micros_.load(); }

  // ---- Device hooks ------------------------------------------------

  /// Central mutation gate: counts the command, evaluates the fault
  /// schedule, and returns the injected failure (or OK). `device_name`
  /// prefixes the diagnostic.
  Status OnMutation(const std::string& device_name) EXCLUDES(mutex_);

  /// True while reads should be refused: manual disconnect or an
  /// active scheduled outage window. Does not consume a command slot.
  bool ReadBlocked() const EXCLUDES(mutex_);

  // ---- Telemetry (feeds RepositoryFilter::Health) ------------------

  /// Mutating commands that reached the injector.
  uint64_t mutations_seen() const { return mutations_seen_.load(); }
  /// Commands that failed with an injected fault.
  uint64_t injected_failures() const { return injected_failures_.load(); }

 private:
  /// Consumes one pending FailNext slot; true if one fired.
  bool ConsumeFailure();
  Status Fail(const std::string& device_name, StatusCode code,
              const char* what);

  std::atomic<bool> disconnected_{false};
  std::atomic<bool> drop_notifications_{false};
  std::atomic<int> fail_next_{0};
  std::atomic<int> fail_next_code_{static_cast<int>(StatusCode::kInternal)};
  std::atomic<int64_t> fail_latency_micros_{0};
  std::atomic<uint64_t> mutations_seen_{0};
  std::atomic<uint64_t> injected_failures_{0};

  mutable Mutex mutex_{LockRank::kFaultInjector,
                       "devices.fault_injector"};
  /// Outage windows in absolute mutation counts [start, end).
  std::vector<std::pair<uint64_t, uint64_t>> outages_ GUARDED_BY(mutex_);
  double error_probability_ GUARDED_BY(mutex_) = 0.0;
  StatusCode error_code_ GUARDED_BY(mutex_) = StatusCode::kUnavailable;
  std::mt19937_64 rng_ GUARDED_BY(mutex_){0xfa17ed};
};

/// Emulated administrative-link latency for a device simulator.
///
/// The paper's devices sit behind slow administration links (ossi
/// scripts to the Definity, per-session Messaging Platform commands);
/// each command normally pays one round-trip. A *session* models one
/// administrative conversation: the opener pays a single RTT and every
/// command issued on the same thread while the session is open rides
/// it for free — which is what makes batched propagation pay the link
/// cost once per batch instead of once per update.
class LatencyEmulator {
 public:
  void set_rtt_micros(int64_t rtt_micros) { rtt_micros_.store(rtt_micros); }
  int64_t rtt_micros() const { return rtt_micros_.load(); }

  /// Charges one round-trip, unless this thread already holds an open
  /// session on this emulator (the session paid when it opened).
  void OnCommand();

  /// Total round-trips actually charged (telemetry: commands minus
  /// session savings).
  uint64_t round_trips() const { return round_trips_.load(); }

  /// RAII administrative session: pays one RTT on open; commands on
  /// this thread are then free until the scope closes. Nests safely.
  class SessionScope {
   public:
    explicit SessionScope(LatencyEmulator* emulator);
    ~SessionScope();
    SessionScope(const SessionScope&) = delete;
    SessionScope& operator=(const SessionScope&) = delete;

   private:
    LatencyEmulator* emulator_;
    bool opened_ = false;
  };

 private:
  bool InSession() const;
  void Charge();

  std::atomic<int64_t> rtt_micros_{0};
  std::atomic<uint64_t> round_trips_{0};
  // Emulators this thread holds open sessions on (defined in device.cc).
  static thread_local std::vector<const LatencyEmulator*> open_sessions_;
};

/// A simulated legacy device: one record store under a proprietary
/// command language.
///
/// Devices have two faces:
///  * a *proprietary command interface* (ExecuteCommand) — the path a
///    device administrator uses, producing direct device updates;
///  * typed record accessors used by the filter's protocol converter
///    and by the synchronizer's full dumps.
/// Both converge on the one store below and both emit notifications,
/// exactly because "the devices must be usable with or without
/// MetaComm" (§4.4). The store is the same for every device: records
/// keyed by one field, single-record atomic commands, each gated by
/// faults() and paying one round trip of latency(), and a notification
/// at commit. A subclass brings its command language, its field rules
/// (Validate) and an add hook (OnAdd).
class Device {
 public:
  using NotificationHandler =
      std::function<void(const DeviceNotification&)>;

  virtual ~Device() = default;

  /// Instance name, e.g. "pbx1". Used as the lexpress update source
  /// and as the LastUpdater value.
  const std::string& name() const { return name_; }

  /// lexpress schema this device's records use, e.g. "pbx".
  const std::string& schema() const { return schema_; }

  /// The field that keys the records ("Extension", "MailboxNumber").
  const std::string& key_field() const { return key_field_; }

  /// Runs one proprietary command; returns the device's textual reply.
  /// One command pays one emulated round trip, however many typed
  /// operations it dispatches to.
  virtual StatusOr<std::string> ExecuteCommand(const std::string& command) = 0;

  /// Fetches the record with the given key value.
  StatusOr<lexpress::Record> GetRecord(const std::string& key)
      EXCLUDES(mutex_);

  /// Typed mutations used by the filter's protocol converter. The
  /// device-generated field, if the device has one, is the device's
  /// own: a caller's value is replaced on add and ignored on modify.
  Status AddRecord(const lexpress::Record& record) EXCLUDES(mutex_);

  /// Change-command semantics: fields present in `record` are set,
  /// fields named in `clear_fields` are removed, all other fields
  /// keep their values (legacy merge behaviour). A new key value in
  /// `record` rekeys the record; the key field cannot be cleared.
  Status ModifyRecord(const std::string& key, const lexpress::Record& record,
                      const std::vector<std::string>& clear_fields)
      EXCLUDES(mutex_);
  Status DeleteRecord(const std::string& key) EXCLUDES(mutex_);

  /// Every record; "if a repository is to be synchronized ... the API
  /// must also provide a method to retrieve all relevant data" (§4.1).
  StatusOr<std::vector<lexpress::Record>> DumpAll() EXCLUDES(mutex_);

  /// Registers the change-notification callback (one per device).
  void SetNotificationHandler(NotificationHandler handler) EXCLUDES(mutex_);

  /// Fault-injection controls.
  FaultInjector& faults() { return faults_; }

  /// Emulated administrative-link latency controls.
  LatencyEmulator& latency() { return latency_; }

 protected:
  /// `generated_field` names the one field the device mints itself, or
  /// is empty when it mints none.
  Device(std::string name, std::string schema, std::string key_field,
         std::string generated_field, int64_t command_rtt_micros);

  /// Field-level validation (the only "typing" the device has); every
  /// image passes it before it is stored.
  virtual Status Validate(const lexpress::Record& record) const = 0;

  /// Completes a validated new record. Runs under the store lock after
  /// the duplicate check, so a rejected add leaves no trace.
  virtual void OnAdd(lexpress::Record* record) REQUIRES(mutex_) = 0;

  /// Number of records stored.
  size_t RecordCount() const EXCLUDES(mutex_);

  mutable Mutex mutex_{LockRank::kDeviceRecords, "devices.records"};

 private:
  Status NotFound(const std::string& key) const;
  void Notify(lexpress::DescriptorOp op, lexpress::Record old_record,
              lexpress::Record new_record) EXCLUDES(mutex_);

  const std::string name_;
  const std::string schema_;
  const std::string key_field_;
  const std::string generated_field_;
  std::map<std::string, lexpress::Record> records_ GUARDED_BY(mutex_);
  NotificationHandler handler_ GUARDED_BY(mutex_);
  FaultInjector faults_;
  LatencyEmulator latency_;
};

}  // namespace metacomm::devices

#endif  // METACOMM_DEVICES_DEVICE_H_
