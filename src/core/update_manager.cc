#include "core/update_manager.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/blocking_wait.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/device_filter.h"
#include "core/integrated_schema.h"

namespace metacomm::core {

namespace {

/// Merges `overlay`'s attributes onto `base` (overlay wins).
lexpress::Record MergeRecords(const lexpress::Record& base,
                              const lexpress::Record& overlay) {
  lexpress::Record out = base;
  out.set_schema(base.schema().empty() ? overlay.schema() : base.schema());
  for (const auto& [attr, value] : overlay.attrs()) {
    out.Set(attr, value);
  }
  return out;
}

}  // namespace

UpdateManager::UpdateManager(ltap::LtapGateway* gateway,
                             LdapFilter* ldap_filter,
                             UpdateManagerConfig config)
    : gateway_(gateway),
      ldap_filter_(ldap_filter),
      config_(config) {
  um_session_ = gateway_->NewSession();
  // Error entries outlive the process: number on from the highest one
  // recovered (audit-only too), or the next cn=error-N collides with it.
  StatusOr<std::vector<ldap::Entry>> logged = ErrorEntries();
  if (!logged.ok()) return;
  for (const ldap::Entry& entry : *logged) {
    const std::string cn = entry.GetFirst("cn");
    if (!StartsWith(cn, "error-")) continue;
    error_sequence_ = std::max<uint64_t>(
        error_sequence_, ParseUint64(cn.substr(6)).value_or(0));
  }
}

UpdateManager::~UpdateManager() { Stop(); }

void UpdateManager::AddDeviceFilter(RepositoryFilter* filter) {
  filters_.push_back(filter);
  mappings_.Add(filter->to_ldap());
  mappings_.Add(filter->from_ldap());
  CircuitBreaker::Options breaker_options;
  breaker_options.failure_threshold = config_.breaker_failure_threshold;
  breaker_options.open_backoff_micros = config_.breaker_open_backoff_micros;
  breaker_options.max_backoff_micros = config_.breaker_max_backoff_micros;
  breaker_options.enabled = config_.breaker_enabled;
  breakers_.emplace(filter->name(),
                    std::make_unique<CircuitBreaker>(breaker_options));
  if (auto* device_filter = dynamic_cast<DeviceFilter*>(filter)) {
    device_filter->SetDduHandler(
        [this](lexpress::UpdateDescriptor update) {
          SubmitDeviceUpdate(std::move(update));
        });
  }
}

Status UpdateManager::ValidateMappings() const {
  return mappings_.Validate();
}

Status UpdateManager::InstallTrigger(const std::string& base_dn) {
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn base, ldap::Dn::Parse(base_dn));
  ltap::TriggerSpec spec;
  spec.name = "metacomm-um";
  spec.base = std::move(base);
  spec.ops = ltap::kTriggerAll;
  spec.timing = ltap::TriggerTiming::kAfter;
  spec.server = this;
  gateway_->RegisterTrigger(std::move(spec));
  return Status::Ok();
}

void UpdateManager::Start() {
  if (!config_.threaded) return;
  if (running_.exchange(true)) return;
  uint64_t epoch;
  {
    MutexLock lock(&shutdown_mutex_);
    stopping_ = false;  // A restarted UM sleeps and repairs again.
    epoch = stop_epoch_;
  }
  queue_.Reopen();  // Stop() closed it; restarts take updates again.
  // "The main thread of the UM, the coordinator, iterates through the
  // global update queue" (§4.4). worker_threads=1 reproduces that
  // single coordinator; more workers pop the same queue. The entry
  // locks an item holds from before it is queued keep any later update
  // of that entry off the queue, which is all §4.4 convergence needs.
  const size_t workers =
      static_cast<size_t>(std::max(1, config_.worker_threads));
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, epoch] { WorkerLoop(epoch); });
  }
  offers_.Reopen();
  const size_t helpers = (std::max<size_t>(filters_.size(), 1) - 1) * workers;
  for (size_t i = 0; i < helpers; ++i) {
    helpers_.emplace_back([this] {
      for (auto offer = offers_.PopBatch(1); !offer.empty();
           offer = offers_.PopBatch(1)) {
        offer.front()();
      }
    });
  }
  if (config_.repair_enabled) {
    repair_thread_ = std::thread([this] { RepairLoop(); });
  }
}

void UpdateManager::Stop() {
  if (!running_.exchange(false)) return;
  // Raise the stop flag FIRST: in-flight lock backoffs, artificial
  // processing delays, a running Synchronize, and the repair worker's
  // scan sleep all watch it, so workers reach their release paths
  // promptly instead of sleeping out their full backoff schedules —
  // and every path still releases its LTAP locks on the way out.
  {
    MutexLock lock(&shutdown_mutex_);
    stopping_ = true;
    ++stop_epoch_;
  }
  shutdown_cv_.NotifyAll();
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (repair_thread_.joinable()) repair_thread_.join();
  // A wave holds itself every conversation no helper claimed.
  offers_.Close();
  for (std::thread& helper : helpers_) helper.join();
  helpers_.clear();
  offers_.Drain();
  // The queue died with items still in it: release their entry locks
  // and fail their callers, instead of leaving locks held forever and
  // threaded OnUpdate callers hanging in done.get().
  std::vector<WorkItem> abandoned = queue_.Drain();
  for (WorkItem& item : abandoned) {
    SettleItem(item, Status::Unavailable("update manager is shut down"),
               /*processed=*/false);
  }
}

void UpdateManager::WorkerLoop(uint64_t epoch) {
  const size_t max_batch =
      static_cast<size_t>(std::max(1, config_.max_batch_size));
  // The worker's lexpress interpreter: its stack, value pool and record
  // view persist across every item this worker ever processes, so the
  // closure/translation hot path runs allocation-free in steady state.
  lexpress::Vm vm;
  while (true) {
    std::vector<WorkItem> batch = queue_.PopBatch(max_batch);
    if (batch.empty()) return;  // Closed; Stop() reclaims the rest.
    RecordDrain(batch);
    ProcessBatch(batch, epoch, &vm);
  }
}

void UpdateManager::RecordDrain(const std::vector<WorkItem>& batch) {
  const size_t size = batch.size();
  const size_t bucket = size <= 2    ? size - 1
                        : size <= 4  ? 2
                        : size <= 8  ? 3
                        : size <= 16 ? 4
                                     : 5;
  const int64_t now = RealClock::Get()->NowMicros();
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  counters_.batch_size_buckets[bucket].fetch_add(1,
                                                 std::memory_order_relaxed);
  queue_counters_.dequeued.fetch_add(size, std::memory_order_relaxed);
  for (const WorkItem& item : batch) {
    int64_t waited = now - item.enqueue_micros;
    if (waited > 0) {
      queue_counters_.queue_wait_micros.fetch_add(
          static_cast<uint64_t>(waited), std::memory_order_relaxed);
    }
  }
}

bool UpdateManager::Enqueue(WorkItem item) {
  item.enqueue_micros = RealClock::Get()->NowMicros();
  if (!queue_.Push(std::move(item))) return false;
  queue_counters_.enqueued.fetch_add(1, std::memory_order_relaxed);
  const uint64_t depth = queue_.Size();
  std::atomic<uint64_t>& max_depth = queue_counters_.max_depth;
  uint64_t seen = max_depth.load(std::memory_order_relaxed);
  while (depth > seen && !max_depth.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
  return true;
}

Status UpdateManager::ProcessOne(WorkItem item, uint64_t epoch) {
  std::vector<WorkItem> batch;
  batch.push_back(std::move(item));
  ProcessBatch(batch, epoch, /*vm=*/nullptr);
  return batch.front().status;
}

void UpdateManager::SubmitDeviceUpdate(lexpress::UpdateDescriptor update) {
  SubmitDeviceUpdateInternal(std::move(update), /*intent_id=*/0);
}

void UpdateManager::SubmitDeviceUpdateInternal(
    lexpress::UpdateDescriptor update, uint64_t intent_id) {
  // Translate and lock on THIS thread (the device's notification
  // thread) so the coordinator never blocks on entry locks; the device
  // administrator's command stalls instead, exactly as a DDU stalls at
  // LTAP in the paper's design (§4.4).
  StatusOr<std::optional<WorkItem>> prepared = PrepareDeviceUpdate(update);
  if (!prepared.ok()) {
    // The failure is error-logged (the repair path owns it now), so a
    // recovered intent must not replay it a second way.
    HandleError(prepared.status(), update);
    SettleIntent(intent_id);
    return;
  }
  if (!prepared->has_value()) {
    SettleIntent(intent_id);
    return;  // Routed nowhere.
  }
  WorkItem item = std::move(**prepared);
  if (!config_.threaded) {
    // Synchronous mode: the device notification thread carries the
    // propagation to completion before the administrator's command
    // returns. Failures were logged and notified by the pipeline.
    item.intent_id = intent_id;
    (void)ProcessOne(std::move(item), stop_epoch());
    return;
  }
  if (intent_id == 0 && durability_ != nullptr) {
    // Log-before-ack, in the SOURCE schema: once this returns the queue
    // is no longer the only copy of the update — a crash before the
    // item settles replays it through this very path.
    StatusOr<uint64_t> logged = durability_->LogIntent(update);
    if (!logged.ok()) {
      ReleaseLocks(item.locked, item.lock_session);
      HandleError(logged.status(), update);
      return;
    }
    intent_id = *logged;
  }
  item.intent_id = intent_id;
  std::vector<ldap::Dn> locked = item.locked;
  uint64_t lock_session = item.lock_session;
  if (!Enqueue(std::move(item))) {
    // Workers already stopped (UM shutdown/crash): the update is lost
    // until resynchronization — the §4.4 recovery story. Its intent (if
    // any) stays pending and replays on the next start.
    ReleaseLocks(locked, lock_session);
  }
}

void UpdateManager::SettleIntent(uint64_t intent_id) {
  if (durability_ == nullptr || intent_id == 0) return;
  // A failed resolve only matters after a sticky WAL error, in which
  // case the worst outcome is an extra idempotent replay on restart.
  Status status = durability_->ResolveIntent(intent_id);
  (void)status;
}

size_t UpdateManager::ReplayRecoveredIntents() {
  if (durability_ == nullptr) return 0;
  std::vector<storage::WalIntent> intents = durability_->PendingIntents();
  for (storage::WalIntent& intent : intents) {
    SubmitDeviceUpdateInternal(std::move(intent.update), intent.id);
  }
  return intents.size();
}

Status UpdateManager::OnUpdate(
    const ltap::UpdateNotification& notification) {
  if (notification.timing == ltap::TriggerTiming::kBefore) {
    return Status::Ok();
  }
  if (notification.session_id == um_session_) {
    return Status::Ok();  // Our own writes need no re-processing.
  }
  counters_.ldap_updates.fetch_add(1, std::memory_order_relaxed);
  StatusOr<lexpress::UpdateDescriptor> descriptor =
      DescriptorFromNotification(notification);
  if (!descriptor.ok()) return descriptor.status();

  // LTAP already applied the client's operation and holds the entry
  // lock until we return.
  WorkItem item;
  item.descriptor = std::move(descriptor).value();
  item.ldap_current = true;
  if (!config_.threaded) return ProcessOne(std::move(item), stop_epoch());
  // Threaded: enqueue and wait — LTAP must not reply to the client
  // until the UM "completes the update sequence and notifies LTAP"
  // (§4.4). The client holds the entry's lock until we return, so no
  // later update of this entry can be queued before this one settles.
  item.done = std::make_shared<std::promise<Status>>();
  std::future<Status> done = item.done->get_future();
  if (!Enqueue(std::move(item))) {
    return Status::Unavailable("update manager is shut down");
  }
  ScopedBlockingWait wait;
  return done.get();
}

StatusOr<lexpress::UpdateDescriptor>
UpdateManager::DescriptorFromNotification(
    const ltap::UpdateNotification& notification) const {
  lexpress::UpdateDescriptor desc;
  desc.schema = "ldap";
  desc.source = "ldap";
  switch (notification.op) {
    case ldap::UpdateOp::kAdd:
      desc.op = lexpress::DescriptorOp::kAdd;
      break;
    case ldap::UpdateOp::kDelete:
      desc.op = lexpress::DescriptorOp::kDelete;
      break;
    case ldap::UpdateOp::kModify:
    case ldap::UpdateOp::kModifyRdn:
      desc.op = lexpress::DescriptorOp::kModify;
      break;
  }
  if (notification.old_entry.has_value()) {
    desc.old_record = ldap_filter_->ToRecord(*notification.old_entry);
  }
  if (notification.new_entry.has_value()) {
    desc.new_record = ldap_filter_->ToRecord(*notification.new_entry);
  }
  desc.old_record.set_schema("ldap");
  desc.new_record.set_schema("ldap");

  switch (desc.op) {
    case lexpress::DescriptorOp::kAdd:
      for (const auto& [attr, value] : desc.new_record.attrs()) {
        desc.explicit_attrs.insert(attr);
      }
      break;
    case lexpress::DescriptorOp::kModify:
      if (notification.op == ldap::UpdateOp::kModifyRdn) {
        desc.explicit_attrs.insert(ldap_filter_->key_attr());
      }
      for (const ldap::Modification& mod : notification.mods) {
        desc.explicit_attrs.insert(mod.attribute);
      }
      break;
    case lexpress::DescriptorOp::kDelete:
      break;
  }
  // This update's origin is the directory; record it so device-side
  // Originator detection (§5.4) sees a non-device source.
  if (desc.op != lexpress::DescriptorOp::kDelete) {
    desc.new_record.SetOne(kLastUpdaterAttr, "ldap");
    desc.explicit_attrs.erase(kLastUpdaterAttr);
  }
  return desc;
}

RepositoryFilter* UpdateManager::FindFilter(const std::string& name) const {
  for (RepositoryFilter* filter : filters_) {
    if (EqualsIgnoreCase(filter->name(), name)) return filter;
  }
  return nullptr;
}

StatusOr<std::optional<UpdateManager::WorkItem>>
UpdateManager::PrepareDeviceUpdate(
    const lexpress::UpdateDescriptor& update) {
  counters_.device_updates.fetch_add(1, std::memory_order_relaxed);
  RepositoryFilter* filter = FindFilter(update.source);
  if (filter == nullptr) {
    return Status::Internal("no filter for device: " + update.source);
  }

  // Translate into the integrated schema. The device->ldap mapping
  // stamps LastUpdater with the device's name (§5.4).
  METACOMM_ASSIGN_OR_RETURN(
      std::optional<lexpress::UpdateDescriptor> translated,
      filter->to_ldap().Translate(update));
  if (!translated.has_value()) {
    return std::optional<WorkItem>();  // Routed nowhere.
  }
  lexpress::UpdateDescriptor ldap_update = std::move(*translated);

  // The device administrator's changes are "explicit" at the
  // directory level: the closure must not overwrite them.
  for (const auto& [attr, value] : ldap_update.new_record.attrs()) {
    if (!(ldap_update.old_record.Get(attr) == value)) {
      ldap_update.explicit_attrs.insert(attr);
    }
  }
  ldap_update.explicit_attrs.erase(kLastUpdaterAttr);

  // "LTAP is used to obtain locks" (§4.4): take the entry lock(s)
  // before the update enters the global queue so conflicting LDAP
  // client updates serialize behind this DDU. Locks are taken in
  // normalized-DN order so concurrent renames cannot deadlock.
  const std::string& key_attr = ldap_filter_->key_attr();
  std::vector<ldap::Dn> to_lock;
  for (const std::string& key :
       {ldap_update.old_record.GetFirst(key_attr),
        ldap_update.new_record.GetFirst(key_attr)}) {
    if (key.empty()) continue;
    METACOMM_ASSIGN_OR_RETURN(ldap::Dn dn, ldap_filter_->DnForKey(key));
    bool duplicate = false;
    for (const ldap::Dn& held : to_lock) {
      if (held == dn) duplicate = true;
    }
    if (!duplicate) to_lock.push_back(std::move(dn));
  }
  std::sort(to_lock.begin(), to_lock.end(),
            [](const ldap::Dn& a, const ldap::Dn& b) {
              return a.Normalized() < b.Normalized();
            });

  WorkItem item;
  item.hydrate = true;  // The device reported only what it holds.
  // One fresh LTAP session per work item. Locking under a session
  // shared by every DDU (the old um_session_) made LockTable::Acquire
  // treat two concurrent DDUs on the same entry as one re-entrant
  // owner — both "held" the lock and raced.
  item.lock_session = gateway_->NewSession();
  for (const ldap::Dn& dn : to_lock) {
    Status status = AcquireEntryLock(dn, item.lock_session);
    if (!status.ok()) {
      ReleaseLocks(item.locked, item.lock_session);
      return status;
    }
    item.locked.push_back(dn);
  }

  item.descriptor = std::move(ldap_update);
  return std::optional<WorkItem>(std::move(item));
}

lexpress::UpdateDescriptor UpdateManager::HydrateDeviceUpdate(
    lexpress::UpdateDescriptor update) {
  // The device reports only the attributes it holds; hydrate both
  // images with the directory's current entry. Without this, fan-out
  // to the OTHER devices carries an image missing every attribute this
  // device never knew — and full-image repository writes then clear
  // them (a PBX room change would erase the messaging platform's Pin).
  // Attributes the administrator removed at the device stay removed.
  //
  // Runs on the worker, not the submitting device thread: the item has
  // held its entry lock since prepare, so the image read here is the
  // same FIFO-stable one — and the lookup cost lands on the parallel
  // side of the queue instead of the administrator's terminal.
  if (update.op == lexpress::DescriptorOp::kDelete) return update;
  const std::string& key_attr = ldap_filter_->key_attr();
  std::string key = update.old_record.GetFirst(key_attr);
  if (key.empty()) key = update.new_record.GetFirst(key_attr);
  if (key.empty()) return update;
  StatusOr<std::optional<ldap::Entry>> current =
      ldap_filter_->FindByKey(key);
  if (!current.ok() || !current->has_value()) return update;
  lexpress::Record image = ldap_filter_->ToRecord(**current);
  lexpress::Record merged_new = MergeRecords(image, update.new_record);
  for (const auto& [attr, value] : update.old_record.attrs()) {
    if (!update.new_record.Has(attr)) merged_new.Remove(attr);
  }
  update.old_record = MergeRecords(image, update.old_record);
  update.new_record = std::move(merged_new);
  return update;
}

Status UpdateManager::AcquireEntryLock(const ldap::Dn& dn,
                                       uint64_t session) {
  Status status = gateway_->LockEntry(dn, session);
  for (int attempt = 0; attempt < config_.ddu_lock_retries; ++attempt) {
    if (status.ok() || (status.code() != StatusCode::kConflict &&
                        status.code() != StatusCode::kDeadlineExceeded)) {
      break;
    }
    // The holder is usually a client write or another DDU one
    // propagation round away from finishing: back off (doubling per
    // attempt) instead of dropping the device update on the floor.
    counters_.lock_retries.fetch_add(1, std::memory_order_relaxed);
    // Doubling, capped at 64x so long retry budgets poll steadily
    // instead of sleeping for geometric ages.
    int64_t backoff = config_.ddu_lock_retry_backoff_micros
                      << std::min(attempt, 6);
    if (!SleepInterruptible(backoff)) {
      return Status::Unavailable("update manager is shut down");
    }
    status = gateway_->LockEntry(dn, session);
  }
  return status;
}

bool UpdateManager::SleepInterruptible(int64_t micros) {
  if (micros <= 0) return !stopping();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(micros);
  MutexLock lock(&shutdown_mutex_);
  while (!stopping_) {
    if (!shutdown_cv_.WaitUntil(lock, deadline)) return true;  // Slept.
  }
  return false;  // Stopping: the caller bails to its release path.
}

bool UpdateManager::stopping() const {
  MutexLock lock(&shutdown_mutex_);
  return stopping_;
}

uint64_t UpdateManager::stop_epoch() const {
  MutexLock lock(&shutdown_mutex_);
  return stop_epoch_;
}

void UpdateManager::ReleaseLocks(const std::vector<ldap::Dn>& locked,
                                 uint64_t session) {
  for (auto it = locked.rbegin(); it != locked.rend(); ++it) {
    gateway_->UnlockEntry(*it, session);
  }
}

std::string UpdatePlan::ToString() const {
  std::string out;
  for (const PlannedOp& op : ops) {
    if (!out.empty()) out += " -> ";
    out += std::string(lexpress::DescriptorOpName(op.update.op)) + "@" +
           op.repository;
    if (op.update.conditional) out += "?";
  }
  return out;
}

StatusOr<UpdatePlan> UpdateManager::PlanUpdate(
    const lexpress::UpdateDescriptor& ldap_update, bool ldap_current) {
  return PlanUpdate(ldap_update, ldap_current, /*vm=*/nullptr);
}

StatusOr<UpdatePlan> UpdateManager::PlanUpdate(
    const lexpress::UpdateDescriptor& ldap_update, bool ldap_current,
    lexpress::Vm* vm) {
  UpdatePlan plan;

  if (ldap_update.op == lexpress::DescriptorOp::kDelete) {
    if (!ldap_current) {
      PlannedOp directory_delete;
      directory_delete.repository = "ldap";
      directory_delete.update = ldap_update;
      directory_delete.update.conditional = true;  // Idempotent view op.
      plan.ops.push_back(std::move(directory_delete));
    }
    for (RepositoryFilter* filter : filters_) {
      METACOMM_ASSIGN_OR_RETURN(
          std::optional<lexpress::UpdateDescriptor> translated,
          filter->from_ldap().Translate(ldap_update, vm));
      if (!translated.has_value()) continue;
      PlannedOp device_delete;
      device_delete.repository = filter->name();
      device_delete.update = std::move(*translated);
      plan.ops.push_back(std::move(device_delete));
    }
    plan.final_ldap = lexpress::Record("ldap");
    return plan;
  }

  // ---- Add / Modify ----
  // Base images for the closure: the directory's old image plus each
  // device schema's derived old image.
  std::map<std::string, lexpress::Record, CaseInsensitiveLess> base;
  base.emplace("ldap", ldap_update.old_record);
  for (RepositoryFilter* filter : filters_) {
    if (base.count(filter->schema()) > 0) continue;
    StatusOr<bool> in_partition =
        filter->from_ldap().PartitionAccepts(ldap_update.old_record, vm);
    if (!in_partition.ok() || !*in_partition) continue;
    StatusOr<lexpress::Record> derived =
        filter->from_ldap().MapRecord(ldap_update.old_record, vm);
    if (derived.ok()) base.emplace(filter->schema(), std::move(*derived));
  }

  METACOMM_ASSIGN_OR_RETURN(
      lexpress::ClosureResult closure,
      mappings_.Propagate(base, "ldap", ldap_update.new_record,
                          ldap_update.explicit_attrs,
                          config_.closure_max_iterations, vm));
  plan.closure_iterations = closure.iterations;
  plan.final_ldap = closure.records["ldap"];
  plan.final_ldap.set_schema("ldap");

  // The directory op leads the plan (device translation reads its
  // final image); Path A applies it after the devices.
  PlannedOp directory_op;
  directory_op.repository = "ldap";
  directory_op.update = ldap_update;
  directory_op.update.new_record = plan.final_ldap;
  directory_op.update.conditional = ldap_current || ldap_update.conditional;
  plan.ops.push_back(std::move(directory_op));

  lexpress::UpdateDescriptor fanout = ldap_update;
  fanout.new_record = plan.final_ldap;
  for (RepositoryFilter* filter : filters_) {
    METACOMM_ASSIGN_OR_RETURN(
        std::optional<lexpress::UpdateDescriptor> translated,
        filter->from_ldap().Translate(fanout, vm));
    if (!translated.has_value()) continue;
    // An unchanged image needs no conversation (§5.4 reapplications go).
    if (translated->op == lexpress::DescriptorOp::kModify &&
        !translated->conditional &&
        translated->old_record.attrs() == translated->new_record.attrs()) {
      continue;
    }
    PlannedOp device_op;
    device_op.repository = filter->name();
    device_op.update = std::move(*translated);
    plan.ops.push_back(std::move(device_op));
  }
  return plan;
}

Status UpdateManager::BackfillGeneratedInfo(
    const lexpress::UpdateDescriptor& ldap_update, const UpdatePlan& plan,
    const std::vector<DeviceResult>& results, bool write_back) {
  // Device-generated information (§5.5): after all other devices are
  // updated, fold anything the devices MINTED (e.g. the messaging
  // platform's SubscriberId) back into the directory. Minted means it
  // differs from the image we sent — an echo of a value the device was
  // given is not generated information, and must never overwrite
  // explicitly set directory attributes (§4.2's conflict rule).
  lexpress::Record generated("ldap");
  for (const DeviceResult& device : results) {
    StatusOr<lexpress::Record> result_mapped =
        device.filter->to_ldap().MapRecord(device.result);
    if (!result_mapped.ok()) continue;
    StatusOr<lexpress::Record> sent_mapped =
        device.filter->to_ldap().MapRecord(device.sent);
    for (const auto& [attr, value] : result_mapped->attrs()) {
      if (EqualsIgnoreCase(attr, kLastUpdaterAttr)) continue;
      if (ldap_update.explicit_attrs.count(attr) > 0) continue;
      if (sent_mapped.ok() && sent_mapped->Get(attr) == value) {
        continue;  // Echo of what we sent, not device-generated.
      }
      if (!(plan.final_ldap.Get(attr) == value)) {
        generated.Set(attr, value);
      }
    }
  }
  if (generated.empty() && !write_back) return Status::Ok();
  // A write-back diffs from the client's old image: closure removals land.
  lexpress::UpdateDescriptor backfill{
      .op = lexpress::DescriptorOp::kModify,
      .schema = "ldap",
      .old_record = write_back ? ldap_update.old_record : plan.final_ldap,
      .new_record = MergeRecords(plan.final_ldap, generated),
      .source = ldap_update.source,
      .conditional = true};
  ApplyResult applied = ldap_filter_->Apply(backfill);
  if (!applied.ok()) {
    HandleError(applied.status(), backfill);
    return applied.status();
  }
  counters_.generated_info.fetch_add(generated.empty() ? 0 : 1,
                                     std::memory_order_relaxed);
  return Status::Ok();
}

void UpdateManager::SettleItem(WorkItem& item, const Status& status,
                               bool processed) {
  ReleaseLocks(item.locked, item.lock_session);
  item.status = status;
  if (item.done) item.done->set_value(status);
  if (processed) {
    SettleIntent(item.intent_id);
  } else {
    counters_.shutdown_drained.fetch_add(1, std::memory_order_relaxed);
  }
}

void UpdateManager::ProcessBatch(std::vector<WorkItem>& items, uint64_t epoch,
                                 lexpress::Vm* vm) {
  // Wave partitioning: consecutive items touching DISJOINT entities
  // propagate together; a repeated entity starts the next wave so
  // per-entity ordering is preserved exactly.
  const std::string& key_attr = ldap_filter_->key_attr();
  size_t next = 0;
  while (next < items.size()) {
    if (stop_epoch() != epoch) {
      // Stop() raced the batch: fail what we have not yet propagated,
      // exactly as Stop()'s drain fails items still in the queue.
      for (; next < items.size(); ++next) {
        SettleItem(items[next],
                   Status::Unavailable("update manager is shut down"),
                   /*processed=*/false);
      }
      return;
    }
    std::set<std::string, CaseInsensitiveLess> wave_keys;
    const size_t begin = next;
    for (; next < items.size(); ++next) {
      const lexpress::UpdateDescriptor& update = items[next].descriptor;
      std::string old_key = update.old_record.GetFirst(key_attr);
      std::string new_key = update.new_record.GetFirst(key_attr);
      if (wave_keys.count(old_key) > 0 || wave_keys.count(new_key) > 0) {
        break;  // Same entity again: next wave.
      }
      if (!old_key.empty()) wave_keys.insert(std::move(old_key));
      if (!new_key.empty()) wave_keys.insert(std::move(new_key));
    }
    PropagateWave(std::span(items).subspan(begin, next - begin), vm);
  }
}

namespace {

/// The device's record before `update` applies (saga undo's
/// pre-image); nullopt when the record is absent or unreadable.
std::optional<lexpress::Record> FetchPrior(
    RepositoryFilter* filter, const lexpress::UpdateDescriptor& update) {
  std::string key = update.old_record.GetFirst(filter->key_attr());
  if (key.empty()) key = update.new_record.GetFirst(filter->key_attr());
  StatusOr<std::optional<lexpress::Record>> fetched = filter->Fetch(key);
  if (!fetched.ok()) return std::nullopt;
  return *fetched;
}

/// The compensating update that reverts an applied `update` on a
/// device whose record was `prior` before it (saga undo).
lexpress::UpdateDescriptor InverseOf(
    const lexpress::UpdateDescriptor& update,
    const std::optional<lexpress::Record>& prior) {
  lexpress::UpdateDescriptor inverse;
  inverse.schema = update.schema;
  inverse.source = "metacomm-undo";
  inverse.conditional = true;
  switch (update.op) {
    case lexpress::DescriptorOp::kAdd:
      inverse.op = lexpress::DescriptorOp::kDelete;
      inverse.old_record = update.new_record;
      break;
    case lexpress::DescriptorOp::kModify:
      inverse.op = prior.has_value() ? lexpress::DescriptorOp::kModify
                                     : lexpress::DescriptorOp::kDelete;
      inverse.old_record = update.new_record;
      if (prior.has_value()) inverse.new_record = *prior;
      break;
    case lexpress::DescriptorOp::kDelete:
      inverse.op = lexpress::DescriptorOp::kAdd;
      if (prior.has_value()) inverse.new_record = *prior;
      break;
  }
  return inverse;
}

}  // namespace

void UpdateManager::PropagateWave(std::span<WorkItem> wave,
                                  lexpress::Vm* vm) {
  // One planned-and-alive propagation per item in the wave.
  struct LiveUnit {
    WorkItem* item;
    lexpress::UpdateDescriptor update;  // Integrated schema, hydrated.
    UpdatePlan plan;
    std::vector<DeviceResult> results;
    /// Saga undo: inverses of this unit's device applies, in order.
    std::vector<std::pair<RepositoryFilter*, lexpress::UpdateDescriptor>>
        undo;
    Status status = Status::Ok();
    /// The directory write failed (no device fan-out), or the unit
    /// failed at a repository under saga undo (compensated at the
    /// others): no §5.5 round.
    bool stopped = false;
  };
  std::vector<LiveUnit> live;
  live.reserve(wave.size());
  for (WorkItem& item : wave) {
    LiveUnit lu;
    lu.item = &item;
    lu.update = item.hydrate ? HydrateDeviceUpdate(std::move(item.descriptor))
                             : std::move(item.descriptor);
    StatusOr<UpdatePlan> plan =
        item.push ? UpdatePlan{{*item.push}, lu.update.new_record}
                  : PlanUpdate(lu.update, item.ldap_current, vm);
    if (!plan.ok()) {
      // Closure fixpoint failure (runtime cycle detection, §4.2) or a
      // mapping evaluation error.
      HandleError(plan.status(), lu.update);
      SettleItem(item, plan.status(), /*processed=*/true);
      continue;
    }
    counters_.closure_iterations.fetch_add(
        static_cast<uint64_t>(plan->closure_iterations),
        std::memory_order_relaxed);
    lu.plan = std::move(*plan);
    live.push_back(std::move(lu));
  }
  if (live.empty()) return;

  // The emulated per-conversation processing cost is paid ONCE for the
  // whole wave — this sharing, together with the shared device
  // sessions below, is where batching buys its throughput.
  if (config_.artificial_processing_delay_micros > 0) {
    if (!SleepInterruptible(config_.artificial_processing_delay_micros)) {
      Status stopped = Status::Unavailable("update manager is shut down");
      for (LiveUnit& lu : live) {
        SettleItem(*lu.item, stopped, /*processed=*/false);
      }
      return;
    }
    if (live.size() > 1) {
      counters_.rtts_saved.fetch_add(live.size() - 1,
                                     std::memory_order_relaxed);
    }
  }

  // Phase 1 — directory writes of DDUs and Synchronize upserts. A
  // failed view write aborts THAT unit's sequence (§4.4), not the wave.
  // A unit with a durable intent does not wait for its write's fsync:
  // the write is in the log before the unit settles, and so before the
  // intent's resolve record (DESIGN.md "Durability & recovery").
  for (LiveUnit& lu : live) {
    if (lu.item->ldap_current) continue;
    for (const PlannedOp& op : lu.plan.ops) {
      if (!EqualsIgnoreCase(op.repository, "ldap")) continue;
      ApplyResult applied =
          ldap_filter_->Apply(op.update, lu.item->intent_id != 0);
      if (applied.ok()) continue;
      HandleError(applied.status(), op.update);
      if (lu.status.ok()) lu.status = applied.status();
      lu.stopped = true;
    }
  }

  // Phase 2 — device fan-out, one conversation per repository for the
  // whole wave and every repository at once: they are autonomous, and
  // no conversation reads another's result. Results settle in filter
  // order once all have returned. Device-side failures are logged and
  // notified but do not fail the originating operation (§4.4); they
  // fail a push unit, whose outcome is its one apply.
  std::vector<std::shared_ptr<Conversation>> conversations;
  for (RepositoryFilter* filter : filters_) {
    auto conversation = std::make_shared<Conversation>();
    conversation->filter = filter;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].stopped) continue;
      for (PlannedOp& op : live[i].plan.ops) {
        if (!EqualsIgnoreCase(op.repository, filter->name())) continue;
        if (op.update.conditional && !live[i].item->push) {
          // Reapplication to the originator (§5.4).
          if (!config_.reapply_to_originator) continue;
          counters_.reapplications.fetch_add(1, std::memory_order_relaxed);
        }
        conversation->updates.push_back(std::move(op.update));
        conversation->owners.push_back(i);
      }
    }
    if (!conversation->updates.empty()) {
      conversations.push_back(std::move(conversation));
    }
  }
  ConverseAll(conversations);
  for (const std::shared_ptr<Conversation>& conversation : conversations) {
    RepositoryFilter* filter = conversation->filter;
    for (size_t i = 0; i < conversation->applied.size(); ++i) {
      LiveUnit& owner = live[conversation->owners[i]];
      lexpress::UpdateDescriptor& update = conversation->updates[i];
      ApplyResult& applied = conversation->applied[i];
      if (!applied.ok()) {
        // An unlogged failure nothing will repair: the unit fails with the
        // log write. A push unit's outcome is its apply.
        Status failed = owner.item->redrive
                            ? applied.status()
                            : HandleFailure(filter->name(), applied.outcome(),
                                            applied.status(), update);
        if (owner.item->push && failed.ok()) failed = applied.status();
        if (owner.status.ok()) owner.status = failed;
        // Saga undo compensates the unit everywhere else, below.
        if (config_.saga_undo) owner.stopped = true;
        continue;
      }
      counters_.device_applies.fetch_add(1, std::memory_order_relaxed);
      if (config_.saga_undo) {
        owner.undo.emplace_back(filter,
                                InverseOf(update, conversation->priors[i]));
      }
      if (update.op != lexpress::DescriptorOp::kDelete) {
        owner.results.push_back(DeviceResult{
            filter, std::move(update.new_record), std::move(*applied)});
      }
    }
  }
  // Compensate a failed unit's applies everywhere else; the failure was
  // logged and notified and the directory write stands (§4.4: errors
  // are repaired out-of-band). A unit stopped in phase 1 applied none.
  for (LiveUnit& lu : live) {
    if (lu.stopped) UndoApplied(lu.undo);
  }

  // Phase 3 — one directory write: Path A's closure image plus the §5.5
  // round (skipped when stopped: no write without Path A's image). A
  // failed write fails the unit.
  for (LiveUnit& lu : live) {
    if (lu.update.op != lexpress::DescriptorOp::kDelete) {
      if (lu.stopped) lu.results.clear();
      Status written = BackfillGeneratedInfo(lu.update, lu.plan, lu.results,
                                             lu.item->ldap_current);
      if (lu.status.ok()) lu.status = written;
    }
    SettleItem(*lu.item, lu.status, /*processed=*/true);
  }
}

void UpdateManager::Converse(Conversation& conversation) {
  RepositoryFilter* filter = conversation.filter;
  const std::vector<lexpress::UpdateDescriptor>& updates = conversation.updates;
  if (config_.saga_undo) {
    for (const lexpress::UpdateDescriptor& update : updates) {
      conversation.priors.push_back(FetchPrior(filter, update));
    }
  }
  CircuitBreaker& breaker = *breakers_.at(filter->name());
  if (!breaker.Allow(RealClock::Get()->NowMicros())) {
    // Open circuit: no administrative conversation is even opened. The
    // wave logs each update replayably; the healthy repositories'
    // fan-out is untouched, which is the breaker's whole point.
    counters_.breaker_open_skips.fetch_add(updates.size(),
                                           std::memory_order_relaxed);
    conversation.applied.assign(
        updates.size(), ApplyResult::SkippedOpenCircuit(filter->name()));
  } else {
    conversation.applied = filter->ApplyBatch(updates);
    if (updates.size() > 1) {
      counters_.rtts_saved.fetch_add(updates.size() - 1,
                                     std::memory_order_relaxed);
    }
    // A permanent rejection is proof of life, as an apply is.
    for (const ApplyResult& result : conversation.applied) {
      if (result.outcome() == ApplyOutcome::kRetryable) {
        breaker.OnRetryableFailure(RealClock::Get()->NowMicros());
      } else {
        breaker.OnSuccess();
      }
    }
  }
  conversation.done.set_value();
}

void UpdateManager::ConverseAll(
    const std::vector<std::shared_ptr<Conversation>>& conversations) {
  // A threaded UM offers all but the first conversation to its helpers
  // (a closed queue drops the offer). This thread then claims the first
  // and every one no helper has claimed, so a wave is never slower than
  // going in turn; no lock is held during a conversation.
  for (size_t i = 1; config_.threaded && i < conversations.size(); ++i) {
    offers_.Push([this, conversation = conversations[i]] {
      if (!conversation->claimed.exchange(true)) Converse(*conversation);
    });
  }
  for (const std::shared_ptr<Conversation>& conversation : conversations) {
    if (!conversation->claimed.exchange(true)) Converse(*conversation);
  }
  for (const std::shared_ptr<Conversation>& conversation : conversations) {
    conversation->done.get_future().wait();
  }
}

void UpdateManager::UndoApplied(
    const std::vector<std::pair<RepositoryFilter*,
                                lexpress::UpdateDescriptor>>& applied) {
  // Compensate in reverse order, saga-style (§4.4's planned "later
  // version", built as an extension here).
  for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
    ApplyResult result = it->first->Apply(it->second);
    if (!result.ok()) {
      METACOMM_LOG(kWarning) << "saga undo failed at " << it->first->name()
                             << ": " << result.status().ToString();
      continue;
    }
    counters_.undos.fetch_add(1, std::memory_order_relaxed);
  }
}

void UpdateManager::HandleError(const Status& error,
                                const lexpress::UpdateDescriptor& update) {
  // No replay target: the entry is audit-only (kPermanent, no
  // errorRepository), whatever the status code said. Its caller fails
  // with `error` already.
  (void)HandleFailure(/*repository=*/"", ApplyOutcome::kPermanent, error,
                      update);
}

Status UpdateManager::HandleFailure(const std::string& repository,
                                    ApplyOutcome outcome, const Status& error,
                                    const lexpress::UpdateDescriptor& update) {
  // Saga mode compensates the whole sequence on failure; replaying the
  // failed update later would undo the compensation, so its error
  // entry is audit-only.
  const std::string replay_repository =
      config_.saga_undo ? "" : repository;
  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  METACOMM_LOG(kWarning) << "update failed: " << error.ToString() << " ("
                         << update.ToString() << ")";
  // "an error is logged into the directory, and a notification is sent
  // to the administrator. The administrator can browse through the
  // errors and manually fix the resulting inconsistencies" (§4.4).
  // Retryable failures additionally carry the serialized descriptor,
  // so "manually" is now optional: the repair worker re-drives them
  // once the repository recovers.
  Status logged = Status::Ok();
  if (!config_.error_base.empty()) {
    uint64_t seq = error_sequence_.fetch_add(1) + 1;
    StatusOr<ldap::Dn> base = ldap::Dn::Parse(config_.error_base);
    logged = base.status();
    if (base.ok()) {
      ldap::Entry entry(
          base->Child(ldap::Rdn("cn", "error-" + std::to_string(seq))));
      entry.AddObjectClass("top");
      entry.AddObjectClass(kMetacommErrorClass);
      entry.SetOne("cn", "error-" + std::to_string(seq));
      entry.SetOne("errorText", error.ToString());
      entry.SetOne("errorTarget", update.schema);
      entry.SetOne("errorTime",
                   std::to_string(RealClock::Get()->NowMicros()));
      entry.SetOne("description", update.ToString());
      LoggedFailure failure;
      failure.sequence = seq;
      failure.repository = replay_repository;
      failure.outcome = outcome;
      failure.error = error;
      failure.update = update;
      EncodeFailure(failure, &entry);
      ldap::OpContext ctx;
      ctx.principal = "cn=metacomm";
      ctx.internal = true;
      logged = gateway_->Add(ctx, ldap::AddRequest{entry});
    }
    if (!logged.ok()) {
      METACOMM_LOG(kWarning) << "error-log write failed: "
                             << logged.ToString();
    }
  }
  // Copy under the lock, invoke outside it: worker threads reach here
  // while tests may concurrently swap the callback via
  // set_admin_callback (the unguarded read was a real race).
  AdminCallback callback;
  {
    MutexLock lock(&admin_mutex_);
    callback = admin_callback_;
  }
  if (callback) callback(error, update);
  return logged;
}

CircuitBreaker* UpdateManager::breaker(const std::string& repository) const {
  auto it = breakers_.find(repository);
  return it == breakers_.end() ? nullptr : it->second.get();
}

void UpdateManager::RepairLoop() {
  // SleepInterruptible returns false the moment Stop() raises
  // stopping_, so shutdown never waits out a scan interval.
  while (SleepInterruptible(config_.repair_scan_interval_micros)) {
    Status status = RunRepairPass();
    if (!status.ok()) {
      METACOMM_LOG(kWarning) << "repair pass failed: "
                             << status.ToString();
    }
  }
}

StatusOr<std::vector<ldap::Entry>> UpdateManager::ErrorEntries() const {
  if (config_.error_base.empty()) return std::vector<ldap::Entry>();
  METACOMM_ASSIGN_OR_RETURN(ldap::Dn base,
                            ldap::Dn::Parse(config_.error_base));
  ldap::SearchRequest request;
  request.base = std::move(base);
  request.scope = ldap::Scope::kOneLevel;
  request.filter =
      ldap::Filter::Equality("objectClass", kMetacommErrorClass);
  ldap::OpContext ctx;
  ctx.principal = "cn=metacomm";
  ctx.internal = true;
  StatusOr<ldap::SearchResult> result = gateway_->Search(ctx, request);
  // No error container (nothing logged yet): no entries.
  if (result.status().code() == StatusCode::kNotFound) {
    return std::vector<ldap::Entry>();
  }
  METACOMM_RETURN_IF_ERROR(result.status());
  return std::move(result->entries);
}

StatusOr<UpdateManager::Backlog> UpdateManager::PendingReplays() const {
  METACOMM_ASSIGN_OR_RETURN(std::vector<ldap::Entry> entries, ErrorEntries());
  Backlog backlog;
  for (ldap::Entry& entry : entries) {
    StatusOr<LoggedFailure> parsed = ParseErrorEntry(entry);
    if (!parsed.ok() || !parsed->replayable()) continue;
    if (FindFilter(parsed->repository) == nullptr) continue;
    backlog[parsed->repository].emplace_back(std::move(*parsed),
                                             entry.dn());
  }
  for (auto& [repository, items] : backlog) {
    std::sort(items.begin(), items.end(),
              [](const PendingReplay& a, const PendingReplay& b) {
                return a.first.sequence < b.first.sequence;
              });
  }
  return backlog;
}

Status UpdateManager::RunRepairPass() {
  counters_.repair_passes.fetch_add(1, std::memory_order_relaxed);
  METACOMM_ASSIGN_OR_RETURN(Backlog pending, PendingReplays());
  Status first_error = Status::Ok();
  for (const auto& [repository, backlog] : pending) {
    if (stopping()) break;
    Status redriven = RedriveBacklog(FindFilter(repository), backlog,
                                     stop_epoch(), /*sync=*/nullptr);
    if (ClassifyStatus(redriven) != ApplyOutcome::kPermanent || stopping()) {
      continue;  // Applied, or the device is still down: the next pass.
    }
    // The device rejected the directory's own image: fall back to full
    // resynchronization (§4.1), which re-drives the backlog and settles
    // what the device still rejects with its device-wins pull.
    METACOMM_LOG(kWarning) << repository << ": falling back to sync: "
                           << redriven.ToString();
    counters_.repair_syncs.fetch_add(1, std::memory_order_relaxed);
    Status synced = Synchronize(repository);
    if (!synced.ok() && first_error.ok()) first_error = synced;
  }
  return first_error;
}

Status UpdateManager::RedriveBacklog(RepositoryFilter* filter,
                                     const std::vector<PendingReplay>& backlog,
                                     uint64_t epoch,
                                     std::set<std::string>* sync) {
  const bool lock = sync == nullptr;
  const std::string& key_attr = filter->key_attr();
  auto keys_of = [&](const PendingReplay& entry) {
    const lexpress::UpdateDescriptor& update = entry.first.update;
    return std::array{update.old_record.GetFirst(key_attr),
                      update.new_record.GetFirst(key_attr)};
  };
  std::vector<std::string> keys;        // First-seen errorSeq order.
  std::map<std::string, bool> settled;  // Per key: its unit settled.
  for (const PendingReplay& entry : backlog) {
    for (std::string& key : keys_of(entry)) {
      if (!key.empty() && settled.emplace(key, false).second) {
        keys.push_back(key);
        if (sync != nullptr) sync->insert(key);
      }
    }
  }
  auto holder = [&](const std::string& key)
      -> StatusOr<std::optional<ldap::Entry>> {
    lexpress::Record device_key(filter->schema());
    device_key.SetOne(key_attr, key);
    METACOMM_ASSIGN_OR_RETURN(lexpress::Record mapped,
                              filter->to_ldap().MapRecord(device_key));
    return Holder(filter, mapped);
  };

  Status first_failure = Status::Ok();
  auto send = [&](size_t begin, size_t end) {
    std::vector<WorkItem> batch;
    for (size_t k = begin; k < end; ++k) {
      StatusOr<std::optional<ldap::Entry>> image = holder(keys[k]);
      uint64_t session = 0;
      std::vector<ldap::Dn> locked;
      if (lock && image.ok() && *image) {
        // Hold the entity's lock, under a fresh session as any work
        // item's, from reading its image until the unit settles; a
        // busy, moved or unreadable key waits for the next pass.
        session = gateway_->NewSession();
        locked.push_back((*image)->dn());
        if (!gateway_->LockEntry(locked[0], session, /*timeout_micros=*/0)
                 .ok()) {
          continue;
        }
        image = holder(keys[k]);
        if (!image.ok() || (*image && !((*image)->dn() == locked[0]))) {
          ReleaseLocks(locked, session);
          continue;
        }
      }
      // A failed lookup or translation is not "no holder": the key
      // waits instead of being deleted.
      if (!image.ok()) continue;
      StatusOr<std::optional<WorkItem>> upsert = std::optional<WorkItem>();
      if (*image) upsert = PushUnit(filter, ldap_filter_->ToRecord(**image));
      if (!upsert.ok()) {
        ReleaseLocks(locked, session);
        continue;
      }
      WorkItem& unit =
          batch.emplace_back(std::move(*upsert).value_or(WorkItem()));
      if (!unit.push || unit.push->update.new_record.GetFirst(key_attr) !=
                            keys[k]) {
        // No entity in the partition holds the key: delete it.
        unit.descriptor = {.op = lexpress::DescriptorOp::kDelete};
        unit.push = std::make_unique<PlannedOp>(
            PlannedOp{filter->name(),
                      {.op = lexpress::DescriptorOp::kDelete,
                       .schema = filter->schema(),
                       .conditional = true}});
        unit.push->update.old_record.SetOne(key_attr, keys[k]);
      }
      unit.locked = std::move(locked);
      unit.lock_session = session;
      unit.redrive = true;
    }
    ProcessBatch(batch, epoch, /*vm=*/nullptr);
    for (const WorkItem& unit : batch) {
      const lexpress::UpdateDescriptor& pushed = unit.push->update;
      const std::string key = pushed.EffectiveRecord().GetFirst(key_attr);
      bool done = unit.status.ok();
      if (done && lock && unit.locked.empty() &&
          pushed.op == lexpress::DescriptorOp::kDelete) {
        // A delete found no holder to lock: an entity given the key
        // since keeps the entries, for its upsert on the next pass.
        StatusOr<std::optional<ldap::Entry>> now = holder(key);
        done = now.ok() && !now->has_value();
      }
      if (sync != nullptr &&
          ClassifyStatus(unit.status) == ApplyOutcome::kPermanent) {
        done = true;  // Synchronize's pull settles it: the device wins.
        sync->erase(key);
      }
      settled[key] = done;
      if (first_failure.ok()) first_failure = unit.status;
    }
    return !batch.empty();
  };
  // The oldest sendable key's unit goes alone, as a probe: a device
  // still failing costs one command per pass. The rest follow as one
  // batch (one wave, one conversation) once the device answered; a
  // permanent rejection is an answer, as it is to the breaker.
  // Synchronize needs no probe: the device has just answered its dump.
  size_t probe = 0;
  while (lock && probe < keys.size() && !send(probe, probe + 1)) ++probe;
  if (!lock || (probe < keys.size() && ClassifyStatus(first_failure) !=
                                           ApplyOutcome::kRetryable)) {
    send(lock ? probe + 1 : 0, keys.size());
  }

  // An entry retires once the units of all its keys settled.
  for (const PendingReplay& entry : backlog) {
    bool retire = true;
    for (const std::string& key : keys_of(entry)) {
      retire = retire && (key.empty() || settled[key]);
    }
    if (retire && DeleteErrorEntry(entry.second)) {
      counters_.replayed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return first_failure;
}

StatusOr<std::optional<UpdateManager::WorkItem>> UpdateManager::PushUnit(
    RepositoryFilter* filter, lexpress::Record image) {
  METACOMM_ASSIGN_OR_RETURN(
      std::optional<lexpress::UpdateDescriptor> upsert,
      filter->from_ldap().Translate({.op = lexpress::DescriptorOp::kAdd,
                                     .schema = "ldap",
                                     .new_record = image,
                                     .source = "ldap"}));
  if (!upsert.has_value()) return std::optional<WorkItem>();
  WorkItem unit;
  unit.descriptor = {.op = lexpress::DescriptorOp::kAdd,
                     .schema = "ldap",
                     .new_record = std::move(image)};
  unit.push =
      std::make_unique<PlannedOp>(PlannedOp{filter->name(), std::move(*upsert)});
  unit.push->update.conditional = true;  // Upsert semantics.
  return std::optional<WorkItem>(std::move(unit));
}

StatusOr<std::optional<ldap::Entry>> UpdateManager::Holder(
    RepositoryFilter* filter, const lexpress::Record& mapped) {
  const std::string& attr = filter->to_ldap().key_target_attr();
  return ldap_filter_->FindByAttr(attr, mapped.GetFirst(attr));
}

bool UpdateManager::DeleteErrorEntry(const ldap::Dn& dn) {
  ldap::OpContext ctx;
  ctx.principal = "cn=metacomm";
  ctx.internal = true;
  Status status = gateway_->Delete(ctx, ldap::DeleteRequest{dn});
  if (!status.ok() && status.code() != StatusCode::kNotFound) {
    METACOMM_LOG(kWarning) << "error-log delete failed: "
                           << status.ToString();
  }
  return status.ok();
}

Status UpdateManager::Synchronize(const std::string& device_name) {
  MutexLock sync_lock(&sync_mutex_);
  RepositoryFilter* filter = FindFilter(device_name);
  if (filter == nullptr) {
    return Status::NotFound("no filter for device: " + device_name);
  }
  // A Stop() *during* this synchronize interrupts it (the record loops
  // below bail on an epoch change), but a synchronize started after a
  // completed Stop() runs: resync after a UM halt is the §4.4 recovery
  // path and needs no workers.
  const uint64_t entry_epoch = stop_epoch();

  // Synchronize IS the administrative recovery path: re-admit traffic
  // to this repository unconditionally. If the device is still down,
  // the DumpAll below fails fast and the breaker re-opens on the next
  // propagation failures.
  if (CircuitBreaker* target_breaker = breaker(device_name)) {
    target_breaker->ForceClose();
  }

  // Quiesce: synchronization "must be applied in isolation" (§5.1).
  METACOMM_RETURN_IF_ERROR(gateway_->Quiesce(um_session_));
  struct Unquiesce {
    ltap::LtapGateway* gateway;
    uint64_t session;
    ~Unquiesce() { gateway->Unquiesce(session); }
  } unquiesce{gateway_, um_session_};

  StatusOr<std::vector<lexpress::Record>> dump = filter->DumpAll();
  if (!dump.ok()) return dump.status();

  // Repair before the pull: the device takes the directory's image of
  // every key its backlog names, or the device-wins pull would roll
  // acked writes back. The dump predates the re-drive, so the pull and
  // push leave those keys alone, but for the ones the device rejected.
  METACOMM_ASSIGN_OR_RETURN(Backlog pending, PendingReplays());
  std::set<std::string> redriven;
  if (auto backlog = pending.find(device_name); backlog != pending.end()) {
    (void)RedriveBacklog(filter, backlog->second, entry_epoch, &redriven);
  }

  const std::string& device_key_attr = filter->key_attr();

  // Device -> directory (and, through the propagation pipeline, to
  // other devices that share the data being synchronized).
  std::set<std::string> device_keys;
  Status first_error = Status::Ok();
  for (const lexpress::Record& record : *dump) {
    if (stop_epoch() != entry_epoch) {
      return Status::Unavailable("update manager is shut down");
    }
    const std::string& key = record.GetFirst(device_key_attr);
    device_keys.insert(key);
    if (redriven.count(key) > 0) continue;

    lexpress::UpdateDescriptor as_add;
    as_add.op = lexpress::DescriptorOp::kAdd;
    as_add.schema = filter->schema();
    as_add.source = filter->name();
    as_add.new_record = record;
    StatusOr<std::optional<lexpress::UpdateDescriptor>> translated =
        filter->to_ldap().Translate(as_add);
    if (!translated.ok() || !translated->has_value()) continue;
    lexpress::Record mapped = (*translated)->new_record;

    StatusOr<std::optional<ldap::Entry>> found = Holder(filter, mapped);
    std::optional<ldap::Entry> existing;
    if (found.ok()) existing = *found;

    lexpress::UpdateDescriptor upsert;
    upsert.schema = "ldap";
    upsert.source = filter->name();
    upsert.conditional = true;
    if (existing.has_value()) {
      upsert.op = lexpress::DescriptorOp::kModify;
      upsert.old_record = ldap_filter_->ToRecord(*existing);
      upsert.new_record = MergeRecords(upsert.old_record, mapped);
    } else {
      upsert.op = lexpress::DescriptorOp::kAdd;
      upsert.new_record = mapped;
    }
    for (const auto& [attr, value] : mapped.attrs()) {
      upsert.explicit_attrs.insert(attr);
    }
    upsert.explicit_attrs.erase(kLastUpdaterAttr);
    // Quiesce stands in for entry locks, and the upsert carries the
    // directory's full image: neither current nor to be hydrated.
    WorkItem item;
    item.descriptor = std::move(upsert);
    Status status = ProcessOne(std::move(item), entry_epoch);
    if (!status.ok() && first_error.ok()) first_error = status;
  }

  // Directory -> device: entries in this device's partition that the
  // device lost (disconnected operation, §4.4) are pushed back, as one
  // batch of push units.
  StatusOr<std::vector<lexpress::Record>> directory =
      ldap_filter_->DumpAll();
  if (!directory.ok()) return directory.status();
  std::vector<WorkItem> pushes;
  for (lexpress::Record& image : *directory) {
    StatusOr<std::optional<WorkItem>> unit = PushUnit(filter, std::move(image));
    if (!unit.ok() || !unit->has_value()) continue;
    std::string key = (*unit)->push->update.new_record.GetFirst(device_key_attr);
    if (!key.empty() && device_keys.count(key) + redriven.count(key) == 0) {
      pushes.push_back(std::move(**unit));
    }
  }
  ProcessBatch(pushes, entry_epoch, /*vm=*/nullptr);
  for (const WorkItem& unit : pushes) {
    if (!unit.status.ok() && first_error.ok()) first_error = unit.status;
  }

  counters_.syncs.fetch_add(1, std::memory_order_relaxed);
  return first_error;
}

Status UpdateManager::SynchronizeAll() {
  Status first_error = Status::Ok();
  for (RepositoryFilter* filter : filters_) {
    Status status = Synchronize(filter->name());
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

UpdateManager::Stats UpdateManager::stats() const {
  constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  Stats out;
  out.ldap_updates = counters_.ldap_updates.load(kRelaxed);
  out.device_updates = counters_.device_updates.load(kRelaxed);
  out.device_applies = counters_.device_applies.load(kRelaxed);
  out.reapplications = counters_.reapplications.load(kRelaxed);
  out.generated_info = counters_.generated_info.load(kRelaxed);
  out.errors = counters_.errors.load(kRelaxed);
  out.undos = counters_.undos.load(kRelaxed);
  out.closure_iterations = counters_.closure_iterations.load(kRelaxed);
  out.syncs = counters_.syncs.load(kRelaxed);
  out.lock_retries = counters_.lock_retries.load(kRelaxed);
  out.shutdown_drained = counters_.shutdown_drained.load(kRelaxed);
  out.batches = counters_.batches.load(kRelaxed);
  out.rtts_saved = counters_.rtts_saved.load(kRelaxed);
  out.breaker_open_skips = counters_.breaker_open_skips.load(kRelaxed);
  out.replayed = counters_.replayed.load(kRelaxed);
  out.repair_passes = counters_.repair_passes.load(kRelaxed);
  out.repair_syncs = counters_.repair_syncs.load(kRelaxed);
  for (size_t i = 0; i < out.batch_size_buckets.size(); ++i) {
    out.batch_size_buckets[i] = counters_.batch_size_buckets[i].load(kRelaxed);
  }
  ShardStats& queue = out.shards.emplace_back();
  queue.enqueued = queue_counters_.enqueued.load(kRelaxed);
  queue.dequeued = queue_counters_.dequeued.load(kRelaxed);
  queue.max_depth = queue_counters_.max_depth.load(kRelaxed);
  queue.queue_wait_micros = queue_counters_.queue_wait_micros.load(kRelaxed);
  queue.depth = queue_.Size();
  // An unreadable error log reads as no backlog.
  StatusOr<Backlog> backlog = PendingReplays();
  out.repositories.reserve(filters_.size());
  for (RepositoryFilter* filter : filters_) {
    Stats::RepositoryStats repo;
    repo.name = filter->name();
    if (const CircuitBreaker* breaker = this->breaker(filter->name())) {
      repo.breaker = breaker->snapshot();
    }
    repo.health = filter->Health();
    if (backlog.ok()) {
      auto pending = backlog->find(filter->name());
      if (pending != backlog->end()) {
        repo.replay_backlog = pending->second.size();
      }
    }
    out.repositories.push_back(std::move(repo));
  }
  return out;
}

}  // namespace metacomm::core
