#include "core/update_manager.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/blocking_wait.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/coalescer.h"
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
      config_(config),
      queue_(static_cast<size_t>(std::max(1, config.worker_threads))) {
  um_session_ = gateway_->NewSession();
  stats_.shards.resize(queue_.shard_count());
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
  // single coordinator; more workers keep one strict FIFO per shard,
  // which is all the §4.4 convergence argument needs — it reasons
  // about the order of updates to one entry, never across entries.
  workers_.reserve(queue_.shard_count());
  for (size_t shard = 0; shard < queue_.shard_count(); ++shard) {
    workers_.emplace_back([this, shard, epoch] { WorkerLoop(shard, epoch); });
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
  // The queue died with items still in it: release their entry locks
  // and fail their callers, instead of leaving locks held forever and
  // threaded OnUpdate callers hanging in done.get().
  std::vector<WorkItem> abandoned = queue_.Drain();
  for (WorkItem& item : abandoned) {
    ReleaseLocks(item.locked, item.lock_session);
    if (item.done) {
      item.done->set_value(
          Status::Unavailable("update manager is shut down"));
    }
  }
  if (!abandoned.empty()) {
    MutexLock lock(&stats_mutex_);
    stats_.shutdown_drained += abandoned.size();
  }
}

void UpdateManager::WorkerLoop(size_t shard, uint64_t epoch) {
  const size_t max_batch =
      static_cast<size_t>(std::max(1, config_.max_batch_size));
  // The worker's lexpress interpreter: its stack, value pool and record
  // view persist across every item this worker ever processes, so the
  // closure/translation hot path runs allocation-free in steady state.
  lexpress::Vm vm;
  while (true) {
    std::vector<WorkItem> batch = queue_.PopBatch(shard, max_batch);
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
  MutexLock lock(&stats_mutex_);
  ++stats_.batches;
  ++stats_.batch_size_buckets[bucket];
  for (const WorkItem& item : batch) {
    ShardStats& stats = stats_.shards[item.shard];
    ++stats.dequeued;
    int64_t waited = now - item.enqueue_micros;
    if (waited > 0) stats.queue_wait_micros += static_cast<uint64_t>(waited);
  }
}

bool UpdateManager::Enqueue(WorkItem item) {
  item.enqueue_micros = RealClock::Get()->NowMicros();
  size_t shard = item.shard;
  if (!queue_.Push(shard, std::move(item))) return false;
  MutexLock lock(&stats_mutex_);
  ShardStats& stats = stats_.shards[shard];
  ++stats.enqueued;
  stats.max_depth =
      std::max<uint64_t>(stats.max_depth, queue_.Depth(shard));
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
  // Same-entry FIFO: the shard is chosen from the first (normalized,
  // sorted) locked DN, so every update touching that entry lands on the
  // same worker. DN-less items carry no ordering constraint.
  item.shard = item.locked.empty()
                   ? queue_.NextShard()
                   : queue_.ShardFor(item.locked.front().Normalized());
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
  {
    MutexLock lock(&stats_mutex_);
    ++stats_.ldap_updates;
  }
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
  // (§4.4). Routed by the updated entry's DN: a later update to the
  // same entry (the client holds its lock until we return, so it can
  // only be later) queues behind this one on the same shard.
  item.shard = queue_.ShardFor(notification.dn.Normalized());
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
  {
    MutexLock lock(&stats_mutex_);
    ++stats_.device_updates;
  }
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
    {
      MutexLock lock(&stats_mutex_);
      ++stats_.lock_retries;
    }
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

  // The directory write comes first: the materialized view is the
  // system of record, and device translation reads its final image.
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
    PlannedOp device_op;
    device_op.repository = filter->name();
    device_op.update = std::move(*translated);
    plan.ops.push_back(std::move(device_op));
  }
  return plan;
}

Status UpdateManager::BackfillGeneratedInfo(
    const lexpress::UpdateDescriptor& ldap_update, const UpdatePlan& plan,
    const std::vector<DeviceResult>& results) {
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
  if (generated.empty()) return Status::Ok();
  lexpress::UpdateDescriptor backfill;
  backfill.op = lexpress::DescriptorOp::kModify;
  backfill.schema = "ldap";
  backfill.source = ldap_update.source;
  backfill.conditional = true;
  backfill.old_record = plan.final_ldap;
  backfill.new_record = MergeRecords(plan.final_ldap, generated);
  ApplyResult applied = ldap_filter_->Apply(backfill);
  if (!applied.ok()) {
    HandleError(applied.status(), backfill);
    return applied.status();
  }
  MutexLock lock(&stats_mutex_);
  ++stats_.generated_info;
  return Status::Ok();
}

void UpdateManager::SettleUnit(const CoalescedUnit& unit,
                               std::vector<WorkItem>& items,
                               const Status& status, bool processed) {
  for (size_t index : unit.constituents) {
    WorkItem& item = items[index];
    ReleaseLocks(item.locked, item.lock_session);
    item.status = status;
    if (item.done) item.done->set_value(status);
    if (processed) SettleIntent(item.intent_id);
  }
  if (!processed) {
    MutexLock lock(&stats_mutex_);
    stats_.shutdown_drained += unit.constituents.size();
  }
}

void UpdateManager::ProcessBatch(std::vector<WorkItem>& items, uint64_t epoch,
                                 lexpress::Vm* vm) {
  // Every item is already in the integrated schema, so the coalescer
  // compares like with like. The units take the descriptors over.
  std::vector<lexpress::UpdateDescriptor> descriptors;
  descriptors.reserve(items.size());
  for (WorkItem& item : items) {
    descriptors.push_back(std::move(item.descriptor));
  }
  CoalesceResult folded =
      CoalesceBatch(std::move(descriptors), ldap_filter_->key_attr());
  if (folded.coalesced_away > 0) {
    MutexLock lock(&stats_mutex_);
    stats_.coalesced += folded.coalesced_away;
  }
  std::vector<CoalescedUnit>& units = folded.units;

  // Wave partitioning: consecutive units touching DISJOINT entities
  // propagate together; a repeated entity starts the next wave so
  // per-entity ordering is preserved exactly.
  const std::string& key_attr = ldap_filter_->key_attr();
  size_t next = 0;
  while (next < units.size()) {
    if (stop_epoch() != epoch) {
      // Stop() raced the batch: fail what we have not yet propagated,
      // exactly as Stop()'s drain fails items still in the queue.
      for (; next < units.size(); ++next) {
        SettleUnit(units[next], items,
                   Status::Unavailable("update manager is shut down"),
                   /*processed=*/false);
      }
      return;
    }
    std::set<std::string, CaseInsensitiveLess> wave_keys;
    std::vector<size_t> wave;
    for (; next < units.size(); ++next) {
      CoalescedUnit& unit = units[next];
      if (unit.annihilated) {
        // Add+...+Delete folded to nothing: the entity never existed
        // as far as any repository is concerned. Settle as success.
        SettleUnit(unit, items, Status::Ok(), /*processed=*/true);
        continue;
      }
      std::vector<std::string> unit_keys;
      for (const std::string& key :
           {unit.update.old_record.GetFirst(key_attr),
            unit.update.new_record.GetFirst(key_attr)}) {
        if (!key.empty()) unit_keys.push_back(key);
      }
      bool conflicts = false;
      for (const std::string& key : unit_keys) {
        if (wave_keys.count(key) > 0) conflicts = true;
      }
      if (conflicts) break;  // Same entity again: next wave.
      for (const std::string& key : unit_keys) wave_keys.insert(key);
      wave.push_back(next);
    }
    if (!wave.empty()) PropagateWave(units, wave, items, vm);
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

void UpdateManager::PropagateWave(std::vector<CoalescedUnit>& units,
                                  const std::vector<size_t>& wave,
                                  std::vector<WorkItem>& items,
                                  lexpress::Vm* vm) {
  // One planned-and-alive propagation per unit in the wave.
  struct LiveUnit {
    const CoalescedUnit* unit;
    lexpress::UpdateDescriptor update;  // Integrated schema, hydrated.
    UpdatePlan plan;
    std::vector<DeviceResult> results;
    /// Saga undo: inverses of this unit's device applies, in order.
    std::vector<std::pair<RepositoryFilter*, lexpress::UpdateDescriptor>>
        undo;
    Status status = Status::Ok();
    /// The directory write failed, or saga undo compensated the unit:
    /// no further device fan-out and no §5.5 round.
    bool stopped = false;
  };
  std::vector<LiveUnit> live;
  live.reserve(wave.size());
  for (size_t index : wave) {
    CoalescedUnit& unit = units[index];
    // A unit has its first constituent's origin: the coalescer only
    // folds later items of the same provenance into it.
    const WorkItem& first = items[unit.constituents.front()];
    LiveUnit lu;
    lu.unit = &unit;
    lu.update = first.hydrate ? HydrateDeviceUpdate(std::move(unit.update))
                              : std::move(unit.update);
    StatusOr<UpdatePlan> plan = PlanUpdate(lu.update, first.ldap_current, vm);
    if (!plan.ok()) {
      // Closure fixpoint failure (runtime cycle detection, §4.2) or a
      // mapping evaluation error.
      HandleError(plan.status(), lu.update);
      SettleUnit(unit, items, plan.status(), /*processed=*/true);
      continue;
    }
    {
      MutexLock lock(&stats_mutex_);
      stats_.closure_iterations +=
          static_cast<uint64_t>(plan->closure_iterations);
    }
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
        SettleUnit(*lu.unit, items, stopped, /*processed=*/false);
      }
      return;
    }
    if (live.size() > 1) {
      MutexLock lock(&stats_mutex_);
      stats_.rtts_saved += live.size() - 1;
    }
  }

  // Phase 1 — directory writes, all under one LTAP session. A failed
  // view write aborts THAT unit's sequence (§4.4), not the wave. Each
  // planned op is applied once, so the phases take their updates over.
  std::vector<lexpress::UpdateDescriptor> ldap_ops;
  std::vector<size_t> ldap_owner;
  for (size_t i = 0; i < live.size(); ++i) {
    for (PlannedOp& op : live[i].plan.ops) {
      if (!EqualsIgnoreCase(op.repository, "ldap")) continue;
      ldap_ops.push_back(std::move(op.update));
      ldap_owner.push_back(i);
    }
  }
  if (!ldap_ops.empty()) {
    std::vector<ApplyResult> applied = ldap_filter_->ApplyBatch(ldap_ops);
    for (size_t i = 0; i < applied.size(); ++i) {
      if (applied[i].ok()) continue;
      LiveUnit& owner = live[ldap_owner[i]];
      HandleError(applied[i].status(), ldap_ops[i]);
      if (owner.status.ok()) owner.status = applied[i].status();
      owner.stopped = true;
    }
  }

  // Phase 2 — device fan-out in plan order, one conversation per
  // repository for the whole wave. Device-side failures are logged and
  // notified but do not fail the originating operation (§4.4).
  for (RepositoryFilter* filter : filters_) {
    std::vector<lexpress::UpdateDescriptor> updates;
    std::vector<size_t> owners;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].stopped) continue;
      for (PlannedOp& op : live[i].plan.ops) {
        if (!EqualsIgnoreCase(op.repository, filter->name())) continue;
        if (op.update.conditional) {
          // Reapplication to the originator (§5.4).
          if (!config_.reapply_to_originator) continue;
          MutexLock lock(&stats_mutex_);
          ++stats_.reapplications;
        }
        updates.push_back(std::move(op.update));
        owners.push_back(i);
      }
    }
    if (updates.empty()) continue;
    std::vector<std::optional<lexpress::Record>> priors;
    if (config_.saga_undo) {
      for (const lexpress::UpdateDescriptor& update : updates) {
        priors.push_back(FetchPrior(filter, update));
      }
    }
    std::vector<ApplyResult> applied = ApplyToRepository(filter, updates);
    for (size_t i = 0; i < applied.size(); ++i) {
      LiveUnit& owner = live[owners[i]];
      if (!applied[i].ok()) {
        HandleFailure(filter->name(), applied[i].outcome(),
                      applied[i].status(), updates[i]);
        if (config_.saga_undo) {
          // Compensate this unit's applies at the earlier repositories
          // and skip its later ones. The failure itself was logged and
          // the administrator notified; the directory write stands
          // (§4.4: errors are repaired out-of-band).
          UndoApplied(owner.undo);
          owner.stopped = true;
        }
        continue;
      }
      {
        MutexLock lock(&stats_mutex_);
        ++stats_.device_applies;
      }
      if (config_.saga_undo) {
        owner.undo.emplace_back(filter, InverseOf(updates[i], priors[i]));
      }
      if (updates[i].op != lexpress::DescriptorOp::kDelete) {
        owner.results.push_back(DeviceResult{
            filter, std::move(updates[i].new_record), std::move(*applied[i])});
      }
    }
  }

  // Phase 3 — §5.5 generated-information round, then settle.
  for (LiveUnit& lu : live) {
    if (!lu.stopped && lu.update.op != lexpress::DescriptorOp::kDelete) {
      (void)BackfillGeneratedInfo(lu.update, lu.plan, lu.results);
    }
    SettleUnit(*lu.unit, items, lu.status, /*processed=*/true);
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
    MutexLock lock(&stats_mutex_);
    ++stats_.undos;
  }
}

void UpdateManager::HandleError(const Status& error,
                                const lexpress::UpdateDescriptor& update) {
  // No replay target: the entry is audit-only (kPermanent, no
  // errorRepository), whatever the status code said.
  HandleFailure(/*repository=*/"", ApplyOutcome::kPermanent, error, update);
}

void UpdateManager::HandleFailure(const std::string& repository,
                                  ApplyOutcome outcome, const Status& error,
                                  const lexpress::UpdateDescriptor& update) {
  // Saga mode compensates the whole sequence on failure; replaying the
  // failed update later would undo the compensation, so its error
  // entry is audit-only.
  const std::string replay_repository =
      config_.saga_undo ? "" : repository;
  {
    MutexLock lock(&stats_mutex_);
    ++stats_.errors;
  }
  METACOMM_LOG(kWarning) << "update failed: " << error.ToString() << " ("
                         << update.ToString() << ")";
  // "an error is logged into the directory, and a notification is sent
  // to the administrator. The administrator can browse through the
  // errors and manually fix the resulting inconsistencies" (§4.4).
  // Retryable failures additionally carry the serialized descriptor,
  // so "manually" is now optional: the repair worker replays them once
  // the repository recovers.
  if (!config_.error_base.empty()) {
    uint64_t seq = error_sequence_.fetch_add(1) + 1;
    StatusOr<ldap::Dn> base = ldap::Dn::Parse(config_.error_base);
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
      Status logged = gateway_->Add(ctx, ldap::AddRequest{entry});
      if (!logged.ok()) {
        METACOMM_LOG(kWarning) << "error-log write failed: "
                               << logged.ToString();
      } else if (failure.replayable()) {
        MutexLock lock(&stats_mutex_);
        ++replay_backlog_[replay_repository];
      }
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
}

CircuitBreaker* UpdateManager::breaker(const std::string& repository) const {
  auto it = breakers_.find(repository);
  return it == breakers_.end() ? nullptr : it->second.get();
}

std::vector<ApplyResult> UpdateManager::ApplyToRepository(
    RepositoryFilter* filter,
    const std::vector<lexpress::UpdateDescriptor>& updates) {
  CircuitBreaker* breaker = this->breaker(filter->name());
  if (breaker != nullptr &&
      !breaker->Allow(RealClock::Get()->NowMicros())) {
    // Open circuit: no administrative conversation is even opened. The
    // caller logs each update replayably; the healthy repositories'
    // fan-out is untouched, which is the breaker's whole point.
    {
      MutexLock lock(&stats_mutex_);
      stats_.breaker_open_skips += updates.size();
    }
    return std::vector<ApplyResult>(
        updates.size(), ApplyResult::SkippedOpenCircuit(filter->name()));
  }
  std::vector<ApplyResult> applied = filter->ApplyBatch(updates);
  if (updates.size() > 1) {
    MutexLock lock(&stats_mutex_);
    stats_.rtts_saved += updates.size() - 1;
  }
  if (breaker != nullptr) {
    for (const ApplyResult& result : applied) {
      if (result.outcome() == ApplyOutcome::kRetryable) {
        breaker->OnRetryableFailure(RealClock::Get()->NowMicros());
      } else {
        // Applied, or permanently rejected — either way the device
        // responded, so the administrative link is alive.
        breaker->OnSuccess();
      }
    }
  }
  return applied;
}

ApplyResult UpdateManager::ApplyToRepository(
    RepositoryFilter* filter, const lexpress::UpdateDescriptor& update) {
  return std::move(
      ApplyToRepository(filter, std::vector<lexpress::UpdateDescriptor>{update})
          .front());
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

Status UpdateManager::RunRepairPass() {
  {
    MutexLock lock(&stats_mutex_);
    ++stats_.repair_passes;
  }
  if (config_.error_base.empty()) return Status::Ok();

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
  if (!result.ok()) {
    // No error container (or nothing logged yet): nothing to repair.
    if (result.status().code() == StatusCode::kNotFound) {
      return Status::Ok();
    }
    return result.status();
  }

  // Group the replayable backlog by repository, in errorSeq order.
  // Audit-only entries (no errorSeq, no errorRepository, or permanent
  // outcomes) stay in the log for the administrator.
  std::map<std::string, std::vector<std::pair<LoggedFailure, ldap::Dn>>,
           CaseInsensitiveLess>
      pending;
  for (ldap::Entry& entry : result->entries) {
    StatusOr<LoggedFailure> parsed = ParseErrorEntry(entry);
    if (!parsed.ok() || !parsed->replayable()) continue;
    if (FindFilter(parsed->repository) == nullptr) continue;
    pending[parsed->repository].emplace_back(std::move(*parsed),
                                             entry.dn());
  }

  Status first_error = Status::Ok();
  for (auto& [repository, items] : pending) {
    if (stopping()) break;
    RepositoryFilter* filter = FindFilter(repository);
    std::sort(items.begin(), items.end(),
              [](const std::pair<LoggedFailure, ldap::Dn>& a,
                 const std::pair<LoggedFailure, ldap::Dn>& b) {
                return a.first.sequence < b.first.sequence;
              });
    std::vector<LoggedFailure> failures;
    std::vector<ldap::Dn> entry_dns;
    failures.reserve(items.size());
    entry_dns.reserve(items.size());
    for (auto& [failure, dn] : items) {
      failures.push_back(std::move(failure));
      entry_dns.push_back(std::move(dn));
    }

    std::vector<ldap::Dn> replayed_dns;
    bool need_sync =
        ReplayRepository(filter, failures, entry_dns, &replayed_dns);
    if (need_sync && !stopping()) {
      // Replay could not converge (permanent rejection, or the
      // directory drifted past the logged images): fall back to full
      // resynchronization (§4.1), which subsumes the whole backlog.
      {
        MutexLock lock(&stats_mutex_);
        ++stats_.repair_syncs;
      }
      Status synced = Synchronize(repository);
      if (!synced.ok()) {
        if (first_error.ok()) first_error = synced;
        // Device still down: keep the backlog for the next pass.
        continue;
      }
      for (const ldap::Dn& dn : entry_dns) {
        DeleteErrorEntry(dn, repository);
      }
    } else {
      for (const ldap::Dn& dn : replayed_dns) {
        DeleteErrorEntry(dn, repository);
      }
    }
  }
  return first_error;
}

bool UpdateManager::ReplayRepository(
    RepositoryFilter* filter, const std::vector<LoggedFailure>& failures,
    const std::vector<ldap::Dn>& entry_dns,
    std::vector<ldap::Dn>* replayed_dns) {
  const std::string& ldap_key = filter->to_ldap().key_target_attr();
  // Convergence is checked once per entity, against the LAST replayed
  // update: intermediate replays legitimately disagree with the
  // directory's final image while the backlog drains.
  std::map<std::string, lexpress::UpdateDescriptor, CaseInsensitiveLess>
      last_by_key;
  for (size_t i = 0; i < failures.size(); ++i) {
    if (stopping()) return false;
    const LoggedFailure& failure = failures[i];

    // Serialize the replay against concurrent client writes via the
    // integrated entry's LTAP lock (best-effort: a record the
    // directory does not know yet has no entry to lock).
    uint64_t lock_session = gateway_->NewSession();
    std::optional<ldap::Dn> locked;
    if (!ldap_key.empty()) {
      const lexpress::Record& image =
          failure.update.new_record.attrs().empty()
              ? failure.update.old_record
              : failure.update.new_record;
      StatusOr<lexpress::Record> mapped =
          filter->to_ldap().MapRecord(image);
      if (mapped.ok()) {
        std::string key_value = mapped->GetFirst(ldap_key);
        if (!key_value.empty()) {
          StatusOr<std::optional<ldap::Entry>> entry =
              ldap_filter_->FindByAttr(ldap_key, key_value);
          if (entry.ok() && entry->has_value()) {
            Status lock_status =
                AcquireEntryLock((*entry)->dn(), lock_session);
            if (lock_status.ok()) locked = (*entry)->dn();
          }
        }
      }
    }
    struct Unlock {
      UpdateManager* um;
      std::optional<ldap::Dn>* dn;
      uint64_t session;
      ~Unlock() {
        if (dn->has_value()) um->gateway_->UnlockEntry(**dn, session);
      }
    } unlock{this, &locked, lock_session};

    // Replay conditionally (§5.4): the update may have partially
    // applied before the outage, or a later sync may have carried it.
    lexpress::UpdateDescriptor replay = failure.update;
    replay.conditional = true;
    ApplyResult result = ApplyToRepository(filter, replay);
    if (result.retryable()) {
      // Repository still down (or its circuit still open): leave this
      // and every later entry for the next pass — replay order within
      // the repository must hold.
      return false;
    }
    if (result.outcome() == ApplyOutcome::kPermanent) {
      METACOMM_LOG(kWarning)
          << filter->name() << ": replay of error-"
          << failure.sequence
          << " permanently rejected, falling back to sync: "
          << result.status().ToString();
      return true;
    }

    {
      MutexLock lock(&stats_mutex_);
      ++stats_.replayed;
    }
    BackfillFromReplay(filter, result.record());
    replayed_dns->push_back(entry_dns[i]);
    std::string key = replay.new_record.GetFirst(filter->key_attr());
    if (key.empty()) {
      key = replay.old_record.GetFirst(filter->key_attr());
    }
    if (!key.empty()) last_by_key[key] = std::move(replay);
  }
  for (const auto& [key, update] : last_by_key) {
    if (!ReplayConverged(filter, update)) {
      METACOMM_LOG(kWarning)
          << filter->name() << ": replayed backlog for key " << key
          << " did not converge, falling back to sync";
      return true;
    }
  }
  return false;
}

void UpdateManager::BackfillFromReplay(
    RepositoryFilter* filter, const lexpress::Record& device_result) {
  // Deletes return an empty record; nothing to backfill.
  if (device_result.attrs().empty()) return;
  const std::string& ldap_key = filter->to_ldap().key_target_attr();
  if (ldap_key.empty()) return;
  StatusOr<lexpress::Record> mapped =
      filter->to_ldap().MapRecord(device_result);
  if (!mapped.ok()) return;
  std::string key_value = mapped->GetFirst(ldap_key);
  if (key_value.empty()) return;
  StatusOr<std::optional<ldap::Entry>> found =
      ldap_filter_->FindByAttr(ldap_key, key_value);
  if (!found.ok() || !found->has_value()) return;

  // Fill directory gaps only. The logged update predates whatever the
  // directory holds now, so overwriting present values would regress
  // the integrated view from a stale image; absent attributes are the
  // §5.5 device-generated round the outage swallowed.
  lexpress::Record current = ldap_filter_->ToRecord(**found);
  lexpress::UpdateDescriptor upsert;
  upsert.op = lexpress::DescriptorOp::kModify;
  upsert.schema = "ldap";
  upsert.source = filter->name();
  upsert.conditional = true;
  upsert.old_record = current;
  upsert.new_record = current;
  bool changed = false;
  for (const auto& [attr, value] : mapped->attrs()) {
    if (current.Has(attr)) continue;
    upsert.new_record.Set(attr, value);
    upsert.explicit_attrs.insert(attr);
    changed = true;
  }
  if (!changed) return;
  upsert.explicit_attrs.erase(kLastUpdaterAttr);
  ApplyResult applied = ldap_filter_->Apply(upsert);
  if (!applied.ok()) {
    METACOMM_LOG(kWarning) << "replay backfill failed: "
                           << applied.status().ToString();
  }
}

bool UpdateManager::ReplayConverged(
    RepositoryFilter* filter, const lexpress::UpdateDescriptor& update) {
  const std::string& device_key_attr = filter->key_attr();
  std::string key = update.new_record.GetFirst(device_key_attr);
  if (key.empty()) key = update.old_record.GetFirst(device_key_attr);
  if (key.empty()) return true;  // Keyless update: nothing to check.

  StatusOr<std::optional<lexpress::Record>> device = filter->Fetch(key);
  if (!device.ok()) return false;
  if (update.op == lexpress::DescriptorOp::kDelete) {
    return !device->has_value();
  }
  if (!device->has_value()) return false;

  const std::string& ldap_key = filter->to_ldap().key_target_attr();
  if (ldap_key.empty()) return true;
  StatusOr<lexpress::Record> mapped =
      filter->to_ldap().MapRecord(**device);
  if (!mapped.ok()) return false;
  StatusOr<std::optional<ldap::Entry>> entry =
      ldap_filter_->FindByAttr(ldap_key, mapped->GetFirst(ldap_key));
  if (!entry.ok() || !entry->has_value()) return false;

  // Subset compare: every attribute the directory's image maps into
  // this repository's schema must match the device byte-for-byte.
  // Device-only attributes (never mapped to the directory) are out of
  // scope, and an attribute absent on both sides is converged.
  StatusOr<lexpress::Record> expectation =
      filter->from_ldap().MapRecord(ldap_filter_->ToRecord(**entry));
  if (!expectation.ok()) return false;
  for (const auto& [attr, value] : expectation->attrs()) {
    if (!(device->value().Get(attr) == value)) return false;
  }
  return true;
}

void UpdateManager::DeleteErrorEntry(const ldap::Dn& dn,
                                     const std::string& repository) {
  ldap::OpContext ctx;
  ctx.principal = "cn=metacomm";
  ctx.internal = true;
  Status status = gateway_->Delete(ctx, ldap::DeleteRequest{dn});
  if (!status.ok() && status.code() != StatusCode::kNotFound) {
    METACOMM_LOG(kWarning) << "error-log delete failed: "
                           << status.ToString();
    return;
  }
  MutexLock lock(&stats_mutex_);
  auto it = replay_backlog_.find(repository);
  if (it != replay_backlog_.end() && it->second > 0) --it->second;
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

  const std::string& device_key_attr = filter->key_attr();
  const std::string& ldap_key_of_device =
      filter->to_ldap().key_target_attr();

  // Device -> directory (and, through the propagation pipeline, to
  // other devices that share the data being synchronized).
  std::set<std::string> device_keys;
  Status first_error = Status::Ok();
  for (const lexpress::Record& record : *dump) {
    if (stop_epoch() != entry_epoch) {
      return Status::Unavailable("update manager is shut down");
    }
    device_keys.insert(record.GetFirst(device_key_attr));

    lexpress::UpdateDescriptor as_add;
    as_add.op = lexpress::DescriptorOp::kAdd;
    as_add.schema = filter->schema();
    as_add.source = filter->name();
    as_add.new_record = record;
    StatusOr<std::optional<lexpress::UpdateDescriptor>> translated =
        filter->to_ldap().Translate(as_add);
    if (!translated.ok() || !translated->has_value()) continue;
    lexpress::Record mapped = (*translated)->new_record;

    // Locate the existing directory entry via the device's key.
    std::optional<ldap::Entry> existing;
    if (!ldap_key_of_device.empty()) {
      StatusOr<std::optional<ldap::Entry>> found =
          ldap_filter_->FindByAttr(ldap_key_of_device,
                                   mapped.GetFirst(ldap_key_of_device));
      if (found.ok()) existing = *found;
    }

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
  // device lost (disconnected operation, §4.4) are pushed back.
  StatusOr<std::vector<lexpress::Record>> directory =
      ldap_filter_->DumpAll();
  if (!directory.ok()) return directory.status();
  for (const lexpress::Record& ldap_record : *directory) {
    if (stop_epoch() != entry_epoch) {
      return Status::Unavailable("update manager is shut down");
    }
    lexpress::UpdateDescriptor as_add;
    as_add.op = lexpress::DescriptorOp::kAdd;
    as_add.schema = "ldap";
    as_add.source = "ldap";
    as_add.new_record = ldap_record;
    StatusOr<std::optional<lexpress::UpdateDescriptor>> translated =
        filter->from_ldap().Translate(as_add);
    if (!translated.ok() || !translated->has_value()) continue;
    lexpress::UpdateDescriptor device_add = std::move(**translated);
    std::string key = device_add.new_record.GetFirst(device_key_attr);
    if (key.empty() || device_keys.count(key) > 0) continue;
    device_add.conditional = true;  // Upsert semantics.
    ApplyResult applied = ApplyToRepository(filter, device_add);
    if (!applied.ok()) {
      HandleFailure(filter->name(), applied.outcome(), applied.status(),
                    device_add);
      if (first_error.ok()) first_error = applied.status();
    }
  }

  {
    MutexLock lock(&stats_mutex_);
    ++stats_.syncs;
  }
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
  MutexLock lock(&stats_mutex_);
  Stats snapshot = stats_;
  for (size_t shard = 0; shard < snapshot.shards.size(); ++shard) {
    snapshot.shards[shard].depth = queue_.Depth(shard);
  }
  snapshot.repositories.reserve(filters_.size());
  for (RepositoryFilter* filter : filters_) {
    Stats::RepositoryStats repo;
    repo.name = filter->name();
    if (const CircuitBreaker* breaker = this->breaker(filter->name())) {
      repo.breaker = breaker->snapshot();
    }
    repo.health = filter->Health();
    auto backlog = replay_backlog_.find(filter->name());
    repo.replay_backlog = backlog == replay_backlog_.end()
                              ? 0
                              : backlog->second;
    snapshot.repositories.push_back(std::move(repo));
  }
  return snapshot;
}

}  // namespace metacomm::core
