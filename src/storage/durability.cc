#include "storage/durability.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "storage/fs.h"

namespace metacomm::storage {

DurabilityManager::DurabilityManager(const DurabilityConfig& config)
    : config_(config) {}

DurabilityManager::~DurabilityManager() {
  Stop();
  // Flush whatever commits are still queued so a clean shutdown keeps
  // every change, acked or not (Wal's destructor then flushes its own
  // buffer and fsyncs).
  MutexLock lock(&mu_);
  Status drained = DrainChangeQueue(lock);
  (void)drained;
}

StatusOr<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityConfig& config) {
  if (!config.enabled()) {
    return Status::InvalidArgument(
        "durability requires a non-empty data_dir");
  }
  METACOMM_RETURN_IF_ERROR(MakeDirs(config.data_dir));
  std::unique_ptr<DurabilityManager> dm(new DurabilityManager(config));
  METACOMM_ASSIGN_OR_RETURN(dm->wal_,
                            Wal::Open(config.data_dir, "wal", config));
  dm->snapshots_ =
      std::make_unique<SnapshotStore>(config.data_dir, config);
  return dm;
}

StatusOr<DurabilityManager::RecoveryStats>
DurabilityManager::RecoverBackend(ldap::Backend* backend) {
  RecoveryStats stats;
  stats.wal_truncated_bytes = wal_->open_stats().truncated_bytes;

  METACOMM_ASSIGN_OR_RETURN(SnapshotStore::LoadResult loaded,
                            snapshots_->LoadNewestInto(backend));
  stats.snapshot_version = loaded.version;
  stats.snapshot_entries = loaded.entries;
  stats.from_ldif_fallback = loaded.from_ldif_fallback;
  stats.corrupt_snapshots_skipped = loaded.corrupt_skipped;
  // Entries loaded through Add stamped fresh low sequence numbers;
  // rebase the counter onto the checkpoint's version so the replayed
  // suffix compares against it correctly.
  backend->SetSequence(loaded.version);

  const uint64_t snapshot_version = loaded.version;
  uint64_t prev_seq = 0;
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  std::map<uint64_t, lexpress::UpdateDescriptor> pending;
  uint64_t max_intent_id = 0;

  Status replayed = wal_->ReplayAll([&](std::string_view payload) -> Status {
    METACOMM_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(payload));
    switch (record.type) {
      case WalRecord::Type::kChange: {
        ++stats.wal_records;
        uint64_t seq = record.change.sequence;
        // Change records are appended in commit order, so sequences
        // strictly increase. (They are not necessarily dense: replaying
        // a rename can cost two commits, so a recovered server's counter
        // can run ahead of the log.)
        if (seq <= prev_seq) {
          return Status::Internal(
              "wal change sequence not increasing: " +
              std::to_string(prev_seq) + " -> " + std::to_string(seq));
        }
        if (first_seq == 0) first_seq = seq;
        prev_seq = seq;
        last_seq = std::max(last_seq, seq);
        if (seq <= snapshot_version) {
          // The checkpoint already folded this change in.
          ++stats.changes_skipped;
          return Status::Ok();
        }
        METACOMM_RETURN_IF_ERROR(ApplyChange(backend, record.change));
        ++stats.changes_replayed;
        return Status::Ok();
      }
      case WalRecord::Type::kIntent:
        ++stats.wal_records;
        max_intent_id = std::max(max_intent_id, record.intent.id);
        pending[record.intent.id] = std::move(record.intent.update);
        return Status::Ok();
      case WalRecord::Type::kResolve:
        ++stats.wal_records;
        pending.erase(record.resolve_id);
        return Status::Ok();
    }
    return Status::Internal("unreachable wal record type");
  });
  METACOMM_RETURN_IF_ERROR(replayed);

  // The retained WAL must reach back to the checkpoint: a suffix that
  // starts past version+1 has lost acknowledged history.
  if (last_seq > snapshot_version && first_seq > snapshot_version + 1) {
    return Status::Internal(
        "wal starts at sequence " + std::to_string(first_seq) +
        " but the newest snapshot is version " +
        std::to_string(snapshot_version));
  }
  backend->SetSequence(std::max(last_seq, snapshot_version));

  stats.intents_pending = pending.size();
  MutexLock lock(&mu_);
  pending_intents_ = std::move(pending);
  next_intent_id_ = std::max(next_intent_id_, max_intent_id);
  return stats;
}

uint64_t DurabilityManager::JournalAppend(const ldap::ChangeRecord& record) {
  // This runs inside Commit's critical section (the backend write
  // mutex), so it does the minimum: encode and queue. Framing, the
  // write() and the fsync all happen in JournalSync, overlapped with
  // other writers' in-memory work.
  PendingChange change;
  change.sequence = record.sequence;
  change.payload = EncodeChange(record);
  MutexLock lock(&mu_);
  change_queue_.push_back(std::move(change));
  return record.sequence;
}

Status DurabilityManager::DrainChangeQueue(MutexLock& lock) {
  while (draining_) drain_done_.Wait(lock);
  METACOMM_RETURN_IF_ERROR(journal_error_);
  if (change_queue_.empty()) return Status::Ok();

  // Steal the queue; appends happen with mu_ released so committers
  // (who enqueue inside the backend write mutex) never wait behind a
  // batch in flight. draining_ keeps later batches behind this one.
  std::vector<PendingChange> batch = std::move(drain_buffer_);
  batch.clear();
  batch.swap(change_queue_);
  draining_ = true;
  mu_.Unlock();

  Status failed = Status::Ok();
  uint64_t last_seq = 0;
  uint64_t last_lsn = 0;
  // Per-segment max sequence of this batch. Sequences increase through
  // the batch, so each segment's max is simply the last sequence that
  // landed in it — one running pair, spilled only when a roll lands
  // mid-batch (so the common case allocates nothing).
  uint64_t cur_segment = 0;
  uint64_t cur_max = 0;
  std::vector<std::pair<uint64_t, uint64_t>> rolled_over;
  for (PendingChange& change : batch) {
    StatusOr<Wal::AppendResult> appended = wal_->Append(change.payload);
    if (!appended.ok()) {
      failed = appended.status();
      break;
    }
    if (appended->segment != cur_segment) {
      if (cur_segment != 0) rolled_over.emplace_back(cur_segment, cur_max);
      cur_segment = appended->segment;
    }
    cur_max = change.sequence;
    last_seq = change.sequence;
    last_lsn = appended->lsn;
  }
  batch.clear();

  mu_.Lock();
  draining_ = false;
  drain_done_.NotifyAll();
  drain_buffer_ = std::move(batch);
  for (const auto& [segment, max_seq] : rolled_over) {
    uint64_t& entry = segment_max_seq_[segment];
    entry = std::max(entry, max_seq);
  }
  if (cur_segment != 0) {
    uint64_t& entry = segment_max_seq_[cur_segment];
    entry = std::max(entry, cur_max);
  }
  if (last_seq != 0) {
    appended_change_seq_ = last_seq;
    last_change_lsn_ = last_lsn;
  }
  if (!failed.ok()) {
    // An undrainable queue means acked-order history would have a
    // hole; latch the failure so every later sync refuses too.
    journal_error_ = failed;
    change_queue_.clear();
  }
  return failed;
}

Status DurabilityManager::JournalSync(uint64_t sequence) {
  uint64_t lsn = 0;
  {
    MutexLock lock(&mu_);
    // Our change was queued before this call (Commit runs first), so
    // it is either in the current queue, in a batch mid-flight, or
    // already appended. Drain (or wait the in-flight batch out) until
    // the appended watermark covers it; usually one pass as leader,
    // with everyone queued behind finding their record already gone.
    while (sequence > appended_change_seq_) {
      METACOMM_RETURN_IF_ERROR(DrainChangeQueue(lock));
    }
    lsn = last_change_lsn_;
  }
  // Outside mu_ so new commits keep queueing while the batch fsyncs.
  return wal_->Sync(lsn);
}

void DurabilityManager::AttachBackend(ldap::Backend* backend) {
  ldap::Backend::Journal journal;
  journal.append = [this](const ldap::ChangeRecord& record) {
    return JournalAppend(record);
  };
  journal.sync = [this](uint64_t sequence) { return JournalSync(sequence); };
  backend->SetJournal(std::move(journal));
}

StatusOr<uint64_t> DurabilityManager::LogIntent(
    const lexpress::UpdateDescriptor& update) {
  uint64_t id = 0;
  uint64_t lsn = 0;
  {
    MutexLock lock(&mu_);
    id = ++next_intent_id_;
    StatusOr<Wal::AppendResult> appended =
        wal_->Append(EncodeIntent(id, update));
    if (!appended.ok()) return appended.status();
    pending_intents_[id] = update;
    lsn = appended->lsn;
  }
  // Durable before the caller acks; outside mu_ so the group-commit
  // wait never blocks other intent traffic or the journal callback.
  METACOMM_RETURN_IF_ERROR(wal_->Sync(lsn));
  return id;
}

Status DurabilityManager::ResolveIntent(uint64_t id) {
  {
    MutexLock lock(&mu_);
    pending_intents_.erase(id);
  }
  // No Sync: a lost resolve record only means the intent replays
  // after a crash, and replay converges idempotently.
  StatusOr<Wal::AppendResult> appended = wal_->Append(EncodeResolve(id));
  if (!appended.ok()) return appended.status();
  return Status::Ok();
}

std::vector<WalIntent> DurabilityManager::PendingIntents() const {
  MutexLock lock(&mu_);
  std::vector<WalIntent> intents;
  intents.reserve(pending_intents_.size());
  for (const auto& [id, update] : pending_intents_) {
    WalIntent intent;
    intent.id = id;
    intent.update = update;
    intents.push_back(std::move(intent));
  }
  return intents;
}

StatusOr<DurabilityManager::CheckpointStats> DurabilityManager::Checkpoint(
    const ldap::Backend& backend) {
  CheckpointStats stats;

  // 0. Push queued commits into the outgoing segment first, so the
  // per-segment sequence accounting below sees them.
  {
    MutexLock lock(&mu_);
    METACOMM_RETURN_IF_ERROR(DrainChangeQueue(lock));
  }

  // 1. Fresh segment: everything after this lands past the snapshot.
  METACOMM_ASSIGN_OR_RETURN(uint64_t fresh_segment, wal_->Roll());

  // 2. Carry live intents into the fresh segment, so the old segments
  // holding their original records become fully redundant.
  uint64_t last_compacted_lsn = 0;
  {
    MutexLock lock(&mu_);
    for (const auto& [id, update] : pending_intents_) {
      METACOMM_ASSIGN_OR_RETURN(Wal::AppendResult appended,
                                wal_->Append(EncodeIntent(id, update)));
      last_compacted_lsn = appended.lsn;
      ++stats.intents_compacted;
    }
  }
  if (last_compacted_lsn != 0) {
    METACOMM_RETURN_IF_ERROR(wal_->Sync(last_compacted_lsn));
  }

  // 3. Durable snapshot of the current published version.
  METACOMM_ASSIGN_OR_RETURN(stats.version, snapshots_->Save(backend));

  // 4. Delete the redundant WAL prefix. A segment is redundant only if
  // every change it holds has seq <= the snapshot version — a commit
  // in flight during the roll can have appended to an old segment yet
  // published after the snapshot was taken, in which case its segment
  // must survive until the next checkpoint. Deletion stays a prefix so
  // the retained chain has no sequence holes.
  {
    MutexLock lock(&mu_);
    // A drain mid-flight may have appended to a pre-roll segment but
    // not republished segment_max_seq_ yet; wait it out so the map is
    // complete before any segment is condemned.
    while (draining_) drain_done_.Wait(lock);
    uint64_t boundary = fresh_segment;
    for (const auto& [segment, max_seq] : segment_max_seq_) {
      if (segment >= fresh_segment) break;
      if (max_seq > stats.version) {
        boundary = segment;
        break;
      }
    }
    METACOMM_ASSIGN_OR_RETURN(stats.segments_deleted,
                              wal_->DeleteSegmentsBefore(boundary));
    segment_max_seq_.erase(segment_max_seq_.begin(),
                           segment_max_seq_.lower_bound(boundary));
  }

  // 5. Thin out old snapshot files.
  METACOMM_RETURN_IF_ERROR(snapshots_->Prune(config_.snapshots_to_keep));
  return stats;
}

void DurabilityManager::StartCheckpointThread(const ldap::Backend* backend) {
  if (config_.checkpoint_interval_micros <= 0) return;
  if (checkpoint_thread_.joinable()) return;
  {
    MutexLock lock(&mu_);
    stop_ = false;
  }
  checkpoint_thread_ =
      std::thread([this, backend] { CheckpointLoop(backend); });
}

void DurabilityManager::CheckpointLoop(const ldap::Backend* backend) {
  for (;;) {
    {
      MutexLock lock(&mu_);
      auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.checkpoint_interval_micros);
      while (!stop_) {
        if (!cv_.WaitUntil(lock, deadline)) break;
      }
      if (stop_) return;
    }
    StatusOr<CheckpointStats> result = Checkpoint(*backend);
    if (!result.ok()) {
      METACOMM_LOG(kWarning)
          << "checkpoint failed: " << result.status().ToString();
      MutexLock lock(&mu_);
      last_checkpoint_error_ = result.status();
    }
  }
}

void DurabilityManager::Stop() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
}

Status DurabilityManager::last_checkpoint_error() const {
  MutexLock lock(&mu_);
  return last_checkpoint_error_;
}

}  // namespace metacomm::storage
