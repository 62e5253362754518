#ifndef METACOMM_STORAGE_DURABILITY_H_
#define METACOMM_STORAGE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ldap/backend.h"
#include "lexpress/record.h"
#include "storage/durability_config.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"
#include "storage/wal_records.h"

namespace metacomm::storage {

/// The durability subsystem behind one handle: a write-ahead log of
/// backend changes and device-update intents, an on-disk snapshot
/// store, background checkpointing, and crash recovery that stitches
/// the two together (newest durable checkpoint + WAL suffix).
///
/// Lifecycle, in order:
///   1. Open(config)                      — scan the data dir, truncate
///                                          a torn WAL tail.
///   2. RecoverBackend(backend)           — load the newest valid
///                                          snapshot, replay every WAL
///                                          change past its version,
///                                          fast-forward the backend
///                                          sequence, collect
///                                          unresolved intents.
///   3. AttachBackend(backend)            — install the journal hook;
///                                          from here every commit is
///                                          logged write-ahead.
///   4. PendingIntents() -> UM replay     — re-submit acked-but-unapplied
///                                          device updates through the
///                                          normal convergence path.
///   5. StartCheckpointThread(backend)    — periodic roll + snapshot +
///                                          prune.
///   6. Stop(); backend->ClearJournal()   — shutdown (mutations must
///                                          have quiesced first).
///
/// Locking: mu_ (kStorageDurability) ranks between the backend write
/// mutex and the WAL lock. The journal append callback runs under
/// write_mutex_ and only encodes + queues under mu_ — WAL framing,
/// write() and fsync all happen on the syncing thread (JournalSync
/// drains the queue as the group-commit leader), keeping the
/// backend's single-writer critical section free of I/O.
class DurabilityManager {
 public:
  /// What recovery found and did; the serve tool prints it in its
  /// startup banner.
  struct RecoveryStats {
    uint64_t snapshot_version = 0;  // 0: started from nothing/LDIF.
    size_t snapshot_entries = 0;
    bool from_ldif_fallback = false;
    int corrupt_snapshots_skipped = 0;
    uint64_t wal_records = 0;        // Total records scanned.
    uint64_t changes_replayed = 0;   // Changes with seq > snapshot.
    uint64_t changes_skipped = 0;    // Changes the snapshot covers.
    size_t intents_pending = 0;      // Acked-but-unapplied updates.
    uint64_t wal_truncated_bytes = 0;
  };

  struct CheckpointStats {
    uint64_t version = 0;           // Snapshot version written.
    uint64_t segments_deleted = 0;  // WAL segments made redundant.
    size_t intents_compacted = 0;   // Live intents carried forward.
  };

  /// Opens (creating) the data directory and its WAL. `config.enabled()`
  /// must be true.
  static StatusOr<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityConfig& config);

  ~DurabilityManager();
  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Rebuilds `backend` (which must be empty and journal-free):
  /// newest valid snapshot, then the WAL suffix with seq > its
  /// version, applied idempotently in sequence order. Refuses with
  /// kInternal when the WAL provably misses history (change sequences
  /// out of order, or a suffix not reaching back to the snapshot).
  StatusOr<RecoveryStats> RecoverBackend(ldap::Backend* backend);

  /// Installs the write-ahead journal hook on `backend`. Call after
  /// RecoverBackend and before serving traffic.
  void AttachBackend(ldap::Backend* backend);

  /// Appends an intent record for an accepted device update and waits
  /// for it to be durable, returning the intent id the caller must
  /// hand back to ResolveIntent once the update settles. Log-before-ack:
  /// call this BEFORE acknowledging the update to its source.
  StatusOr<uint64_t> LogIntent(const lexpress::UpdateDescriptor& update);

  /// Marks an intent settled. The resolve record rides the next flush
  /// (an unresolved duplicate replays through convergence, which is
  /// idempotent — losing a resolve is safe, losing an intent is not).
  Status ResolveIntent(uint64_t id);

  /// Unresolved intents found by RecoverBackend, oldest first. They
  /// stay pending (and survive checkpoints) until ResolveIntent.
  std::vector<WalIntent> PendingIntents() const EXCLUDES(mu_);

  /// One full checkpoint: roll the WAL, carry live intents into the
  /// fresh segment, dump the backend snapshot, delete every old
  /// segment the snapshot fully covers, prune old snapshot files.
  StatusOr<CheckpointStats> Checkpoint(const ldap::Backend& backend)
      EXCLUDES(mu_);

  /// Starts the periodic checkpoint thread (no-op when the configured
  /// interval is zero). `backend` must outlive Stop().
  void StartCheckpointThread(const ldap::Backend* backend);

  /// Stops the checkpoint thread (idempotent). Does not checkpoint.
  void Stop();

  /// Most recent background checkpoint failure (Ok when none).
  Status last_checkpoint_error() const EXCLUDES(mu_);

  /// Counters for cn=durability,cn=monitor and the tests: successful
  /// WAL fsyncs, completed checkpoints and unresolved intents.
  uint64_t wal_fsyncs() const { return wal_->fsyncs(); }
  uint64_t checkpoints() const { return checkpoints_.load(); }
  size_t pending_intent_count() const EXCLUDES(mu_);

  Wal* wal() { return wal_.get(); }
  SnapshotStore* snapshots() { return snapshots_.get(); }
  const DurabilityConfig& config() const { return config_; }

 private:
  explicit DurabilityManager(const DurabilityConfig& config);

  /// Journal callbacks installed on the backend. Append encodes the
  /// change and queues it, returning its commit sequence as the
  /// durability token; Sync drains the queue into the WAL (leader) and,
  /// under Wait::kSynced, waits for the covering fsync.
  uint64_t JournalAppend(const ldap::ChangeRecord& record) EXCLUDES(mu_);
  Status JournalSync(uint64_t sequence, ldap::Backend::Wait wait)
      EXCLUDES(mu_);
  /// Hands every queued change to the WAL, in commit order. Steals the
  /// queue under mu_ but performs the WAL appends with mu_ RELEASED
  /// (the `draining_` flag keeps batches ordered), so committers keep
  /// enqueueing — inside the backend write mutex — while the drain
  /// runs. `lock` must be the caller's guard on mu_.
  Status DrainChangeQueue(MutexLock& lock) REQUIRES(mu_);

  void CheckpointLoop(const ldap::Backend* backend) EXCLUDES(mu_);

  const DurabilityConfig config_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<SnapshotStore> snapshots_;

  mutable Mutex mu_{LockRank::kStorageDurability, "storage.durability"};
  /// Committed-but-not-yet-WAL-appended changes, in commit order. The
  /// backend's Commit enqueues (cheap, under write_mutex_); the first
  /// syncing thread drains for everyone. A kill loses only queue
  /// entries — none of which were acknowledged, since every mutation
  /// syncs before returning.
  struct PendingChange {
    uint64_t sequence = 0;
    std::string payload;  // EncodeChange output, framed at drain time.
  };
  std::vector<PendingChange> change_queue_ GUARDED_BY(mu_);
  /// True while one drainer appends a stolen batch with mu_ released.
  /// Later drainers (and the checkpoint's segment accounting) wait on
  /// drain_done_ so batches — and the map below — stay in order.
  bool draining_ GUARDED_BY(mu_) = false;
  CondVar drain_done_;
  /// Retired batch vector, swapped back in to recycle its capacity.
  std::vector<PendingChange> drain_buffer_ GUARDED_BY(mu_);
  uint64_t appended_change_seq_ GUARDED_BY(mu_) = 0;
  uint64_t last_change_lsn_ GUARDED_BY(mu_) = 0;
  /// Sticky first drain failure: once a queued change fails to reach
  /// the WAL the journal is down (matching the WAL's own latch).
  Status journal_error_ GUARDED_BY(mu_) = Status::Ok();
  /// Highest change sequence appended per WAL segment. A segment may
  /// only be deleted once a durable snapshot's version covers its max
  /// (an in-flight commit can append to the old segment right before a
  /// roll and publish after the snapshot was taken).
  std::map<uint64_t, uint64_t> segment_max_seq_ GUARDED_BY(mu_);
  /// Unresolved intents, authoritative mirror of the log.
  std::map<uint64_t, lexpress::UpdateDescriptor> pending_intents_
      GUARDED_BY(mu_);
  uint64_t next_intent_id_ GUARDED_BY(mu_) = 0;
  Status last_checkpoint_error_ GUARDED_BY(mu_) = Status::Ok();
  std::atomic<uint64_t> checkpoints_{0};

  /// Checkpoint-thread plumbing. stop_ is flipped under mu_ and the
  /// loop waits on cv_ with the configured interval as deadline.
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread checkpoint_thread_;
};

}  // namespace metacomm::storage

#endif  // METACOMM_STORAGE_DURABILITY_H_
