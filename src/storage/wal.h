#ifndef METACOMM_STORAGE_WAL_H_
#define METACOMM_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/durability_config.h"
#include "storage/record_codec.h"

namespace metacomm::storage {

/// A segmented write-ahead log of RecordCodec-framed records.
///
/// Layout: `<dir>/<prefix>-<NNNNNNNN>.wal`, numbered segments appended
/// in order. Appends go to the newest segment; `Roll()` (the
/// checkpointer) starts a fresh one; `DeleteSegmentsBefore()` prunes
/// segments a durable snapshot has made redundant.
///
/// Open() replays the segment chain and truncates a torn tail: a
/// trailing partial record in the NEWEST segment is the expected
/// signature of a crash mid-append and is cut off; a corrupt record
/// anywhere else is real damage and fails the open.
///
/// Durability contract (see FsyncPolicy): Append() makes the record
/// readable after a process kill; Sync(lsn) returns once the record at
/// `lsn` is on stable storage under the configured policy. Under
/// kBatch one fsync covers every record appended before the flusher
/// ran, so N concurrent writers pay ~1 fsync, not N (group commit).
class Wal {
 public:
  struct OpenStats {
    uint64_t records = 0;          // Valid records found across segments.
    uint64_t segments = 0;         // Segment files found.
    uint64_t truncated_bytes = 0;  // Torn tail cut from the newest one.
  };

  /// Opens (creating the directory's first segment if none exists).
  static StatusOr<std::unique_ptr<Wal>> Open(const std::string& dir,
                                             const std::string& prefix,
                                             const DurabilityConfig& config);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appended record position. LSN n is the n-th record ever appended
  /// to this log (1-based, continuing across reopen and Roll).
  struct AppendResult {
    uint64_t lsn = 0;
    uint64_t segment = 0;  // Segment the record landed in.
  };

  /// Frames and writes one payload. Under kAlways the record is
  /// durable on return; otherwise call Sync(). Safe under any caller
  /// lock ranked before kStorageWal (the backend journal appends while
  /// holding the backend write mutex).
  StatusOr<AppendResult> Append(std::string_view payload)
      EXCLUDES(mu_);

  /// Blocks until the record at `lsn` is durable per the policy
  /// (no-op under kOff; group commit under kBatch).
  Status Sync(uint64_t lsn) EXCLUDES(mu_);

  /// Starts a new segment; subsequent appends land there. Returns the
  /// new segment id. A failed fsync of the outgoing segment, or of the
  /// directory that now names the new one, disables the log, as a
  /// failed Sync() does.
  StatusOr<uint64_t> Roll() EXCLUDES(mu_);

  /// Writes buffered records, fsyncs (unless kOff) and closes. A failure
  /// disables the log: records not yet Sync()ed may be lost. Idempotent;
  /// the destructor closes a log nobody closed and drops the outcome.
  Status Close() EXCLUDES(mu_);

  /// Deletes every segment with id < `segment`; returns how many.
  StatusOr<uint64_t> DeleteSegmentsBefore(uint64_t segment) EXCLUDES(mu_);

  /// Replays every record currently in the log, in append order.
  /// Only meaningful before concurrent appenders start.
  Status ReplayAll(
      const std::function<Status(std::string_view payload)>& fn);

  OpenStats open_stats() const { return open_stats_; }
  uint64_t next_lsn() EXCLUDES(mu_);
  uint64_t current_segment() EXCLUDES(mu_);
  uint64_t segment_count() EXCLUDES(mu_);  // Live segments.
  /// Successful fsyncs of segment files since Open.
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }

  /// Total bytes across live segments (telemetry / bench).
  uint64_t SizeBytes() EXCLUDES(mu_);

 private:
  Wal(std::string dir, std::string prefix, const DurabilityConfig& config);

  std::string SegmentPath(uint64_t segment) const;
  /// ::fsync, counted in fsyncs_ when it succeeds.
  bool Fsync(int fd);
  Status OpenSegmentForAppend(uint64_t segment) REQUIRES(mu_);
  /// write()s `bytes` to the current segment fd in full.
  Status WriteBytes(std::string_view bytes) REQUIRES(mu_);
  /// Under kBatch, Append() only buffers into pending_; this writes
  /// the whole buffer with one syscall (the group in group commit).
  Status FlushPending() REQUIRES(mu_);
  /// Scans dir for `<prefix>-*.wal`; ascending segment ids.
  StatusOr<std::vector<uint64_t>> ListSegments() const;

  const std::string dir_;
  const std::string prefix_;
  const FsyncPolicy policy_;
  const size_t max_record_bytes_;
  OpenStats open_stats_;

  /// One lock covers append-buffer, write and roll state; the fsync
  /// itself runs with it RELEASED (see Sync). The group-commit shape:
  /// one leader fsyncs while later appenders keep buffering under
  /// mu_, and their Sync()s find the next flush covers all of them at
  /// once — N writers, ~1 fsync, and the flush never blocks the
  /// append path.
  mutable Mutex mu_{LockRank::kStorageWal, "storage.wal"};
  int fd_ GUARDED_BY(mu_) = -1;
  uint64_t segment_ GUARDED_BY(mu_) = 0;
  std::vector<uint64_t> segments_ GUARDED_BY(mu_);  // Live ids, ascending.
  /// kBatch: records framed but not yet write()ten. Flushed as one
  /// buffer by the next Sync/Roll/close.
  std::string pending_ GUARDED_BY(mu_);
  /// Reusable frame buffer for the eager (kOff/kAlways) write path.
  std::string scratch_ GUARDED_BY(mu_);
  uint64_t appended_lsn_ GUARDED_BY(mu_) = 0;  // Last written record.
  uint64_t durable_lsn_ GUARDED_BY(mu_) = 0;   // Last fsync-covered one.
  bool io_failed_ GUARDED_BY(mu_) = false;
  /// True while a Sync() leader fsyncs with mu_ released. Followers
  /// wait on flush_done_; Roll/close wait too before touching fd_.
  bool flushing_ GUARDED_BY(mu_) = false;
  CondVar flush_done_;
  std::atomic<uint64_t> fsyncs_{0};
};

}  // namespace metacomm::storage

#endif  // METACOMM_STORAGE_WAL_H_
