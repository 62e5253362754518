#include "storage/wal.h"

#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "common/strings.h"
#include "storage/fs.h"

namespace metacomm::storage {

namespace {

/// One segment scan: decodes records from `content`, calling `fn` for
/// each (fn may be null). Returns the byte offset of the first
/// invalid/incomplete record (== content.size() when clean).
struct ScanResult {
  uint64_t records = 0;
  size_t valid_bytes = 0;
  bool clean = true;       // No trailing garbage / torn record.
  std::string error;       // Why the scan stopped, when !clean.
  /// A valid record decodes somewhere PAST the damage. A torn append
  /// can only ever be the last thing in a segment, so damage followed
  /// by an intact record is mid-file corruption — truncating there
  /// would silently drop the durable records behind it.
  bool valid_after_damage = false;
};

ScanResult ScanSegment(std::string_view content, size_t max_record_bytes,
                       const std::function<Status(std::string_view)>* fn,
                       Status* fn_status) {
  ScanResult result;
  size_t offset = 0;
  while (offset < content.size()) {
    DecodedRecord decoded =
        DecodeRecord(content.substr(offset), max_record_bytes);
    if (decoded.kind != DecodedRecord::Kind::kRecord) {
      result.clean = false;
      result.error = decoded.kind == DecodedRecord::Kind::kCorrupt
                         ? decoded.error
                         : "torn record at tail";
      if (decoded.kind == DecodedRecord::Kind::kCorrupt) {
        // kNeedMore ends the buffer by definition; only kCorrupt can
        // have bytes behind it. Probe them for a surviving record.
        for (size_t probe = offset + 1; probe < content.size();
             ++probe) {
          if (DecodeRecord(content.substr(probe), max_record_bytes)
                  .kind == DecodedRecord::Kind::kRecord) {
            result.valid_after_damage = true;
            break;
          }
        }
      }
      break;
    }
    if (fn != nullptr) {
      Status status = (*fn)(decoded.payload);
      if (!status.ok()) {
        if (fn_status != nullptr) *fn_status = status;
        break;
      }
    }
    ++result.records;
    offset += decoded.consumed;
    result.valid_bytes = offset;
  }
  return result;
}

std::string ErrnoText(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + ::strerror(errno);
}

}  // namespace

Wal::Wal(std::string dir, std::string prefix,
         const DurabilityConfig& config)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      policy_(config.wal_fsync),
      max_record_bytes_(config.max_record_bytes) {}

Wal::~Wal() { (void)Close(); }

Status Wal::Close() {
  MutexLock lock(&mu_);
  while (flushing_) flush_done_.Wait(lock);
  if (fd_ < 0) return Status::Ok();
  Status status = FlushPending();
  if (status.ok() && policy_ != FsyncPolicy::kOff && !Fsync(fd_)) {
    io_failed_ = true;
    status = Status::Unavailable(ErrnoText("wal fsync", SegmentPath(segment_)));
  }
  ::close(fd_);
  fd_ = -1;
  return status;
}

std::string Wal::SegmentPath(uint64_t segment) const {
  char name[64];
  std::snprintf(name, sizeof(name), "-%08llu.wal",
                static_cast<unsigned long long>(segment));
  return dir_ + "/" + prefix_ + name;
}

StatusOr<std::vector<uint64_t>> Wal::ListSegments() const {
  METACOMM_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  std::vector<uint64_t> segments;
  std::string head = prefix_ + "-";
  for (const std::string& name : names) {
    if (!StartsWith(name, head) || !name.ends_with(".wal")) continue;
    std::string_view digits(name);
    digits.remove_prefix(head.size());
    digits.remove_suffix(4);
    std::optional<uint64_t> id = ParseUint64(digits);
    if (!id.has_value()) continue;
    segments.push_back(*id);
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                         const std::string& prefix,
                                         const DurabilityConfig& config) {
  METACOMM_RETURN_IF_ERROR(MakeDirs(dir));
  std::unique_ptr<Wal> wal(new Wal(dir, prefix, config));
  METACOMM_ASSIGN_OR_RETURN(std::vector<uint64_t> segments,
                            wal->ListSegments());

  MutexLock lock(&wal->mu_);
  wal->segments_ = segments;
  wal->open_stats_.segments = segments.size();
  for (size_t i = 0; i < segments.size(); ++i) {
    std::string path = wal->SegmentPath(segments[i]);
    METACOMM_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
    ScanResult scan =
        ScanSegment(content, config.max_record_bytes, nullptr, nullptr);
    wal->open_stats_.records += scan.records;
    if (scan.clean) continue;
    if (i + 1 != segments.size() || scan.valid_after_damage) {
      // Damage behind the newest segment — or damage with intact
      // records behind it — cannot be a torn append. Refuse to
      // silently drop the records after it.
      return Status::Internal("wal segment " + path +
                              " corrupt mid-chain: " + scan.error);
    }
    // Torn tail of the newest segment: the crash signature. Truncate.
    uint64_t cut = content.size() - scan.valid_bytes;
    if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) !=
        0) {
      return Status::Unavailable(ErrnoText("truncate", path));
    }
    wal->open_stats_.truncated_bytes = cut;
  }
  wal->appended_lsn_ = wal->open_stats_.records;
  wal->durable_lsn_ = wal->open_stats_.records;

  if (segments.empty()) {
    wal->segment_ = 1;
    wal->segments_.push_back(1);
    METACOMM_RETURN_IF_ERROR(wal->OpenSegmentForAppend(1));
    METACOMM_RETURN_IF_ERROR(SyncDir(dir));
  } else {
    wal->segment_ = segments.back();
    METACOMM_RETURN_IF_ERROR(wal->OpenSegmentForAppend(wal->segment_));
    // Make the torn-tail cut durable before records land past it, or
    // power loss could resurrect the torn bytes in front of them.
    if (wal->open_stats_.truncated_bytes > 0 &&
        wal->policy_ != FsyncPolicy::kOff && !wal->Fsync(wal->fd_)) {
      return Status::Unavailable(
          ErrnoText("wal fsync", wal->SegmentPath(wal->segment_)));
    }
  }
  return wal;
}

bool Wal::Fsync(int fd) {
  if (::fsync(fd) != 0) return false;
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status Wal::OpenSegmentForAppend(uint64_t segment) {
  if (fd_ >= 0) {
    // Roll() counts the outgoing segment durable on this fsync, so a
    // failure disables the log as a failed Sync() does.
    if (policy_ != FsyncPolicy::kOff && !Fsync(fd_)) {
      io_failed_ = true;
      return Status::Unavailable(
          ErrnoText("wal fsync", SegmentPath(segment_)));
    }
    ::close(fd_);
    fd_ = -1;
  }
  std::string path = SegmentPath(segment);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::Unavailable(ErrnoText("open", path));
  fd_ = fd;
  return Status::Ok();
}

Status Wal::WriteBytes(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t wrote = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      io_failed_ = true;
      return Status::Unavailable(
          ErrnoText("wal write", SegmentPath(segment_)));
    }
    off += static_cast<size_t>(wrote);
  }
  return Status::Ok();
}

Status Wal::FlushPending() {
  if (pending_.empty()) return Status::Ok();
  METACOMM_RETURN_IF_ERROR(WriteBytes(pending_));
  pending_.clear();
  return Status::Ok();
}

StatusOr<Wal::AppendResult> Wal::Append(std::string_view payload) {
  MutexLock lock(&mu_);
  if (io_failed_) {
    return Status::Unavailable("wal disabled after an earlier I/O error");
  }
  if (policy_ == FsyncPolicy::kBatch) {
    // The record only buffers here; the Sync() the appender must call
    // before acking writes the whole batch with one syscall pair. A
    // kill between the two can only lose unacknowledged records.
    EncodeRecordTo(payload, &pending_);
  } else {
    scratch_.clear();
    EncodeRecordTo(payload, &scratch_);
    METACOMM_RETURN_IF_ERROR(WriteBytes(scratch_));
  }
  AppendResult result;
  result.lsn = ++appended_lsn_;
  result.segment = segment_;
  if (policy_ == FsyncPolicy::kAlways) {
    if (!Fsync(fd_)) {
      io_failed_ = true;
      return Status::Unavailable(
          ErrnoText("wal fsync", SegmentPath(segment_)));
    }
    durable_lsn_ = appended_lsn_;
  }
  return result;
}

Status Wal::Sync(uint64_t lsn) {
  if (policy_ == FsyncPolicy::kOff) return Status::Ok();
  // Leader/follower group commit: the first caller flushes for
  // everyone — one write + one fsync raise durable_lsn_ to the append
  // head — and crucially the fsync itself runs with mu_ RELEASED, so
  // appenders keep buffering (and the journal drain keeps feeding the
  // next batch) while the disk works. flushing_ keeps the flushes
  // single-file and stops Roll/close from switching fd_ mid-fsync.
  while (true) {
    int fd = -1;
    uint64_t target = 0;
    {
      MutexLock lock(&mu_);
      while (flushing_ && durable_lsn_ < lsn && !io_failed_) {
        flush_done_.Wait(lock);
      }
      if (io_failed_) {
        return Status::Unavailable(
            "wal disabled after an earlier I/O error");
      }
      if (durable_lsn_ >= lsn) return Status::Ok();
      target = appended_lsn_;
      METACOMM_RETURN_IF_ERROR(FlushPending());
      flushing_ = true;
      fd = fd_;
    }
    const bool synced = Fsync(fd);
    {
      MutexLock lock(&mu_);
      flushing_ = false;
      flush_done_.NotifyAll();
      if (!synced) {
        io_failed_ = true;
        return Status::Unavailable(
            ErrnoText("wal fsync", SegmentPath(segment_)));
      }
      durable_lsn_ = std::max(durable_lsn_, target);
      if (durable_lsn_ >= lsn) return Status::Ok();
    }
  }
}

StatusOr<uint64_t> Wal::Roll() {
  MutexLock lock(&mu_);
  // An unlocked fsync may be running against fd_; let it finish
  // before OpenSegmentForAppend closes the descriptor.
  while (flushing_) flush_done_.Wait(lock);
  if (io_failed_) {
    return Status::Unavailable("wal disabled after an earlier I/O error");
  }
  uint64_t next = segment_ + 1;
  METACOMM_RETURN_IF_ERROR(FlushPending());
  METACOMM_RETURN_IF_ERROR(OpenSegmentForAppend(next));
  segment_ = next;
  segments_.push_back(next);
  // Until the directory is synced, power loss can drop the new segment
  // and every record acked from it.
  if (policy_ != FsyncPolicy::kOff) {
    Status synced = SyncDir(dir_);
    if (!synced.ok()) {
      io_failed_ = true;
      return synced;
    }
  }
  // OpenSegmentForAppend fsynced the outgoing segment, so everything
  // appended so far is durable now.
  if (policy_ != FsyncPolicy::kOff) durable_lsn_ = appended_lsn_;
  return segment_;
}

StatusOr<uint64_t> Wal::DeleteSegmentsBefore(uint64_t segment) {
  MutexLock lock(&mu_);
  std::vector<uint64_t> keep;
  Status status = Status::Ok();
  uint64_t deleted = 0;
  for (uint64_t id : segments_) {
    if (id >= segment) {
      keep.push_back(id);
      continue;
    }
    Status removed = RemoveFile(SegmentPath(id));
    if (!removed.ok()) {
      status = removed;
      keep.push_back(id);
      continue;
    }
    ++deleted;
  }
  segments_ = std::move(keep);
  if (!status.ok()) return status;
  return deleted;
}

Status Wal::ReplayAll(
    const std::function<Status(std::string_view payload)>& fn) {
  std::vector<uint64_t> segments;
  {
    MutexLock lock(&mu_);
    METACOMM_RETURN_IF_ERROR(FlushPending());
    segments = segments_;
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    std::string path = SegmentPath(segments[i]);
    METACOMM_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
    Status fn_status = Status::Ok();
    ScanResult scan =
        ScanSegment(content, max_record_bytes_, &fn, &fn_status);
    METACOMM_RETURN_IF_ERROR(fn_status);
    if (!scan.clean) {
      // Open() already truncated the legitimate torn tail; damage now
      // means the file changed under us or the disk is lying.
      return Status::Internal("wal segment " + path +
                              " corrupt during replay: " + scan.error);
    }
  }
  return Status::Ok();
}

uint64_t Wal::next_lsn() {
  MutexLock lock(&mu_);
  return appended_lsn_ + 1;
}

uint64_t Wal::current_segment() {
  MutexLock lock(&mu_);
  return segment_;
}

uint64_t Wal::segment_count() {
  MutexLock lock(&mu_);
  return segments_.size();
}

uint64_t Wal::SizeBytes() {
  std::vector<uint64_t> segments;
  uint64_t total = 0;
  {
    MutexLock lock(&mu_);
    segments = segments_;
    total += pending_.size();
  }
  for (uint64_t id : segments) {
    struct stat st;
    if (::stat(SegmentPath(id).c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  return total;
}

}  // namespace metacomm::storage
