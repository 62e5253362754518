#ifndef METACOMM_STORAGE_SNAPSHOT_STORE_H_
#define METACOMM_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "ldap/backend.h"
#include "storage/durability_config.h"

namespace metacomm::storage {

/// On-disk checkpoints of whole backend snapshot versions.
///
/// A snapshot file is a dump of one published persistent-treap version
/// (Backend::Snapshot): entries stream out parents-before-children off
/// the immutable tree, so writing never blocks writers. File format:
/// RecordCodec frames, one per entry (payload = the entry's LDIF
/// content record) plus a final footer frame
///
///   END <version> <entry-count>
///
/// whose presence proves the dump completed; per-record CRCs catch
/// torn or bit-rotten files. Files are written atomically
/// (tmp + fsync + rename + dir fsync) as `snapshot-<version>.mcsnap`.
///
/// Recovery loads the newest file that validates end to end, falling
/// back to older snapshots, then to `<dir>/bootstrap.ldif` (the LDIF
/// escape hatch — hand-written or exported by ldap tooling), then to
/// an empty directory.
class SnapshotStore {
 public:
  SnapshotStore(std::string dir, const DurabilityConfig& config)
      : dir_(std::move(dir)),
        max_record_bytes_(config.max_record_bytes) {}

  /// Dumps the backend's current snapshot; returns its version.
  StatusOr<uint64_t> Save(const ldap::Backend& backend) const;

  struct LoadResult {
    uint64_t version = 0;     // 0: nothing durable found (empty start).
    size_t entries = 0;
    bool from_ldif_fallback = false;
    /// Snapshot files that failed validation and were skipped.
    int corrupt_skipped = 0;
  };

  /// Loads the newest valid checkpoint into `backend` (which must be
  /// empty). See the class comment for the fallback ladder.
  StatusOr<LoadResult> LoadNewestInto(ldap::Backend* backend) const;

  /// Deletes all but the newest `keep` snapshot files.
  Status Prune(int keep) const;

 private:
  std::string SnapshotPath(uint64_t version) const;
  StatusOr<std::vector<uint64_t>> ListVersions() const;
  /// Validates + loads one snapshot file. Entries go through
  /// Backend::Add in file order (parents precede children).
  Status LoadFile(uint64_t version, ldap::Backend* backend,
                  size_t* entries) const;

  const std::string dir_;
  const size_t max_record_bytes_;
};

}  // namespace metacomm::storage

#endif  // METACOMM_STORAGE_SNAPSHOT_STORE_H_
