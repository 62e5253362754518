#ifndef METACOMM_LTAP_LOCK_TABLE_H_
#define METACOMM_LTAP_LOCK_TABLE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ldap/dn.h"

namespace metacomm::ltap {

/// Per-entry lock table.
///
/// LTAP "provides locking facilities, forbidding updates to an entry
/// while trigger processing is being performed on that entry" (paper
/// §4.3). Locks are keyed by normalized DN, owned by an LTAP session,
/// and reentrant for their owner — the Update Manager re-enters the
/// gateway while propagating, using the session that took the lock.
class LockTable {
 public:
  /// Acquires the lock on `dn` for `session`. Blocks up to
  /// `timeout_micros` (0 = try once) when another session holds it.
  /// Reentrant: re-acquisition by the owner succeeds and increments a
  /// hold count.
  Status Acquire(const ldap::Dn& dn, uint64_t session,
                 int64_t timeout_micros) EXCLUDES(mutex_);

  /// Releases one hold; frees the lock when the count reaches zero.
  void Release(const ldap::Dn& dn, uint64_t session) EXCLUDES(mutex_);

  /// True if any session currently holds `dn`.
  bool IsLocked(const ldap::Dn& dn) const EXCLUDES(mutex_);

  /// Number of lock acquisitions that had to wait (metric for E7).
  uint64_t contended_acquisitions() const EXCLUDES(mutex_);

 private:
  struct LockState {
    uint64_t owner = 0;
    int hold_count = 0;
  };

  /// True when `session` may take (or re-enter) the lock on `key`.
  bool CanTake(const std::string& key, uint64_t session) const
      REQUIRES(mutex_);
  /// Takes (or re-enters) the lock on `key` for `session`.
  void Take(const std::string& key, uint64_t session) REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kLtapLockTable, "ltap.lock_table"};
  CondVar cv_;
  std::map<std::string, LockState> locks_ GUARDED_BY(mutex_);
  uint64_t contended_ GUARDED_BY(mutex_) = 0;
};

}  // namespace metacomm::ltap

#endif  // METACOMM_LTAP_LOCK_TABLE_H_
