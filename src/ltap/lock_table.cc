#include "ltap/lock_table.h"

#include <chrono>

#include "common/blocking_wait.h"

namespace metacomm::ltap {

bool LockTable::CanTake(const std::string& key, uint64_t session) const {
  auto it = locks_.find(key);
  return it == locks_.end() || it->second.owner == session;
}

Status LockTable::Acquire(const ldap::Dn& dn, uint64_t session,
                          int64_t timeout_micros) {
  std::string key = dn.Normalized();
  {
    MutexLock lock(&mutex_);
    if (CanTake(key, session)) {
      Take(key, session);
      return Status::Ok();
    }
    ++contended_;
    if (timeout_micros <= 0) {
      return Status::Conflict("entry is locked: " + dn.ToString());
    }
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_micros);
  // Contended: this waits on the session holding the entry. Marked
  // with mutex_ released, as a marked wait may hand off an io loop.
  ScopedBlockingWait wait;
  MutexLock lock(&mutex_);
  // Explicit deadline loop (not wait_for + predicate lambda) so the
  // predicate is evaluated here, where the analysis sees mutex_ held.
  while (!CanTake(key, session)) {
    if (!cv_.WaitUntil(lock, deadline) && !CanTake(key, session)) {
      return Status::DeadlineExceeded("lock wait timed out: " +
                                      dn.ToString());
    }
  }
  Take(key, session);
  return Status::Ok();
}

void LockTable::Take(const std::string& key, uint64_t session) {
  LockState& state = locks_[key];
  state.owner = session;
  ++state.hold_count;
}

void LockTable::Release(const ldap::Dn& dn, uint64_t session) {
  std::string key = dn.Normalized();
  {
    MutexLock lock(&mutex_);
    auto it = locks_.find(key);
    if (it == locks_.end() || it->second.owner != session) return;
    if (--it->second.hold_count <= 0) locks_.erase(it);
  }
  cv_.NotifyAll();
}

bool LockTable::IsLocked(const ldap::Dn& dn) const {
  MutexLock lock(&mutex_);
  return locks_.count(dn.Normalized()) > 0;
}

uint64_t LockTable::contended_acquisitions() const {
  MutexLock lock(&mutex_);
  return contended_;
}

}  // namespace metacomm::ltap
