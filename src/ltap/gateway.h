#ifndef METACOMM_LTAP_GATEWAY_H_
#define METACOMM_LTAP_GATEWAY_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "ldap/service.h"
#include "ltap/lock_table.h"
#include "ltap/trigger.h"

namespace metacomm::ltap {

/// Gateway tuning knobs.
struct GatewayConfig {
  /// How long an update waits for a held entry lock before failing.
  int64_t lock_timeout_micros = 5'000'000;
  /// How long an update waits for a quiesce window to close.
  int64_t quiesce_wait_micros = 5'000'000;
  /// Ablation switch (EXPERIMENTS.md A2): disables entry locking so
  /// the inconsistency windows the paper's locking prevents become
  /// observable.
  bool locking_enabled = true;
  /// Ablation switch: disables trigger processing entirely, turning
  /// the gateway into a pure pass-through (baseline for E7).
  bool triggers_enabled = true;
};

/// The Lightweight Trigger Access Process.
///
/// LTAP "works as a gateway that pretends to be an LDAP server — LDAP
/// commands intended for the LDAP server are intercepted by LTAP which
/// does trigger processing in addition to servicing the original LDAP
/// command" (paper §4.3). Accordingly LtapGateway implements
/// ldap::LdapService and wraps another LdapService (normally an
/// LdapServer; stacking gateways also works).
///
/// Responsibilities reproduced from the paper:
///  * trigger processing: before-triggers may veto, after-triggers run
///    synchronously under the entry lock, so the action server (the
///    Update Manager) finishes its update sequence before the client's
///    call returns and before any conflicting update may start;
///  * entry-level locking (§4.3), reentrant for the owning session so
///    the UM can write through the gateway while handling a trigger;
///  * persistent connections + quiesce (§5.1): a synchronization
///    session can suspend all other updates while it replays a
///    sequence of updates in isolation. Reads always pass through —
///    that asymmetry is the scalability argument of §5.5.
class LtapGateway : public ldap::LdapService {
 public:
  /// `backend` is the wrapped service; not owned, must outlive the
  /// gateway.
  explicit LtapGateway(ldap::LdapService* backend,
                       GatewayConfig config = {});

  /// Registers a trigger. Not thread-safe against in-flight updates;
  /// register during setup (matching LTAP, where trigger registration
  /// is configuration).
  void RegisterTrigger(TriggerSpec spec);

  /// Allocates a fresh session id for a client connection.
  uint64_t NewSession();

  /// Opens a quiesce window for `session`: blocks until in-flight
  /// updates drain, then makes every other session's updates wait.
  /// Reads are unaffected. Fails if another quiesce is active.
  Status Quiesce(uint64_t session) EXCLUDES(state_mutex_);

  /// Closes the quiesce window.
  void Unquiesce(uint64_t session) EXCLUDES(state_mutex_);

  /// True while a quiesce window is open.
  bool IsQuiesced() const EXCLUDES(state_mutex_);

  /// Explicit entry-lock API for trigger action servers. "LTAP is used
  /// to obtain locks because the PBX, MP and the LDAP server do not
  /// expose their locking capabilities" (paper §4.4): before the Update
  /// Manager applies a direct-device-update sequence, it takes the
  /// target entry's lock here so conflicting client updates wait.
  Status LockEntry(const ldap::Dn& dn, uint64_t session);
  /// As above, but with an explicit wait bound instead of the
  /// configured one. `timeout_micros <= 0` means try-once: the caller
  /// (the UM's DDU retry loop) owns the backoff policy.
  Status LockEntry(const ldap::Dn& dn, uint64_t session,
                   int64_t timeout_micros);
  void UnlockEntry(const ldap::Dn& dn, uint64_t session);

  /// Operation counters (drive the E7 benches).
  struct Stats {
    uint64_t updates = 0;
    uint64_t reads = 0;
    uint64_t internal_ops = 0;
    uint64_t triggers_fired = 0;
    uint64_t vetoes = 0;
    uint64_t quiesce_waits = 0;
  };
  Stats stats() const;

  const LockTable& lock_table() const { return locks_; }

  // LdapService:
  Status Add(const ldap::OpContext& ctx,
             const ldap::AddRequest& request) override;
  Status Delete(const ldap::OpContext& ctx,
                const ldap::DeleteRequest& request) override;
  Status Modify(const ldap::OpContext& ctx,
                const ldap::ModifyRequest& request) override;
  Status ModifyRdn(const ldap::OpContext& ctx,
                   const ldap::ModifyRdnRequest& request) override;
  StatusOr<ldap::SearchResult> Search(
      const ldap::OpContext& ctx,
      const ldap::SearchRequest& request) override;
  Status Compare(const ldap::OpContext& ctx,
                 const ldap::CompareRequest& request) override;
  StatusOr<std::string> Bind(const ldap::BindRequest& request) override;

 private:
  /// Blocks while another session's quiesce window is open, then
  /// registers and counts an in-flight update. Conflict on timeout.
  Status EnterUpdate(uint64_t session) EXCLUDES(state_mutex_);
  void ExitUpdate() EXCLUDES(state_mutex_);

  /// Fetches the current entry image at `dn` from the backend (using
  /// an internal read), or nullopt when absent.
  std::optional<ldap::Entry> Snapshot(const ldap::Dn& dn);

  /// Fires all matching triggers of `timing`; returns the first error
  /// (before-trigger errors veto the operation).
  Status FireTriggers(TriggerTiming timing,
                      const UpdateNotification& notification,
                      const ldap::Entry& match_image);

  ldap::LdapService* backend_;
  GatewayConfig config_;
  LockTable locks_;
  // Deliberately unguarded: RegisterTrigger is documented setup-only
  // (configuration, per the class comment); after setup the vector is
  // only ever read.
  std::vector<TriggerSpec> triggers_;

  mutable Mutex state_mutex_{LockRank::kGatewayState,
                             "ltap.gateway.state"};
  CondVar state_cv_;
  uint64_t quiesced_by_ GUARDED_BY(state_mutex_) = 0;  // 0 = not quiesced.
  int in_flight_updates_ GUARDED_BY(state_mutex_) = 0;

  std::atomic<uint64_t> next_session_{1};
  /// Relaxed atomics behind Stats: counted without a lock, copied by
  /// stats().
  struct Counters {
    std::atomic<uint64_t> updates{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> internal_ops{0};
    std::atomic<uint64_t> triggers_fired{0};
    std::atomic<uint64_t> vetoes{0};
    std::atomic<uint64_t> quiesce_waits{0};
  };
  Counters counters_;
};

}  // namespace metacomm::ltap

#endif  // METACOMM_LTAP_GATEWAY_H_
