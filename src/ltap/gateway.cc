#include "ltap/gateway.h"

#include <chrono>

namespace metacomm::ltap {

namespace {

/// RAII helper releasing an entry lock on scope exit.
class ScopedLock {
 public:
  ScopedLock(LockTable* table, const ldap::Dn& dn, uint64_t session,
             bool enabled)
      : table_(table), dn_(dn), session_(session), enabled_(enabled) {}
  ~ScopedLock() {
    if (enabled_) table_->Release(dn_, session_);
  }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  LockTable* table_;
  ldap::Dn dn_;
  uint64_t session_;
  bool enabled_;
};

}  // namespace

LtapGateway::LtapGateway(ldap::LdapService* backend, GatewayConfig config)
    : backend_(backend), config_(config) {}

void LtapGateway::RegisterTrigger(TriggerSpec spec) {
  triggers_.push_back(std::move(spec));
}

uint64_t LtapGateway::NewSession() {
  return next_session_.fetch_add(1);
}

Status LtapGateway::Quiesce(uint64_t session) {
  MutexLock lock(&state_mutex_);
  if (quiesced_by_ != 0 && quiesced_by_ != session) {
    return Status::Conflict("another synchronization is in progress");
  }
  quiesced_by_ = session;
  // Wait for in-flight updates from other sessions to drain. Explicit
  // deadline loop so the predicate runs under the analyzed lock scope.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(config_.quiesce_wait_micros);
  bool drained = true;
  while (in_flight_updates_ != 0) {
    if (!state_cv_.WaitUntil(lock, deadline) && in_flight_updates_ != 0) {
      drained = false;
      break;
    }
  }
  if (!drained) {
    quiesced_by_ = 0;
    state_cv_.NotifyAll();
    return Status::DeadlineExceeded("in-flight updates did not drain");
  }
  // Tell action servers a persistent connection (sequence) opened.
  for (const TriggerSpec& spec : triggers_) {
    if (spec.server != nullptr) {
      spec.server->OnPersistentConnection(session, /*open=*/true);
    }
  }
  return Status::Ok();
}

void LtapGateway::Unquiesce(uint64_t session) {
  {
    MutexLock lock(&state_mutex_);
    if (quiesced_by_ != session) return;
    quiesced_by_ = 0;
  }
  for (const TriggerSpec& spec : triggers_) {
    if (spec.server != nullptr) {
      spec.server->OnPersistentConnection(session, /*open=*/false);
    }
  }
  state_cv_.NotifyAll();
}

bool LtapGateway::IsQuiesced() const {
  MutexLock lock(&state_mutex_);
  return quiesced_by_ != 0;
}

Status LtapGateway::LockEntry(const ldap::Dn& dn, uint64_t session) {
  return LockEntry(dn, session, config_.lock_timeout_micros);
}

Status LtapGateway::LockEntry(const ldap::Dn& dn, uint64_t session,
                              int64_t timeout_micros) {
  if (!config_.locking_enabled) return Status::Ok();
  return locks_.Acquire(dn, session, timeout_micros);
}

void LtapGateway::UnlockEntry(const ldap::Dn& dn, uint64_t session) {
  if (!config_.locking_enabled) return;
  locks_.Release(dn, session);
}

Status LtapGateway::EnterUpdate(uint64_t session) {
  MutexLock lock(&state_mutex_);
  if (quiesced_by_ != 0 && quiesced_by_ != session) {
    counters_.quiesce_waits.fetch_add(1, std::memory_order_relaxed);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(config_.quiesce_wait_micros);
    while (quiesced_by_ != 0 && quiesced_by_ != session) {
      if (!state_cv_.WaitUntil(lock, deadline) && quiesced_by_ != 0 &&
          quiesced_by_ != session) {
        return Status::Conflict("gateway is quiesced for synchronization");
      }
    }
  }
  ++in_flight_updates_;
  counters_.updates.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void LtapGateway::ExitUpdate() {
  {
    MutexLock lock(&state_mutex_);
    --in_flight_updates_;
  }
  state_cv_.NotifyAll();
}

std::optional<ldap::Entry> LtapGateway::Snapshot(const ldap::Dn& dn) {
  ldap::OpContext internal_ctx;
  internal_ctx.internal = true;
  ldap::SearchRequest request;
  request.base = dn;
  request.scope = ldap::Scope::kBase;
  StatusOr<ldap::SearchResult> result =
      backend_->Search(internal_ctx, request);
  if (!result.ok() || result->entries.empty()) return std::nullopt;
  return result->entries.front();
}

Status LtapGateway::FireTriggers(TriggerTiming timing,
                                 const UpdateNotification& notification,
                                 const ldap::Entry& match_image) {
  if (!config_.triggers_enabled) return Status::Ok();
  Status first_error = Status::Ok();
  for (const TriggerSpec& spec : triggers_) {
    if (spec.timing != timing) continue;
    if (!TriggerMatches(spec, notification.op, match_image)) continue;
    counters_.triggers_fired.fetch_add(1, std::memory_order_relaxed);
    Status status = spec.server->OnUpdate(notification);
    if (!status.ok() && first_error.ok()) {
      first_error = status;
      if (timing == TriggerTiming::kBefore) {
        counters_.vetoes.fetch_add(1, std::memory_order_relaxed);
        break;  // A veto aborts the operation; later triggers are moot.
      }
    }
  }
  return first_error;
}

Status LtapGateway::Add(const ldap::OpContext& ctx,
                        const ldap::AddRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->Add(ctx, request);
  }
  METACOMM_RETURN_IF_ERROR(EnterUpdate(ctx.session_id));
  struct ExitGuard {
    LtapGateway* gw;
    ~ExitGuard() { gw->ExitUpdate(); }
  } exit_guard{this};

  const ldap::Dn& dn = request.entry.dn();
  if (config_.locking_enabled) {
    METACOMM_RETURN_IF_ERROR(
        locks_.Acquire(dn, ctx.session_id, config_.lock_timeout_micros));
  }
  ScopedLock lock(&locks_, dn, ctx.session_id, config_.locking_enabled);

  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kAdd;
  notification.dn = dn;
  notification.new_entry = request.entry;
  notification.principal = ctx.principal;
  notification.session_id = ctx.session_id;

  notification.timing = TriggerTiming::kBefore;
  METACOMM_RETURN_IF_ERROR(
      FireTriggers(TriggerTiming::kBefore, notification, request.entry));

  METACOMM_RETURN_IF_ERROR(backend_->Add(ctx, request));

  notification.timing = TriggerTiming::kAfter;
  notification.new_entry = Snapshot(dn);
  return FireTriggers(TriggerTiming::kAfter, notification,
                      notification.new_entry.value_or(request.entry));
}

Status LtapGateway::Delete(const ldap::OpContext& ctx,
                           const ldap::DeleteRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->Delete(ctx, request);
  }
  METACOMM_RETURN_IF_ERROR(EnterUpdate(ctx.session_id));
  struct ExitGuard {
    LtapGateway* gw;
    ~ExitGuard() { gw->ExitUpdate(); }
  } exit_guard{this};

  if (config_.locking_enabled) {
    METACOMM_RETURN_IF_ERROR(locks_.Acquire(request.dn, ctx.session_id,
                                            config_.lock_timeout_micros));
  }
  ScopedLock lock(&locks_, request.dn, ctx.session_id,
                  config_.locking_enabled);

  std::optional<ldap::Entry> old_entry = Snapshot(request.dn);
  if (!old_entry.has_value()) {
    return Status::NotFound("no such object: " + request.dn.ToString());
  }

  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kDelete;
  notification.dn = request.dn;
  notification.old_entry = old_entry;
  notification.principal = ctx.principal;
  notification.session_id = ctx.session_id;

  notification.timing = TriggerTiming::kBefore;
  METACOMM_RETURN_IF_ERROR(
      FireTriggers(TriggerTiming::kBefore, notification, *old_entry));

  METACOMM_RETURN_IF_ERROR(backend_->Delete(ctx, request));

  notification.timing = TriggerTiming::kAfter;
  return FireTriggers(TriggerTiming::kAfter, notification, *old_entry);
}

Status LtapGateway::Modify(const ldap::OpContext& ctx,
                           const ldap::ModifyRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->Modify(ctx, request);
  }
  METACOMM_RETURN_IF_ERROR(EnterUpdate(ctx.session_id));
  struct ExitGuard {
    LtapGateway* gw;
    ~ExitGuard() { gw->ExitUpdate(); }
  } exit_guard{this};

  if (config_.locking_enabled) {
    METACOMM_RETURN_IF_ERROR(locks_.Acquire(request.dn, ctx.session_id,
                                            config_.lock_timeout_micros));
  }
  ScopedLock lock(&locks_, request.dn, ctx.session_id,
                  config_.locking_enabled);

  std::optional<ldap::Entry> old_entry = Snapshot(request.dn);
  if (!old_entry.has_value()) {
    return Status::NotFound("no such object: " + request.dn.ToString());
  }

  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kModify;
  notification.dn = request.dn;
  notification.mods = request.mods;
  notification.old_entry = old_entry;
  notification.principal = ctx.principal;
  notification.session_id = ctx.session_id;

  notification.timing = TriggerTiming::kBefore;
  METACOMM_RETURN_IF_ERROR(
      FireTriggers(TriggerTiming::kBefore, notification, *old_entry));

  METACOMM_RETURN_IF_ERROR(backend_->Modify(ctx, request));

  notification.timing = TriggerTiming::kAfter;
  notification.new_entry = Snapshot(request.dn);
  return FireTriggers(
      TriggerTiming::kAfter, notification,
      notification.new_entry.has_value() ? *notification.new_entry
                                         : *old_entry);
}

Status LtapGateway::ModifyRdn(const ldap::OpContext& ctx,
                              const ldap::ModifyRdnRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->ModifyRdn(ctx, request);
  }
  METACOMM_RETURN_IF_ERROR(EnterUpdate(ctx.session_id));
  struct ExitGuard {
    LtapGateway* gw;
    ~ExitGuard() { gw->ExitUpdate(); }
  } exit_guard{this};

  ldap::Dn new_dn = request.dn.WithLeaf(request.new_rdn);
  if (config_.locking_enabled) {
    METACOMM_RETURN_IF_ERROR(locks_.Acquire(request.dn, ctx.session_id,
                                            config_.lock_timeout_micros));
  }
  ScopedLock lock_old(&locks_, request.dn, ctx.session_id,
                      config_.locking_enabled);
  // Also lock the post-rename name so concurrent updates addressed to
  // the new DN serialize with this rename.
  bool lock_new = config_.locking_enabled &&
                  new_dn.Normalized() != request.dn.Normalized();
  if (lock_new) {
    METACOMM_RETURN_IF_ERROR(locks_.Acquire(new_dn, ctx.session_id,
                                            config_.lock_timeout_micros));
  }
  ScopedLock lock_new_guard(&locks_, new_dn, ctx.session_id, lock_new);

  std::optional<ldap::Entry> old_entry = Snapshot(request.dn);
  if (!old_entry.has_value()) {
    return Status::NotFound("no such object: " + request.dn.ToString());
  }

  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kModifyRdn;
  notification.dn = request.dn;
  notification.new_dn = new_dn;
  notification.old_entry = old_entry;
  notification.principal = ctx.principal;
  notification.session_id = ctx.session_id;

  notification.timing = TriggerTiming::kBefore;
  METACOMM_RETURN_IF_ERROR(
      FireTriggers(TriggerTiming::kBefore, notification, *old_entry));

  METACOMM_RETURN_IF_ERROR(backend_->ModifyRdn(ctx, request));

  notification.timing = TriggerTiming::kAfter;
  notification.new_entry = Snapshot(new_dn);
  return FireTriggers(
      TriggerTiming::kAfter, notification,
      notification.new_entry.has_value() ? *notification.new_entry
                                         : *old_entry);
}

StatusOr<ldap::SearchResult> LtapGateway::Search(
    const ldap::OpContext& ctx, const ldap::SearchRequest& request) {
  // Reads bypass locking, triggers and quiesce — the gateway/UM
  // separation exists so the UM machine "does not need to do any read
  // processing" (paper §5.5).
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  return backend_->Search(ctx, request);
}

Status LtapGateway::Compare(const ldap::OpContext& ctx,
                            const ldap::CompareRequest& request) {
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  return backend_->Compare(ctx, request);
}

StatusOr<std::string> LtapGateway::Bind(const ldap::BindRequest& request) {
  return backend_->Bind(request);
}

LtapGateway::Stats LtapGateway::stats() const {
  constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  Stats out;
  out.updates = counters_.updates.load(kRelaxed);
  out.reads = counters_.reads.load(kRelaxed);
  out.internal_ops = counters_.internal_ops.load(kRelaxed);
  out.triggers_fired = counters_.triggers_fired.load(kRelaxed);
  out.vetoes = counters_.vetoes.load(kRelaxed);
  out.quiesce_waits = counters_.quiesce_waits.load(kRelaxed);
  return out;
}

}  // namespace metacomm::ltap
