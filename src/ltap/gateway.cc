#include "ltap/gateway.h"

#include <chrono>
#include <string>

namespace metacomm::ltap {

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
  return std::move(result->entries.front());
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

template <typename WriteFn>
Status LtapGateway::Update(const ldap::OpContext& ctx,
                           UpdateNotification& notification,
                           WriteFn write) {
  METACOMM_RETURN_IF_ERROR(EnterUpdate(ctx.session_id));
  // One release for every exit: the entry locks taken, then the
  // in-flight slot.
  struct Release {
    LtapGateway* gw;
    uint64_t session;
    const ldap::Dn* locked[2] = {nullptr, nullptr};
    ~Release() {
      for (const ldap::Dn* dn : locked) {
        if (dn != nullptr) gw->locks_.Release(*dn, session);
      }
      gw->ExitUpdate();
    }
  } release{this, ctx.session_id};

  if (config_.locking_enabled) {
    // A rename also locks its new name, so updates addressed to it
    // serialize with the rename. Both names are taken in normalized-DN
    // order, the order the Update Manager locks a DDU's names in, so
    // no two updates can each hold one name while waiting on the other.
    const ldap::Dn* names[2] = {&notification.dn, nullptr};
    if (notification.new_dn.has_value()) {
      std::string from = notification.dn.Normalized();
      std::string to = notification.new_dn->Normalized();
      if (to < from) {
        names[1] = names[0];
        names[0] = &*notification.new_dn;
      } else if (to != from) {
        names[1] = &*notification.new_dn;
      }
    }
    for (int i = 0; i < 2 && names[i] != nullptr; ++i) {
      METACOMM_RETURN_IF_ERROR(locks_.Acquire(*names[i], ctx.session_id,
                                              config_.lock_timeout_micros));
      release.locked[i] = names[i];
    }
  }

  if (notification.op != ldap::UpdateOp::kAdd) {
    notification.old_entry = Snapshot(notification.dn);
    if (!notification.old_entry.has_value()) {
      return Status::NotFound("no such object: " +
                              notification.dn.ToString());
    }
  }
  notification.principal = ctx.principal;
  notification.session_id = ctx.session_id;

  // Before-triggers see the old image, or an Add's proposed entry.
  notification.timing = TriggerTiming::kBefore;
  METACOMM_RETURN_IF_ERROR(
      FireTriggers(TriggerTiming::kBefore, notification,
                   notification.old_entry ? *notification.old_entry
                                          : *notification.new_entry));

  METACOMM_RETURN_IF_ERROR(write());

  // After-triggers see the stored image (an Add whose image cannot be
  // read back keeps its proposed entry); a Delete has none.
  if (notification.op != ldap::UpdateOp::kDelete) {
    std::optional<ldap::Entry> stored = Snapshot(
        notification.new_dn ? *notification.new_dn : notification.dn);
    if (stored.has_value()) notification.new_entry = std::move(stored);
  }
  notification.timing = TriggerTiming::kAfter;
  return FireTriggers(TriggerTiming::kAfter, notification,
                      notification.new_entry ? *notification.new_entry
                                             : *notification.old_entry);
}

Status LtapGateway::Add(const ldap::OpContext& ctx,
                        const ldap::AddRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->Add(ctx, request);
  }
  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kAdd;
  notification.dn = request.entry.dn();
  notification.new_entry = request.entry;
  return Update(ctx, notification,
                [&] { return backend_->Add(ctx, request); });
}

Status LtapGateway::Delete(const ldap::OpContext& ctx,
                           const ldap::DeleteRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->Delete(ctx, request);
  }
  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kDelete;
  notification.dn = request.dn;
  return Update(ctx, notification,
                [&] { return backend_->Delete(ctx, request); });
}

Status LtapGateway::Modify(const ldap::OpContext& ctx,
                           const ldap::ModifyRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->Modify(ctx, request);
  }
  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kModify;
  notification.dn = request.dn;
  notification.mods = request.mods;
  return Update(ctx, notification,
                [&] { return backend_->Modify(ctx, request); });
}

Status LtapGateway::ModifyRdn(const ldap::OpContext& ctx,
                              const ldap::ModifyRdnRequest& request) {
  if (ctx.internal) {
    counters_.internal_ops.fetch_add(1, std::memory_order_relaxed);
    return backend_->ModifyRdn(ctx, request);
  }
  UpdateNotification notification;
  notification.op = ldap::UpdateOp::kModifyRdn;
  notification.dn = request.dn;
  notification.new_dn = request.dn.WithLeaf(request.new_rdn);
  return Update(ctx, notification,
                [&] { return backend_->ModifyRdn(ctx, request); });
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
