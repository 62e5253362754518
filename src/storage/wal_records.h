#ifndef METACOMM_STORAGE_WAL_RECORDS_H_
#define METACOMM_STORAGE_WAL_RECORDS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "ldap/backend.h"
#include "lexpress/record.h"

namespace metacomm::storage {

/// Typed payloads carried inside RecordCodec frames.
///
/// Backend change ("C"): one committed directory mutation, logged as a
/// full-image redo record — the post-state entry travels with the
/// record, so replay is idempotent from any snapshot at or before the
/// record's sequence number (replaying an already-applied change is a
/// no-op upsert). Grammar (first line; tokens RecordCodec-escaped):
///
///   C <seq> <op> <dn> [<new-dn>]
///   <LDIF content record of the post-state entry>   (absent for delete)
///
/// Intent ("I"): a device-originated update that has been accepted
/// (acked to the device filter) but not yet applied through the UM
/// pipeline. Logged before the ack, resolved ("R") once the item
/// settles; unresolved intents at recovery are re-submitted through
/// the UM's normal convergence path.
///
///   I <id> <op> <schema> <source> <conditional 0|1>
///   X <explicit attr>        (zero or more)
///   O <attr>=<v1>,<v2>       (old-image lines)
///   N <attr>=<v1>,<v2>       (new-image lines)
///
///   R <id>

/// A decoded backend change.
struct WalChange {
  uint64_t sequence = 0;
  ldap::UpdateOp op = ldap::UpdateOp::kAdd;
  ldap::Dn dn;                         // DN before the change.
  std::optional<ldap::Dn> new_dn;      // For modifyrdn.
  std::optional<ldap::Entry> entry;    // Post-state image (none: delete).
};

/// A decoded intent.
struct WalIntent {
  uint64_t id = 0;
  lexpress::UpdateDescriptor update;
};

/// Discriminated decode result for one WAL payload.
struct WalRecord {
  enum class Type { kChange, kIntent, kResolve };
  Type type = Type::kChange;
  WalChange change;       // kChange
  WalIntent intent;       // kIntent
  uint64_t resolve_id = 0;  // kResolve
};

std::string EncodeChange(const ldap::ChangeRecord& record);
std::string EncodeIntent(uint64_t id,
                         const lexpress::UpdateDescriptor& update);
std::string EncodeResolve(uint64_t id);

StatusOr<WalRecord> DecodeWalRecord(std::string_view payload);

/// Replays one change into `backend`, idempotently: adds become
/// upserts of the logged image, deletes tolerate an already-gone
/// entry, renames move the old DN's subtree if it still exists and
/// then upsert the image. Replay must happen in sequence order on a
/// single thread.
Status ApplyChange(ldap::Backend* backend, const WalChange& change);

}  // namespace metacomm::storage

#endif  // METACOMM_STORAGE_WAL_RECORDS_H_
