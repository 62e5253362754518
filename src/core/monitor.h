#ifndef METACOMM_CORE_MONITOR_H_
#define METACOMM_CORE_MONITOR_H_

#include <vector>

#include "core/update_manager.h"
#include "ldap/server.h"
#include "ltap/gateway.h"
#include "storage/durability.h"

namespace metacomm::core {

/// MetaComm runtime statistics as a read-only LDAP subtree under
/// cn=monitor,<suffix> — the directory-native monitoring idiom (real
/// servers expose cn=monitor the same way). Administrators browse the
/// meta-directory's own health with the same LDAP tools they use for
/// everything else.
///
/// Layout:
///   cn=monitor,<suffix>                    (container)
///   cn=gateway,cn=monitor,<suffix>         LTAP counters
///   cn=update-manager,cn=monitor,<suffix>  UM counters
///   cn=um-batches,cn=monitor,<suffix>      batch-size histogram
///   cn=um-shard-N,cn=monitor,<suffix>      per-shard queue telemetry
///   cn=directory,cn=monitor,<suffix>       backend size/changes
///   cn=ldap-reads,cn=monitor,<suffix>      read path: search counts,
///                                          plan mix, candidate
///                                          selectivity, snapshot age
///   cn=um-health-<repo>,cn=monitor,<suffix> per-repository fault
///                                          surface: circuit-breaker
///                                          state, consecutive
///                                          failures, open skips,
///                                          replay backlog, injected
///                                          fault telemetry
///   cn=durability,cn=monitor,<suffix>      WAL, intents, checkpoints
///                                          (with a data dir only)
///
/// Returns the container `base` followed by one entry per section,
/// with the counters' current values as "key=value" monitorInfo
/// strings. MetaCommSystem installs it as the server's rendered
/// subtree (LdapServer::SetRenderedSubtree), so the entries are built
/// each time they are read: always current, and looking at them writes
/// nothing — no directory commit, no WAL record, no propagation.
std::vector<ldap::Entry> RenderMonitor(const ldap::Dn& base,
                                       const ldap::LdapServer& server,
                                       const ltap::LtapGateway& gateway,
                                       const UpdateManager& update_manager,
                                       storage::DurabilityManager* durability);

}  // namespace metacomm::core

#endif  // METACOMM_CORE_MONITOR_H_
