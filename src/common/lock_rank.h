#ifndef METACOMM_COMMON_LOCK_RANK_H_
#define METACOMM_COMMON_LOCK_RANK_H_

namespace metacomm {

/// The global lock-rank hierarchy: every common::Mutex / SharedMutex in
/// the tree is constructed with one of these ranks, and a thread may
/// only acquire a lock whose rank is STRICTLY GREATER than every lock
/// it already holds. Rank order therefore IS the permitted acquisition
/// order, outermost first — enforced at runtime by common/lockdep
/// (Debug/TSan/RelWithDebInfo builds) and mirrored in the
/// ACQUIRED_BEFORE annotations that Clang's -Wthread-safety-beta
/// checks at compile time. tools/metalint rejects any mutex
/// declaration that does not carry a rank.
///
/// The table encodes the nesting the system actually performs
/// (DESIGN.md "Lock hierarchy" documents each edge):
///
///   net          < harness < um.sync < ldap < ltap < um core
///                < devices < common utilities < logging
///
/// Load-bearing orderings, with the code path that creates each edge:
///  - kUmSync < everything from kLdapServerUsers up: Synchronize holds
///    sync_mutex_ across gateway quiesce, directory writes and device
///    fan-out (update_manager.cc).
///  - kGatewayState < kGatewayStats: LtapGateway::EnterUpdate counts a
///    quiesce wait while holding the state lock.
///  - kGatewayState < kLeaf: Quiesce fires OnPersistentConnection
///    callbacks (test recorders) under the state lock.
///  - kUmStats < kUmQueueShard / kBreaker / kFaultInjector:
///    UpdateManager::stats() samples queue depths, breaker snapshots
///    and repository health while holding stats_mutex_.
///  - kUmSync < kUmShutdown: Synchronize reads stop_epoch() (the
///    shutdown lock) inside the sync critical section.
///
/// Same-rank nesting is a violation: if two locks of one rank must
/// ever nest, refine the table with a new rank between neighbours
/// (values are spaced for exactly that).
enum class LockRank : int {
  // --- 1xx: wire layer. Leaf locks in practice (handlers run with no
  //     net lock held), ranked outermost so a handler that calls back
  //     into the loop under a lock is caught: a ScopedBlockingWait on
  //     a loop thread takes kNetEventLoop to hand the loop off.
  kNetEventLoop = 100,    // net::EventLoop callbacks, tasks, stand-ins.
  kNetServerConns = 110,  // net::TcpServer connection table.

  // --- 15x: test/bench harness locks held across entire client
  //     operations (e.g. bench_gateway_vs_library's "library mode"
  //     serialization lock wraps whole gateway calls).
  kHarness = 150,

  // --- 2xx: Update Manager coordination locks that wrap whole
  //     multi-repository conversations.
  kUmSync = 200,  // UpdateManager::sync_mutex_ (one Synchronize at a time).

  // --- 3xx: LDAP store, and the durability layer that hangs off its
  //     commit path.
  kLdapServerUsers = 300,   // LdapServer bind table.
  kLdapBackendWrite = 310,  // Backend::write_mutex_ (COW writer lock).
  // kLdapBackendWrite < kStorageDurability < kStorageWal: the backend
  // journal appends a WAL record inside Commit (still holding
  // write_mutex_), and DurabilityManager holds its state lock while
  // appending intent records to its WAL.
  kStorageDurability = 340,  // storage::DurabilityManager state.
  kStorageWal = 350,         // storage::Wal append/fsync lock.

  // --- 4xx: LTAP.
  kGatewayState = 400,  // LtapGateway quiesce / in-flight state.
  kGatewayStats = 410,  // LtapGateway counters.
  kLtapLockTable = 420, // ltap::LockTable entry-lock map.

  // --- 5xx: Update Manager core.
  kUmShutdown = 500,   // Stop()/sleep interruption plumbing.
  kUmAdmin = 510,      // Admin-callback slot.
  kUmStats = 520,      // Stats/replay-backlog counters.
  kUmQueueShard = 530, // ShardedBlockingQueue per-shard locks.
  kBreaker = 540,      // core::CircuitBreaker state.

  // --- 6xx: repository/device state, the innermost system data the
  //     UM reaches into while propagating.
  kDeviceRecords = 600,  // Device record maps (PBX stations, mailboxes).
  kFaultInjector = 610,  // devices::FaultInjector schedule state.

  // --- 9xx: innermost utilities, acquirable under anything above.
  kLogging = 980,        // Logger sink lock: LOG() runs under any lock.
  kLeaf = 990,           // Ad-hoc leaf state in tests/benches.
};

/// Integer value of a rank, for diagnostics.
constexpr int LockRankValue(LockRank rank) {
  return static_cast<int>(rank);
}

}  // namespace metacomm

#endif  // METACOMM_COMMON_LOCK_RANK_H_
