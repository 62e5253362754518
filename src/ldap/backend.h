#ifndef METACOMM_LDAP_BACKEND_H_
#define METACOMM_LDAP_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_shared_ptr.h"
#include "common/mutex.h"
#include "common/persistent_map.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ldap/entry.h"
#include "ldap/operations.h"
#include "ldap/schema.h"

namespace metacomm::ldap {

/// A committed change, as observed by the journal (the WAL) and by
/// backend listeners (benchmark and test instrumentation).
struct ChangeRecord {
  uint64_t sequence = 0;
  UpdateOp op = UpdateOp::kAdd;
  Dn dn;                          // DN before the change.
  std::optional<Dn> new_dn;       // For kModifyRdn: DN after rename.
  std::optional<Entry> old_entry; // Absent for kAdd.
  std::optional<Entry> new_entry; // Absent for kDelete.
};

/// In-memory Directory Information Tree with LDAP update semantics.
///
/// The backend enforces exactly the directory behaviour MetaComm has to
/// cope with (paper §2, §5.1, §5.3):
///  * every update touches a single entry and is atomic;
///  * there is no way to group updates into a transaction;
///  * Modify cannot touch RDN attribute values — that needs ModifyRDN,
///    so "rename + change extension" is inherently two operations;
///  * deletes apply to leaves only.
///
/// Concurrency model — snapshot isolation (RCU-style):
///  * The entire directory state (entry tree + value index) lives in an
///    immutable Snapshot published through one atomic shared_ptr.
///  * Readers (Get/Exists/Search/DumpAll/Size/ChangeCount) load the
///    current snapshot and never take a mutex: they cannot block
///    behind writers, and they observe a single consistent version for
///    the whole operation.
///  * Writers serialize on `write_mutex_`, derive the next version by
///    copy-on-write (persistent maps share all untouched structure),
///    and publish it with one pointer swap. Old snapshots are freed by
///    shared_ptr refcounting once the last reader drops them.
///
/// The value index keeps ordered keys, so subtree searches are planned
/// (see ldap/query_planner.h): equality and prefix-substring atoms —
/// including under and/or composition — resolve to candidate DN sets
/// before any entry is touched, and only unindexable filters fall back
/// to the subtree scan.
class Backend {
 public:
  using Listener = std::function<void(const ChangeRecord&)>;

  /// One immutable node of a published tree version.
  struct TreeNode {
    Entry entry;
    // Normalized child RDN -> node. Ordered, so iteration is
    // deterministic (stable search results, stable dumps).
    PersistentMap<std::shared_ptr<const TreeNode>> children;
  };

  /// Equality/ordered index layers: lower(attr) -> normalized value ->
  /// normalized DN -> DN. All layers are persistent maps, so a writer
  /// touches O(log n) nodes per indexed value and the ordered middle
  /// layer supports range scans for prefix plans. Every posting of one
  /// entry shares one immutable DN, so a posting node copied on a
  /// write path copies a pointer, not the DN's RDN vector.
  using Postings = PersistentMap<std::shared_ptr<const Dn>>;
  using ValueIndex = PersistentMap<Postings>;
  using AttrIndex = PersistentMap<ValueIndex>;

  /// One immutable published version of the whole directory.
  struct Snapshot {
    /// Sequence number of the last change folded in (== ChangeCount).
    uint64_t version = 0;
    /// Virtual root; root->entry has the empty DN.
    std::shared_ptr<const TreeNode> root;
    AttrIndex index;
    size_t entry_count = 0;
    /// RealClock micros at publication (drives monitor snapshot age).
    int64_t published_micros = 0;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  /// Read-side counters. Loads are lock-free; see read_stats().
  struct ReadStats {
    uint64_t searches = 0;
    uint64_t gets = 0;
    uint64_t exists = 0;
    /// Subtree searches answered from an index-derived candidate set.
    uint64_t indexed_plans = 0;
    /// Subtree searches that fell back to the full scan.
    uint64_t scan_plans = 0;
    /// Candidate entries examined by indexed plans.
    uint64_t candidates_examined = 0;
    /// Candidates that actually matched the filter.
    uint64_t candidates_matched = 0;
  };

  /// `schema` may be nullptr to run schema-less (some unit tests and
  /// the raw-directory baselines do this); when set, every resulting
  /// entry is validated before commit. The schema must outlive the
  /// backend.
  explicit Backend(const Schema* schema = nullptr);

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Adds a leaf entry. The parent must exist, except for depth-1
  /// entries which act as directory suffixes.
  Status Add(const Entry& entry) EXCLUDES(write_mutex_);

  /// Deletes a leaf entry.
  Status Delete(const Dn& dn) EXCLUDES(write_mutex_);

  /// Applies a modification sequence to one entry atomically. Rejects
  /// changes that would remove an RDN attribute value
  /// (kNotAllowedOnRdn semantics).
  Status Modify(const Dn& dn, const std::vector<Modification>& mods)
      EXCLUDES(write_mutex_);

  /// Renames a leaf entry. Descendant DNs are rewritten.
  Status ModifyRdn(const Dn& dn, const Rdn& new_rdn, bool delete_old_rdn)
      EXCLUDES(write_mutex_);

  /// Returns a copy of the entry at `dn`. Lock-free.
  StatusOr<Entry> Get(const Dn& dn) const;

  /// True if an entry exists at `dn`. Lock-free.
  bool Exists(const Dn& dn) const;

  /// Search over the tree. Lock-free: runs entirely on one snapshot.
  StatusOr<SearchResult> Search(const SearchRequest& request) const;

  /// Number of entries. Lock-free (maintained per snapshot).
  size_t Size() const;

  /// Registers a post-commit listener. Listeners run under the
  /// backend's write mutex (so they observe changes in commit order)
  /// and must not write back into the backend; snapshot reads are
  /// safe.
  void AddListener(Listener listener) EXCLUDES(write_mutex_);

  /// Durability hook, installed by storage::DurabilityManager.
  /// `append` runs inside Commit — under write_mutex_, after the
  /// sequence number is stamped and BEFORE the snapshot is published
  /// (write-ahead order) — and returns an opaque durability token.
  /// It must stay cheap: the manager only queues the encoded change
  /// here and defers all I/O. `sync` runs on the mutating thread after
  /// write_mutex_ is released and blocks until the token's change is
  /// durable, so a mutation only returns success once its change is
  /// recoverable; with group commit, concurrent mutations share the
  /// flush. Everything `append` locks must rank after
  /// kLdapBackendWrite.
  struct Journal {
    std::function<uint64_t(const ChangeRecord&)> append;
    std::function<Status(uint64_t lsn)> sync;
  };

  /// Attach before serving traffic. The journal must stay valid until
  /// ClearJournal() — which itself must only run once mutations have
  /// quiesced (in-flight mutations hold a raw pointer across `sync`).
  void SetJournal(Journal journal) EXCLUDES(write_mutex_);
  void ClearJournal() EXCLUDES(write_mutex_);

  /// Fast-forwards the commit sequence counter and republishes the
  /// current snapshot under that version. Recovery uses this so
  /// replayed history keeps its original numbering: the next commit's
  /// WAL record must continue where the recovered suffix ended, and
  /// checkpoints must stamp comparable versions. No-op when `sequence`
  /// is not ahead of the current counter.
  void SetSequence(uint64_t sequence) EXCLUDES(write_mutex_);

  /// Snapshot of every entry, parents before children (suitable for
  /// reloading via Add). Lock-free.
  std::vector<Entry> DumpAll() const;

  /// Number of committed changes so far. Lock-free.
  uint64_t ChangeCount() const;

  /// The current published version. Readers that need multiple
  /// consistent lookups (LDIF export, the query planner tests) hold
  /// one snapshot and resolve everything against it.
  SnapshotPtr GetSnapshot() const;

  /// Point-in-time copy of the read-side counters.
  ReadStats read_stats() const;

  /// Finds the node for `dn` in `snapshot`; nullptr when absent.
  static const TreeNode* FindNode(const Snapshot& snapshot, const Dn& dn);

  /// Visits every entry of `snapshot`, parents before children.
  /// `fn(entry)` returns false to stop.
  static void ForEachEntry(const Snapshot& snapshot,
                           const std::function<bool(const Entry&)>& fn);

 private:
  using TreeNodePtr = std::shared_ptr<const TreeNode>;

  /// What a mutation carries out of the write critical section: the
  /// journal to wait on (nullptr when none is attached) and the LSN
  /// its commit was appended at.
  struct JournalTicket {
    const Journal* journal = nullptr;
    uint64_t lsn = 0;
  };

  /// Snapshot of the journal state right after a Commit.
  JournalTicket TakeJournalTicket() const REQUIRES(write_mutex_);

  /// Durability wait for one committed mutation; runs unlocked.
  static Status AwaitJournal(const JournalTicket& ticket);

  /// The locked bodies of the public mutations. Each validates,
  /// builds the next snapshot under write_mutex_, commits, and hands
  /// back the journal ticket; the public wrapper then performs the
  /// durability wait outside the lock (so concurrent commits can
  /// share one group-commit flush instead of serializing on fsync).
  Status AddImpl(const Entry& entry, JournalTicket* ticket)
      EXCLUDES(write_mutex_);
  Status DeleteImpl(const Dn& dn, JournalTicket* ticket)
      EXCLUDES(write_mutex_);
  Status ModifyImpl(const Dn& dn, const std::vector<Modification>& mods,
                    JournalTicket* ticket) EXCLUDES(write_mutex_);
  Status ModifyRdnImpl(const Dn& dn, const Rdn& new_rdn,
                       bool delete_old_rdn, JournalTicket* ticket)
      EXCLUDES(write_mutex_);

  /// Applies `mods` to `entry` (already a copy). Also enforces
  /// RDN-attribute protection using `rdn`. Touches no guarded state.
  Status ApplyMods(const Rdn& rdn, const std::vector<Modification>& mods,
                   Entry* entry) const;

  /// Current snapshot as seen by the write path (writers are the only
  /// mutators, so this is also the parent of the next version).
  SnapshotPtr WriterSnapshot() const REQUIRES(write_mutex_);

  /// Publishes `snapshot` (stamping version/time) as the new current
  /// version and notifies listeners with `record`.
  void Commit(Snapshot snapshot, ChangeRecord record)
      REQUIRES(write_mutex_);

  const Schema* schema_;

  /// Serializes the write path; never taken by readers. The journal's
  /// append and the listeners fire under it, so everything they lock
  /// must rank after kLdapBackendWrite.
  mutable Mutex write_mutex_{LockRank::kLdapBackendWrite,
                             "ldap.backend.write"};
  /// The published version. Readers copy the pointer through a cell
  /// whose spin bit covers only the refcount bump (see
  /// common/atomic_shared_ptr.h) — writers swap the pointer, they
  /// never lock readers out of the snapshot they hold.
  common::AtomicSharedPtr<const Snapshot> snapshot_;
  std::vector<Listener> listeners_ GUARDED_BY(write_mutex_);
  uint64_t sequence_ GUARDED_BY(write_mutex_) = 0;
  std::unique_ptr<Journal> journal_ GUARDED_BY(write_mutex_);
  /// LSN returned by journal_->append for the latest Commit.
  uint64_t last_journal_lsn_ GUARDED_BY(write_mutex_) = 0;

  /// Read counters; relaxed atomics so the read path stays lock-free.
  struct AtomicReadStats {
    std::atomic<uint64_t> searches{0};
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> exists{0};
    std::atomic<uint64_t> indexed_plans{0};
    std::atomic<uint64_t> scan_plans{0};
    std::atomic<uint64_t> candidates_examined{0};
    std::atomic<uint64_t> candidates_matched{0};
  };
  mutable AtomicReadStats read_stats_;
};

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_BACKEND_H_
