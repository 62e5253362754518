#ifndef METACOMM_CORE_UPDATE_MANAGER_H_
#define METACOMM_CORE_UPDATE_MANAGER_H_

#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/circuit_breaker.h"
#include "core/error_log.h"
#include "core/ldap_filter.h"
#include "core/repository_filter.h"
#include "lexpress/closure.h"
#include "ltap/gateway.h"
#include "storage/durability.h"

namespace metacomm::core {

/// Update Manager tuning.
struct UpdateManagerConfig {
  /// true: worker threads drain the update queue (production shape).
  /// false: callers drive processing synchronously — trigger and
  /// device notifications process inline on the notifying thread —
  /// which is what the deterministic tests and benches use.
  bool threaded = false;
  /// Number of update workers (threaded mode), all popping the one
  /// update queue. LTAP entry locks, taken before an update is queued,
  /// keep each entry's updates in order; with locking off (ablation A2)
  /// only 1 worker does. 1 reproduces the paper's single coordinator.
  /// Each worker adds (device filters - 1) threads that hold a wave's
  /// other repository conversations while it holds the first.
  int worker_threads = 1;
  /// How many times a DDU retries a contended entry lock before the
  /// update is dropped and the §4.4 error entry is logged. Without
  /// retries, a device update racing a client LDAP write on a
  /// zero-timeout gateway is lost instead of serialized behind it.
  int ddu_lock_retries = 3;
  /// Base backoff between DDU lock retries (doubles per attempt).
  int64_t ddu_lock_retry_backoff_micros = 1'000;
  /// lexpress closure fixpoint cap (runtime cycle detection, §4.2).
  int closure_max_iterations = 16;
  /// Ablation switch (EXPERIMENTS.md A1): when false, updates are NOT
  /// reapplied to their originating device, so the write-write
  /// convergence of §4.4/§5.4 is lost under racing updates.
  bool reapply_to_originator = true;
  /// The saga-style undo of §4.4's "later version", per unit of a
  /// wave: when a unit's update fails at any repository, its applies
  /// at every other one (a wave talks to all at once) are compensated
  /// in reverse filter order from their pre-update images. Other units
  /// of the wave are untouched.
  bool saga_undo = false;
  /// Where error-log entries are written ("cn=errors,o=Lucent");
  /// empty disables directory error logging.
  std::string error_base = "cn=errors,o=Lucent";
  /// Experiment instrumentation: sleep this long between computing an
  /// update's closure and writing it back, widening the window in
  /// which concurrent updates can interleave. Used by the locking
  /// ablation (EXPERIMENTS.md A2); zero in production. The delay
  /// models the per-conversation device cost and is paid once per
  /// WAVE, not once per update.
  int64_t artificial_processing_delay_micros = 0;
  /// Most items a worker drains from the queue at once.
  /// Every drain is split into entity-disjoint waves (DESIGN.md
  /// "Batching"), and each wave holds one conversation per
  /// repository. 1 (the default) is the paper's
  /// one-update-per-device-conversation shape: each update is a
  /// one-item wave. Larger values share each repository's
  /// conversation across the items of a wave.
  int max_batch_size = 1;
  /// Per-repository circuit breaker (DESIGN.md "Fault tolerance").
  /// When a device's administrative link is down, every propagation
  /// attempt pays the full (possibly injected-timeout) link cost; the
  /// breaker bounds it: after `breaker_failure_threshold` consecutive
  /// retryable failures further updates to that repository fast-fail
  /// into the §4.4 error log while propagation to healthy repositories
  /// continues undisturbed.
  bool breaker_enabled = true;
  int breaker_failure_threshold = 3;
  /// First open interval; doubles per failed half-open probe, capped
  /// at breaker_max_backoff_micros.
  int64_t breaker_open_backoff_micros = 50'000;
  int64_t breaker_max_backoff_micros = 5'000'000;
  /// Background repair worker (threaded mode): scans the error log
  /// every repair_scan_interval_micros and, once a repository's
  /// circuit re-closes, pushes the directory's image of every key its
  /// logged failed updates touch — falling back to a targeted
  /// Synchronize(device) when the device rejects one. Non-threaded
  /// assemblies drive repair explicitly via RunRepairPass().
  bool repair_enabled = true;
  int64_t repair_scan_interval_micros = 500'000;
};

/// One step of an update execution plan: a canonical update aimed at a
/// named repository ("ldap" or a device instance).
struct PlannedOp {
  std::string repository;
  lexpress::UpdateDescriptor update;
};

/// "An update execution plan is generated, determining in which order
/// the updates to the various data sources should be applied" (paper
/// §6). The plan is the directory write, then each routed device update
/// that changes the device's image, reapplications to the originator
/// included. A DDU or Synchronize upsert writes the directory first; an
/// LDAP write is already committed, so its closure image is written
/// after the devices, with their generated information (§5.5).
struct UpdatePlan {
  std::vector<PlannedOp> ops;
  /// The closure-extended directory image the plan drives toward.
  lexpress::Record final_ldap;
  int closure_iterations = 0;

  /// "modify@ldap -> delete@pbx9 -> add@pbx5" for logs and tests.
  std::string ToString() const;
};

/// The Update Manager (paper §4.4): MetaComm's coordinator.
///
/// Responsibilities reproduced:
///  * receives LDAP-originated updates from LTAP trigger processing
///    (OnUpdate) while LTAP holds the entry lock;
///  * receives direct device updates (DDUs) from device filters,
///    obtains LTAP entry locks itself (one lock session per update),
///    and queues everything on the one update queue; the entry locks
///    keep a second update of an entry off it until the first settles
///    (see DESIGN.md "Concurrency model");
///  * computes the lexpress transitive closure and writes derived
///    attribute changes back to the directory;
///  * propagates translated updates to every relevant device filter,
///    reapplying to the originating device with conditional semantics
///    for write-write convergence (§5.4);
///  * propagates device-generated information to the LDAP server after
///    all other devices are updated (§5.5);
///  * on failure: aborts, writes an error entry into the directory,
///    and notifies the administrator (§4.4) — optionally undoing
///    already-applied device updates (saga extension);
///  * synchronizes repositories under an LTAP quiesce window (§5.1).
class UpdateManager : public ltap::TriggerActionServer {
 public:
  /// Callback invoked when an update fails and is logged.
  using AdminCallback = std::function<void(
      const Status& error, const lexpress::UpdateDescriptor& update)>;

  /// `gateway` and `ldap_filter` are not owned and must outlive the UM.
  UpdateManager(ltap::LtapGateway* gateway, LdapFilter* ldap_filter,
                UpdateManagerConfig config = {});
  ~UpdateManager() override;

  /// Registers a device filter (not owned) and wires its DDU handler.
  /// Both of the filter's mappings join the closure mapping set.
  void AddDeviceFilter(RepositoryFilter* filter);

  /// Validates the assembled mapping set (compile-time cycle check).
  Status ValidateMappings() const;

  /// Registers this UM's after-trigger on the gateway for the given
  /// subtree. Call once after all filters are added.
  Status InstallTrigger(const std::string& base_dn);

  /// Starts the worker pool and its conversation helpers (threaded
  /// mode only).
  void Start();
  /// Stops the workers and helpers, then fails every unprocessed item:
  /// its entry locks are released and its waiting caller (threaded
  /// Path A) gets Unavailable — items must not leak locks or hang
  /// callers when the queue dies.
  void Stop();

  /// Direct device update intake (wired to DeviceFilter::SetDduHandler
  /// by AddDeviceFilter, public for tests and custom filters).
  void SubmitDeviceUpdate(lexpress::UpdateDescriptor update);

  /// Wires the durability subsystem (setup-only, before Start). With a
  /// manager attached, every threaded DDU is intent-logged durably
  /// BEFORE it enters the update queue — the queue stops being the
  /// only copy of an acknowledged device update — and resolved once
  /// the item settles (success, or failure owned by the error log).
  /// Items drained by Stop() are deliberately NOT resolved: their
  /// intents replay on the next start.
  void set_durability(storage::DurabilityManager* durability) {
    durability_ = durability;
  }

  /// Re-submits every unresolved intent RecoverBackend found — the
  /// acked-but-unapplied device updates of the previous process —
  /// through the normal convergence path, keeping their original
  /// intent ids. Call after Start() (threaded); a synchronous UM
  /// processes them inline. Returns how many were re-submitted.
  size_t ReplayRecoveredIntents();

  /// Synchronizes one device with the directory under quiesce (§4.4,
  /// §5.1): once the device answers a full dump, its error-log backlog
  /// is re-driven, device records are upserted into the directory, and
  /// directory entries in the device's partition but missing from the
  /// device are pushed to it. The backlog's keys are the re-drive's
  /// alone: one whose push failed keeps its entries for the next repair
  /// pass. Also serves as initial directory population.
  Status Synchronize(const std::string& device_name) EXCLUDES(sync_mutex_);

  /// Synchronizes every registered device.
  Status SynchronizeAll();

  /// One pass of the error-log repair protocol: scans error_base and
  /// re-drives each repository's backlog (RedriveBacklog): one push
  /// unit per device key, under its entity's LTAP lock. An entry is
  /// deleted once its units applied; a permanent rejection falls back
  /// to Synchronize(repository), whose device-wins pull settles it.
  /// The repair worker calls this periodically in threaded mode; tests
  /// and synchronous assemblies call it directly.
  Status RunRepairPass() EXCLUDES(sync_mutex_);

  /// The repository's circuit breaker (nullptr for unknown names).
  /// Exposed for the monitor and the fault-tolerance tests.
  CircuitBreaker* breaker(const std::string& repository) const;

  /// Builds (without executing) the execution plan for an update in
  /// the integrated schema. `ldap_current` marks the directory as
  /// already reflecting the update's explicit changes (Path A).
  /// Exposed so tests and tools can inspect routing decisions.
  StatusOr<UpdatePlan> PlanUpdate(
      const lexpress::UpdateDescriptor& ldap_update, bool ldap_current);

  void set_admin_callback(AdminCallback callback) EXCLUDES(admin_mutex_) {
    MutexLock lock(&admin_mutex_);
    admin_callback_ = std::move(callback);
  }

  const lexpress::MappingSet& mappings() const { return mappings_; }

  /// Update-queue telemetry (threaded mode).
  struct ShardStats {
    uint64_t enqueued = 0;           // Items pushed onto the queue.
    uint64_t dequeued = 0;           // Items a worker picked up.
    uint64_t max_depth = 0;          // High-water queue depth.
    uint64_t queue_wait_micros = 0;  // Total enqueue->dequeue latency.
    uint64_t depth = 0;              // Depth sampled at stats() time.
  };

  /// Counters for the experiment harnesses and cn=monitor.
  struct Stats {
    uint64_t ldap_updates = 0;       // Path A: via LTAP triggers.
    uint64_t device_updates = 0;     // Path B: DDUs processed.
    uint64_t device_applies = 0;     // Updates pushed to devices.
    uint64_t reapplications = 0;     // Conditional reapplies (§5.4).
    uint64_t generated_info = 0;     // §5.5 post-propagation LDAP fixes.
    uint64_t errors = 0;
    uint64_t undos = 0;              // Saga compensations.
    uint64_t closure_iterations = 0;
    uint64_t syncs = 0;
    uint64_t lock_retries = 0;       // DDU lock retry attempts.
    uint64_t shutdown_drained = 0;   // Items Stop() failed unprocessed
                                     // (queued or in a worker's hand).
    uint64_t batches = 0;            // Queue drains (incl. size 1).
    uint64_t coalesced = 0;          // Always 0: no drain folds updates
                                     // (servebench still reads it).
    uint64_t rtts_saved = 0;         // Conversations saved against one
                                     // per unit: a wave of n units shares
                                     // each device session and the
                                     // processing delay (n-1 each).
    uint64_t breaker_open_skips = 0;  // Updates fast-failed, circuit open.
    uint64_t replayed = 0;            // Error-log entries retired.
    uint64_t repair_passes = 0;       // RunRepairPass invocations.
    uint64_t repair_syncs = 0;        // Repair fell back to Synchronize.
    /// Histogram of popped batch sizes: {1, 2, 3-4, 5-8, 9-16, >16}.
    std::vector<uint64_t> batch_size_buckets = std::vector<uint64_t>(6, 0);
    std::vector<ShardStats> shards;  // One entry: the update queue.
    /// Per-repository fault-tolerance surface (breaker state, device
    /// health, replay backlog) — what cn=um-health publishes.
    struct RepositoryStats {
      std::string name;
      CircuitBreaker::Snapshot breaker;
      RepositoryHealth health;
      uint64_t replay_backlog = 0;  // Replayable error entries pending.
    };
    std::vector<RepositoryStats> repositories;
  };
  /// Copies the counters, then samples queue depths, breakers,
  /// repository health and the error log's replay backlog.
  Stats stats() const;

  /// Items currently queued. Cheap enough for a per-request admission
  /// check — the wire server sheds load with LDAP busy (51) when this
  /// crosses its admission limit, instead of letting the queue grow
  /// without bound.
  size_t QueueDepth() const { return queue_.Size(); }

  // ltap::TriggerActionServer:
  Status OnUpdate(const ltap::UpdateNotification& notification) override;

 private:
  struct WorkItem {
    /// The update in the integrated ("ldap") schema.
    lexpress::UpdateDescriptor descriptor;
    /// Entry locks already held for this item, owned by its private
    /// `lock_session`. Taken on the submitting thread, BEFORE the item
    /// enters the queue — if a worker itself blocked on entry locks, a
    /// client whose trigger is waiting in the queue could deadlock
    /// against it.
    std::vector<ldap::Dn> locked;
    /// LTAP session owning `locked`. One fresh session PER work item:
    /// a shared session would make LockTable::Acquire treat two
    /// concurrent DDUs on the same entry as one re-entrant owner, so
    /// both would "hold" the lock and race.
    uint64_t lock_session = 0;
    /// Enqueue timestamp for the queue-wait counter.
    int64_t enqueue_micros = 0;
    /// Set by the origin. Path A: the directory already reflects the
    /// update (LTAP applied the client's operation). Path B: the
    /// device reported partial images, which are hydrated from the
    /// directory before planning. Synchronize upserts are neither.
    bool ldap_current = false;
    bool hydrate = false;
    /// A push unit that re-drives error-log entries: its failure logs
    /// nothing new, the entries stay.
    bool redrive = false;
    /// Set when a completion needs to be signalled (threaded Path A).
    std::shared_ptr<std::promise<Status>> done;
    /// Durable intent backing this item (0: none). Resolved when the
    /// item settles; left pending when Stop() abandons it unprocessed.
    uint64_t intent_id = 0;
    /// A push unit's whole plan (PushUnit): its outcome is this op's,
    /// and it is never a §5.4 reapplication. Held by pointer: inline,
    /// it nearly doubled every item's size and slowed servebench's
    /// queued updates (EXPERIMENTS.md E20).
    std::unique_ptr<PlannedOp> push;
    /// The item's outcome, set when it settles.
    Status status = Status::Ok();
  };

  /// SubmitDeviceUpdate body, parameterized on the backing intent:
  /// intent_id == 0 logs a fresh intent (when durability is attached);
  /// a recovered intent keeps its id and is not re-logged.
  void SubmitDeviceUpdateInternal(lexpress::UpdateDescriptor update,
                                  uint64_t intent_id);

  /// Resolves `intent_id` against the durability manager (no-op when
  /// 0 or durability is not attached).
  void SettleIntent(uint64_t intent_id);

  /// Translates a device update to the integrated schema and takes the
  /// LTAP entry locks ("LTAP is used to obtain locks", §4.4). Returns
  /// nullopt when the update routes nowhere. Runs on the submitting
  /// (device notification) thread.
  StatusOr<std::optional<WorkItem>> PrepareDeviceUpdate(
      const lexpress::UpdateDescriptor& update);

  /// Overlays a device update's partial images onto the directory's
  /// current entry so fan-out never clears attributes the source
  /// device doesn't carry. Requires the item's entry lock to be held.
  lexpress::UpdateDescriptor HydrateDeviceUpdate(
      lexpress::UpdateDescriptor update);

  /// Acquires one entry lock for a DDU, retrying a bounded number of
  /// times with exponential backoff when the entry is contended.
  Status AcquireEntryLock(const ldap::Dn& dn, uint64_t session);

  void ReleaseLocks(const std::vector<ldap::Dn>& locked,
                    uint64_t session);

  /// Builds the canonical descriptor for an LDAP-originated update.
  StatusOr<lexpress::UpdateDescriptor> DescriptorFromNotification(
      const ltap::UpdateNotification& notification) const;

  /// PlanUpdate with the worker's interpreter (the public overload
  /// forwards with the per-thread fallback).
  StatusOr<UpdatePlan> PlanUpdate(
      const lexpress::UpdateDescriptor& ldap_update, bool ldap_current,
      lexpress::Vm* vm);

  /// One device's answer to an update, kept for the §5.5 round.
  struct DeviceResult {
    RepositoryFilter* filter;
    lexpress::Record sent;    // The image we asked the device to hold.
    lexpress::Record result;  // What the device actually holds now.
  };

  /// The §5.5 round, in one Modify with a Path A closure image
  /// (`write_back`): folds attributes the devices MINTED into the view.
  Status BackfillGeneratedInfo(const lexpress::UpdateDescriptor& ldap_update,
                               const UpdatePlan& plan,
                               const std::vector<DeviceResult>& results,
                               bool write_back);

  /// Processes one item outside the queue (synchronous-mode updates,
  /// Synchronize upserts) as a one-item drain; returns its outcome.
  Status ProcessOne(WorkItem item, uint64_t epoch);

  /// The propagation pipeline every drain runs: partitions the items
  /// into entity-disjoint waves and propagates each wave with one
  /// conversation per repository. Every item settles, with its outcome
  /// in `status`. `epoch` is the stop epoch the caller started in:
  /// once Stop() moves it on, the items not yet propagated are
  /// abandoned (Unavailable, intents pending).
  void ProcessBatch(std::vector<WorkItem>& items, uint64_t epoch,
                    lexpress::Vm* vm);

  /// Plans and executes one wave of entity-disjoint items (consuming
  /// their descriptors): one shared processing delay, the directory
  /// writes in turn, one device session per repository, all
  /// repositories at once. Settles every item.
  void PropagateWave(std::span<WorkItem> wave, lexpress::Vm* vm);

  /// One repository's share of a wave, held by whichever thread claims
  /// it first: the wave's own or a helper.
  struct Conversation {
    RepositoryFilter* filter = nullptr;
    std::vector<lexpress::UpdateDescriptor> updates;
    std::vector<size_t> owners;  // The wave unit of each update.
    std::vector<std::optional<lexpress::Record>> priors;  // saga_undo.
    std::vector<ApplyResult> applied;
    std::atomic<bool> claimed{false};
    std::promise<void> done;
  };

  /// Fetches the saga pre-images and holds the conversation through
  /// the repository's circuit breaker, then marks it done: an open
  /// circuit yields kSkippedOpenCircuit for every update without
  /// touching the repository; otherwise each result feeds the breaker.
  /// The one place that sends an update to a device (saga undo aside).
  void Converse(Conversation& conversation);

  /// Holds every conversation at once; returns when all are done.
  void ConverseAll(
      const std::vector<std::shared_ptr<Conversation>>& conversations);

  /// Releases the item's locks, records `status` and completes its
  /// promise. `processed` distinguishes a settled outcome (success, or
  /// a failure the error log now owns — the intent resolves) from a
  /// shutdown abandonment (the intent stays pending and replays on
  /// restart; counted as shutdown_drained).
  void SettleItem(WorkItem& item, const Status& status, bool processed);

  /// Queue telemetry for one drain: batch size, and each item's
  /// dequeue and queue wait.
  void RecordDrain(const std::vector<WorkItem>& batch);

  /// Writes an audit-only error entry (no replay target) and notifies
  /// the administrator. Directory aborts and planning failures land
  /// here.
  void HandleError(const Status& error,
                   const lexpress::UpdateDescriptor& update)
      EXCLUDES(admin_mutex_);

  /// Repository-aware failure path: the error entry carries the
  /// serialized update so the repair worker can re-drive it once
  /// `repository`'s circuit re-closes. Outcome kRetryable /
  /// kSkippedOpenCircuit entries are replayable; kPermanent entries
  /// are audit-only (the device rejected the command — replaying it
  /// verbatim would fail again). Returns the error-log write's status:
  /// a failure nothing will repair unless its unit fails with it.
  Status HandleFailure(const std::string& repository, ApplyOutcome outcome,
                       const Status& error,
                       const lexpress::UpdateDescriptor& update)
      EXCLUDES(admin_mutex_);

  /// Sleeps up to `micros`, waking early when Stop() is called.
  /// Returns false when the UM is stopping (the caller should bail).
  bool SleepInterruptible(int64_t micros) EXCLUDES(shutdown_mutex_);
  bool stopping() const EXCLUDES(shutdown_mutex_);
  /// Count of Stop() calls so far. In-flight work bails when the epoch
  /// it captured at entry changes — which distinguishes "a Stop was
  /// requested while I ran" from "the UM is currently stopped" (a
  /// post-Stop Synchronize must still run; it is the recovery path).
  uint64_t stop_epoch() const EXCLUDES(shutdown_mutex_);

  /// Repair worker body: periodic RunRepairPass until Stop().
  void RepairLoop();

  /// Every entry under error_base (none without a container).
  StatusOr<std::vector<ldap::Entry>> ErrorEntries() const;

  /// A replayable error-log entry: the logged failure and its DN.
  using PendingReplay = std::pair<LoggedFailure, ldap::Dn>;
  using Backlog = std::map<std::string, std::vector<PendingReplay>,
                           CaseInsensitiveLess>;
  /// The replay backlog, the one rule for what counts as backlog: the
  /// replayable error-log entries of registered repositories, grouped
  /// by repository in errorSeq order. Audit-only entries stay in the
  /// log for the administrator. Empty without an error container.
  StatusOr<Backlog> PendingReplays() const;

  /// Re-drives one repository's backlog through the propagation
  /// pipeline: one push unit per device key the logged updates touch
  /// (old and new), in first-seen errorSeq order, probe first. An entry
  /// is deleted once the units of all its keys settled; a key whose
  /// holder cannot be read waits. For the repair pass (`sync` null) a
  /// unit holds its entity's LTAP lock and settles when it applied. For
  /// Synchronize, whose quiesce stands in for the locks, a rejected
  /// unit settles too (the device-wins pull that follows takes the
  /// device's record), and every other key goes into `*sync` for the
  /// pull and push to leave alone. Returns the first unit failure.
  Status RedriveBacklog(RepositoryFilter* filter,
                        const std::vector<PendingReplay>& backlog,
                        uint64_t epoch, std::set<std::string>* sync);

  /// The push unit that drives the directory's `image` of one entity
  /// to `filter` as a conditional add (an upsert), never a pull;
  /// nullopt outside the filter's partition.
  StatusOr<std::optional<WorkItem>> PushUnit(RepositoryFilter* filter,
                                             lexpress::Record image);

  /// The directory entry holding a device record, found through the
  /// record's image in the integrated schema (`mapped`) under the
  /// filter's key attribute; nullopt when no entry holds it.
  StatusOr<std::optional<ldap::Entry>> Holder(RepositoryFilter* filter,
                                              const lexpress::Record& mapped);

  /// Deletes a re-driven (or resynchronized) error-log entry; true when
  /// this call removed it.
  bool DeleteErrorEntry(const ldap::Dn& dn);

  /// Reverts already-applied device updates, newest first (saga
  /// extension).
  void UndoApplied(
      const std::vector<std::pair<RepositoryFilter*,
                                  lexpress::UpdateDescriptor>>& applied);

  RepositoryFilter* FindFilter(const std::string& name) const;

  /// Stamps the enqueue time, pushes onto the queue, and maintains the
  /// queue counters. False when the queue is closed (the caller still
  /// owns the item's locks).
  bool Enqueue(WorkItem item);

  /// Worker body: drains the one queue in FIFO order until Stop().
  /// `epoch` is the stop epoch the worker pool was started in.
  void WorkerLoop(uint64_t epoch);

  ltap::LtapGateway* gateway_;
  LdapFilter* ldap_filter_;
  UpdateManagerConfig config_;
  /// Optional durability subsystem (setup-only; not owned).
  storage::DurabilityManager* durability_ = nullptr;
  // filters_ and mappings_ are setup-only (AddDeviceFilter before
  // Start(), per the class contract); workers only ever read them.
  std::vector<RepositoryFilter*> filters_;
  lexpress::MappingSet mappings_;
  uint64_t um_session_ = 0;

  /// One breaker per registered repository, created alongside the
  /// filter in AddDeviceFilter (setup-only map; the breakers
  /// themselves are thread-safe).
  std::map<std::string, std::unique_ptr<CircuitBreaker>,
           CaseInsensitiveLess>
      breakers_;

  BlockingQueue<WorkItem> queue_;
  /// Relaxed atomics behind ShardStats. max_depth is a
  /// compare-exchange high-water mark.
  struct QueueCounters {
    std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> dequeued{0};
    std::atomic<uint64_t> max_depth{0};
    std::atomic<uint64_t> queue_wait_micros{0};
  };
  QueueCounters queue_counters_;
  std::vector<std::thread> workers_;
  /// Conversations a wave offers its helpers: (filters - 1) x
  /// worker_threads threads (threaded mode), joined by Stop().
  BlockingQueue<std::function<void()>> offers_;
  std::vector<std::thread> helpers_;
  std::thread repair_thread_;
  std::atomic<bool> running_{false};

  /// Stop() interruption plumbing: backoff sleeps and the repair
  /// worker's scan interval watch `stopping_`; Synchronize's record
  /// loops watch `stop_epoch_` instead (a post-Stop resync must run).
  /// Shutdown is prompt without abandoning LTAP locks.
  mutable Mutex shutdown_mutex_{LockRank::kUmShutdown, "um.shutdown"};
  CondVar shutdown_cv_;
  bool stopping_ GUARDED_BY(shutdown_mutex_) = false;
  uint64_t stop_epoch_ GUARDED_BY(shutdown_mutex_) = 0;

  mutable Mutex admin_mutex_{LockRank::kUmAdmin, "um.admin"};
  AdminCallback admin_callback_ GUARDED_BY(admin_mutex_);
  /// Relaxed atomics behind the scalar Stats fields and the batch-size
  /// histogram: every writer adds without a lock, stats() copies.
  struct Counters {
    std::atomic<uint64_t> ldap_updates{0};
    std::atomic<uint64_t> device_updates{0};
    std::atomic<uint64_t> device_applies{0};
    std::atomic<uint64_t> reapplications{0};
    std::atomic<uint64_t> generated_info{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> undos{0};
    std::atomic<uint64_t> closure_iterations{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> lock_retries{0};
    std::atomic<uint64_t> shutdown_drained{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> rtts_saved{0};
    std::atomic<uint64_t> breaker_open_skips{0};
    std::atomic<uint64_t> replayed{0};
    std::atomic<uint64_t> repair_passes{0};
    std::atomic<uint64_t> repair_syncs{0};
    std::array<std::atomic<uint64_t>, 6> batch_size_buckets{};
  };
  Counters counters_;
  std::atomic<uint64_t> error_sequence_{0};
  /// One synchronization at a time. Held across gateway quiesce,
  /// directory writes and the whole repository fan-out, so it is the
  /// outermost lock of the core (see lock_rank.h).
  Mutex sync_mutex_ ACQUIRED_BEFORE(shutdown_mutex_, admin_mutex_){
      LockRank::kUmSync, "um.sync"};
};

}  // namespace metacomm::core

#endif  // METACOMM_CORE_UPDATE_MANAGER_H_
