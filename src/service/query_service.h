#ifndef DYNO_SERVICE_QUERY_SERVICE_H_
#define DYNO_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/subtree_cache.h"
#include "common/random.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "dyno/driver.h"
#include "lang/query.h"
#include "mr/engine.h"

namespace dyno {

/// Capacity and fairness knobs of the multi-query service.
struct QueryServiceOptions {
  /// Maximum sessions executing at once; arrivals beyond this wait in the
  /// admission queue. Must be >= 1.
  int max_concurrent = 4;

  /// Per-tenant slot quota: maximum concurrently admitted sessions a single
  /// tenant may hold. <= 0 means unlimited. A tenant at quota does not
  /// block other tenants' admissions behind it in the queue.
  int tenant_slots = 0;

  /// Bound on queued-but-not-admitted submissions. Enqueue rejects with
  /// Status::ResourceExhausted once the queue is full (backpressure).
  int admission_queue_limit = 16;

  /// Service-level RNG stream seed; draws arrival offsets for submissions
  /// that do not pin one explicitly.
  uint64_t seed = 42;

  /// Width of the arrival window: a submission without an explicit
  /// arrival_offset_ms draws uniform in [0, arrival_window_ms]. 0 makes
  /// every drawn arrival immediate.
  SimMillis arrival_window_ms = 0;

  /// Constructs a service-owned cross-query subtree-result cache and hands
  /// it to every admitted session (DESIGN.md §6.7). Off by default: with no
  /// cache, per-query results and traces are byte-identical to pre-cache
  /// builds.
  bool enable_subtree_cache = false;
  /// Sizing of the service-owned cache (used only when enabled).
  SubtreeCacheOptions subtree_cache;

  /// Cross-query pilot-statistics sharing: when true (the default) every
  /// session's driver reads and writes the one StatsStore passed to the
  /// service, so a pilot run paid by one query is reused by the next. When
  /// false each session gets a private store — the isolation ablation.
  bool share_pilot_stats = true;

  /// Preempt for priority: when a strictly higher-priority arrival cannot
  /// be admitted for lack of capacity, cancel the lowest-priority running
  /// session at its next submission point and re-queue it to resume later
  /// from its checkpoint manifest (byte-identical to an unpreempted run
  /// when a checkpoint path is configured; re-executed from scratch
  /// otherwise). Equal priorities never preempt each other.
  bool priority_preemption = true;

  /// Default per-query deadline as an offset from arrival (SimMillis),
  /// applied to submissions that do not pin their own deadline_ms. 0
  /// disables. Deadlines are enforced at wave boundaries: the query is
  /// handed Status::DeadlineExceeded at its next submission point (queued
  /// queries past deadline never start).
  SimMillis default_deadline_ms = 0;

  /// Load shedding (overload protection): a due arrival that cannot be
  /// admitted, has priority <= load_shed_max_priority and has never held a
  /// slot is rejected with ResourceExhausted — instead of being admitted
  /// only to time out — once it has waited load_shed_queue_ms in the queue
  /// (> 0 enables), or immediately while the engine's last-wave busy-slot
  /// pressure is >= load_shed_pressure (> 0 enables).
  SimMillis load_shed_queue_ms = 0;
  double load_shed_pressure = 0.0;
  int load_shed_max_priority = 0;

  /// Cluster memory ledger (DESIGN.md §6.10): total task-memory bytes the
  /// service may promise to concurrently admitted queries. 0 (default)
  /// disables memory-aware admission. A due arrival whose charge would
  /// oversubscribe the ledger is held back at admission — unless nothing is
  /// currently reserved, so one query always makes progress and admission
  /// can never deadlock on an oversized estimate. Ledger utilization also
  /// joins slot pressure as a load_shed_pressure trigger.
  uint64_t memory_ledger_bytes = 0;
  /// Ledger charge for a submission that does not pin its own
  /// QuerySubmission::estimated_memory_bytes.
  uint64_t default_query_memory_bytes = 1 << 20;

  /// Service checkpoint namespace. When set: a submission without its own
  /// checkpoint_path checkpoints under "<root>/q/<query_id>"; admission
  /// writes a pending marker "<root>/pending/<query_id>" that finalization
  /// removes (along with the query's manifests); and RecoverPending()
  /// re-admits marked queries after a service crash, resuming them from
  /// their manifests.
  std::string checkpoint_root;

  /// Crash/drain hook (tests, graceful shutdown): once the cluster clock
  /// reaches this time the scheduler stops — parked sessions unwind with
  /// Cancelled, queued ones finalize as cancelled, and *no* service state
  /// is cleaned up: pending markers, manifests and intermediates stay on
  /// the DFS exactly as a killed service would leave them, so a successor
  /// instance can RecoverPending(). < 0 (default) disables.
  SimMillis halt_at_ms = -1;

  /// Fills the knobs from DYNO_CONCURRENCY / DYNO_TENANT_SLOTS /
  /// DYNO_ADMISSION_QUEUE / DYNO_SUBTREE_CACHE_MB (0 disables the cache,
  /// > 0 enables it at that budget) / DYNO_STATS_CACHE (0/1) /
  /// DYNO_PRIORITY_PREEMPTION (0/1) / DYNO_QUERY_DEADLINE_MS /
  /// DYNO_LOAD_SHED_QUEUE_MS / DYNO_LOAD_SHED_PRESSURE (fraction in
  /// [0, 1]) / DYNO_LOAD_SHED_PRIORITY / DYNO_MEMORY_ADMISSION (ledger
  /// bytes; 0 disables memory-aware admission). Absent variables leave
  /// fields untouched; malformed values abort (same contract as
  /// FaultConfig).
  void ApplyEnvOverrides();
};

/// One query session handed to the service.
struct QuerySubmission {
  /// Unique query id. Scopes every DFS artifact of the session (temp
  /// paths, quarantine files, checkpoint manifests), its engine fault
  /// streams and its trace tags.
  std::string query_id;
  /// Tenant for quota accounting; empty is the anonymous shared tenant.
  std::string tenant;
  Query query;
  /// Per-session driver configuration. The service sets exec.query_id to
  /// query_id (replacing any caller value, so no two sessions share the
  /// temp directory it reclaims) and rewrites a non-empty checkpoint_path
  /// to a per-query subpath, so callers may reuse one options template
  /// across sessions.
  DynoOptions options;
  /// Arrival time as an offset (SimMillis) from the schedule start. < 0
  /// draws from the service RNG stream (see QueryServiceOptions).
  SimMillis arrival_offset_ms = -1;
  /// Priority class: higher runs sooner. Folded into admission order and
  /// the fair-share wave order; with QueryServiceOptions::
  /// priority_preemption a blocked higher-priority arrival preempts the
  /// lowest-priority running session.
  int priority = 0;
  /// Per-query deadline as an offset from arrival. < 0 inherits
  /// QueryServiceOptions::default_deadline_ms; 0 explicitly disables.
  SimMillis deadline_ms = -1;
  /// Estimated peak task memory this query holds while running — its
  /// charge against QueryServiceOptions::memory_ledger_bytes under
  /// memory-aware admission. 0 inherits default_query_memory_bytes.
  uint64_t estimated_memory_bytes = 0;
};

/// Everything the service knows about one finished session.
struct QueryOutcome {
  std::string query_id;
  std::string tenant;
  int priority = 0;
  /// OK when the driver ran to completion; Cancelled for cancelled
  /// sessions; DeadlineExceeded past a deadline; ResourceExhausted when
  /// load-shed; otherwise the driver's error.
  Status status;
  /// Valid only when status.ok().
  QueryRunReport report;
  SimMillis arrival_ms = 0;
  /// -1 when the session was cancelled before admission.
  SimMillis admit_ms = -1;
  SimMillis finish_ms = -1;
  /// Committed cluster slot time attributed to this query.
  SimMillis slot_ms = 0;
  /// Times this session was preempted (and later resumed) for priority.
  int preemptions = 0;
  /// Re-admitted by RecoverPending() after a service crash.
  bool recovered = false;

  /// Queueing + execution latency (finish - arrival).
  SimMillis Latency() const { return finish_ms - arrival_ms; }
};

/// Runs many concurrent query sessions — one DynoDriver each — against one
/// shared MapReduceEngine, multiplexing their jobs through a fair-share
/// scheduler with admission control (DESIGN.md §6.6).
///
/// Concurrency model: each session runs on its own thread, but the threads
/// are strictly baton-serialized — at any instant at most one of {service
/// scheduler, one session} executes, and every handoff is a mutex/condvar
/// edge. Session threads are coroutines in all but name: nothing runs in
/// parallel, and the engine runs every wave on the scheduler's thread.
/// Every driver Submit/SubmitAll is intercepted by an engine submit gate:
/// the session parks, and once every runnable session has quiesced the
/// scheduler concatenates the parked batches of all waiting sessions —
/// ordered by fair share: least attained committed slot time first, ties
/// broken by admission sequence — into one combined SubmitAllDirect wave,
/// so jobs of different queries genuinely share cluster slots in simulated
/// time. Results are split back per session and sessions are resumed in
/// the same order.
///
/// Determinism: scheduling state is touched only between handoffs, arrival
/// times come from a seeded service RNG stream in Enqueue order, and waves
/// execute on the scheduler thread. Two runs of the same configuration
/// therefore give byte-identical per-query results, checkpoint stats and
/// serialized traces.
class QueryService {
 public:
  QueryService(MapReduceEngine* engine, Catalog* catalog, StatsStore* store,
               QueryServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Queues a session for the next RunAll. Fails with ResourceExhausted
  /// when the admission queue is full, InvalidArgument on an empty or
  /// duplicate query id.
  Status Enqueue(QuerySubmission submission);

  /// Cancels a session: a queued one never starts; a running one is handed
  /// Status::Cancelled at its next submission point (mid-flight
  /// cancellation — already-running cluster jobs complete their wave).
  /// Idempotent: cancelling an already-finished query or cancelling the
  /// same id twice is an OK no-op. NotFound only for ids the service has
  /// never seen.
  Status Cancel(const std::string& query_id);

  /// Deterministic cancellation at a simulated time: applied by the
  /// scheduler once the cluster clock reaches `at_ms`. Same idempotence
  /// contract as Cancel.
  Status CancelAt(const std::string& query_id, SimMillis at_ms);

  /// Restart recovery: scans "<checkpoint_root>/pending/" for queries a
  /// previous service instance admitted but never finalized (a crashed or
  /// halted run leaves their markers behind) and re-enqueues the matching
  /// submissions flagged to resume from their checkpoint manifests on the
  /// next RunAll. Queries are C++ values (filters may close over UDFs), so
  /// they cannot be rebuilt from the DFS alone — the caller resupplies its
  /// durable submission log and the scan selects which entries were
  /// in-flight. Markers with no matching submission are left untouched.
  /// Returns the number of queries re-admitted; FailedPrecondition when no
  /// checkpoint_root is configured or a run is active. Call after
  /// construction, before RunAll.
  Result<int> RecoverPending(const std::vector<QuerySubmission>& submissions);

  /// Runs every queued session to completion (or cancellation) and returns
  /// their outcomes in enqueue order. Installs the submit gate on the
  /// engine for the duration of the call and removes it before returning.
  /// Finalizing an admitted session deletes its intermediates: every DFS
  /// file under its QueryTempDir(), pilot outputs included, but the result
  /// and the ".quarantine" files (a halt keeps them all for RecoverPending).
  std::vector<QueryOutcome> RunAll();

  const QueryServiceOptions& options() const { return options_; }

  /// The service-owned cross-query cache; null unless
  /// QueryServiceOptions::enable_subtree_cache. Exposed for tests/benches
  /// to read hit/eviction counters.
  SubtreeCache* subtree_cache() const { return subtree_cache_.get(); }

 private:
  struct Session;

  /// Shared tail of Enqueue and RecoverPending; call with mu_ held.
  Status EnqueueLocked(QuerySubmission submission, bool recovered);

  /// Engine submit gate; runs on the calling session's thread.
  Result<std::vector<JobResult>> SubmitFromSession(
      std::vector<JobSpec> specs);

  /// Session thread body: takes the start handoff, runs the driver, posts
  /// the outcome.
  void SessionMain(Session* session);

  /// Hands the baton to `session` (start or grant) and blocks until it
  /// parks at a submission or finishes. Call with `lock` held.
  void RunSessionUntilBlocked(Session* session,
                              std::unique_lock<std::mutex>* lock);

  /// Hands every parked session that has a stop reason its StopStatus and
  /// runs it until it blocks again (it unwinds its driver stack and
  /// finishes). Serves the scheduler pass, the halt and the destructor.
  /// Call with `lock` held.
  void UnwindStopped(std::unique_lock<std::mutex>* lock);

  /// Applies due CancelAt requests; call with the lock held.
  void ApplyTimedCancels();

  MapReduceEngine* engine_;
  Catalog* catalog_;
  StatsStore* store_;
  QueryServiceOptions options_;
  Rng rng_;
  /// Owned cross-query subtree cache (null when disabled). Sessions borrow
  /// it through DynoOptions::subtree_cache; it must therefore outlive every
  /// session thread, which ~QueryService's join guarantees.
  std::unique_ptr<SubtreeCache> subtree_cache_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< Enqueue order.
  /// Session currently holding the baton (null while the scheduler does).
  Session* running_session_ = nullptr;
  /// Monotonic admission sequence (fair-share tie-break).
  int next_admit_seq_ = 0;
  bool run_active_ = false;
};

}  // namespace dyno

#endif  // DYNO_SERVICE_QUERY_SERVICE_H_
