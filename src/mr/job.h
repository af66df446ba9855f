#ifndef DYNO_MR_JOB_H_
#define DYNO_MR_JOB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "json/value.h"
#include "storage/dfs.h"

namespace dyno {

/// Hadoop-style job counters, accumulated while a job runs. Pilot runs use
/// them to derive table statistics (record counts and byte sizes, §4.3).
struct Counters {
  uint64_t map_input_records = 0;
  uint64_t map_input_bytes = 0;
  uint64_t map_output_records = 0;   ///< Emitted to shuffle.
  uint64_t map_output_bytes = 0;
  uint64_t reduce_input_records = 0;
  uint64_t output_records = 0;       ///< Written to the job output file.
  uint64_t output_bytes = 0;

  void MergeFrom(const Counters& other);
};

/// Passed to map functions; the sink for their emissions.
class MapContext {
 public:
  virtual ~MapContext() = default;

  /// Sends (key, value) to the shuffle (map-reduce jobs only).
  virtual void Emit(Value key, Value value) = 0;

  /// Writes a record directly to the job output (map-only jobs).
  virtual void Output(Value record) = 0;

  /// Charges additional per-record CPU (e.g. an expensive UDF that only
  /// fires on some rows).
  virtual void ChargeCpu(double units) = 0;

  /// Index of the map task executing this record's split.
  virtual int task_index() const = 0;
};

/// Passed to reduce functions.
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  virtual void Output(Value record) = 0;
  virtual void ChargeCpu(double units) = 0;
};

/// Map function: one input record in, zero or more emissions out.
using MapFn = std::function<Status(const Value& record, MapContext* ctx)>;

/// Reduce function: a key and all its values (sorted input order).
using ReduceFn = std::function<Status(const Value& key,
                                      const std::vector<Value>& values,
                                      ReduceContext* ctx)>;

/// Called once at the end of each map task — the hook map-side combiners
/// use to flush their per-task partial aggregates.
using MapFlushFn = std::function<Status(MapContext* ctx)>;

/// One map input: a DFS file, the subset of its splits to scan (empty means
/// all), and the map function to run over its records. Jobs with several
/// inputs (the repartition join) give each input its own map function.
struct MapInput {
  std::shared_ptr<DfsFile> file;
  std::vector<int> split_indexes;  ///< Empty = every split (see below).
  MapFn map_fn;
  /// Declared per-record expression cost, charged to the task clock.
  double cpu_per_record = 1.0;
  /// Optional end-of-task hook (combiner flush). May Emit/Output.
  MapFlushFn flush_fn;

  /// When true, an empty `split_indexes` means "scan nothing" instead of
  /// "every split" — required so zone-map pruning can express an all-pruned
  /// scan (zero map tasks) without a sentinel.
  bool split_indexes_exact = false;

  /// Pushed-down scan predicate, applied by the engine before `map_fn` sees
  /// a record. Only set when DYNO_COLUMNAR=1: columnar splits evaluate it
  /// batch-at-a-time (vectorized factors at a CPU discount), row splits
  /// record-at-a-time. `cpu_per_record` must then exclude the filter's cost;
  /// `scan_filter_cpu` declares it instead.
  ExprPtr scan_filter;
  /// Per-record CPU cost of `scan_filter` at row-at-a-time rates.
  double scan_filter_cpu = 0.0;

  /// Bill read time by the split's logical (row-encoded) size rather than
  /// its physical size. Pilot jobs set this so the pilot's event timeline —
  /// and therefore which splits its stop count admits — is identical
  /// whichever format the table is stored in (plan choice must not depend
  /// on storage format).
  bool bill_logical_read = false;
};

/// Full specification of one MapReduce job.
struct JobSpec {
  std::string name;
  /// Identifier of the query (driver session) this job belongs to. Empty
  /// for standalone submissions — the engine then behaves exactly as it
  /// always has. When set, the per-job fault stream is salted with it (two
  /// queries submitting identically-named jobs draw independent faults),
  /// job trace events carry a "query" tag, and committed slot time is
  /// accounted to the query (MapReduceEngine::query_slot_ms).
  std::string query_id;
  std::vector<MapInput> inputs;

  /// Absent for map-only jobs.
  ReduceFn reduce_fn;
  /// 0 = derive from map output volume (Hive-like default).
  int num_reduce_tasks = 0;

  /// Per-job override of ClusterConfig::reduce_memory_mode: -1 inherits the
  /// cluster setting; 0/1/2 force unbounded/spill/strict for this job. The
  /// driver's OOM retry ladder uses this to re-run a job in spill mode
  /// without reconfiguring the whole engine.
  int reduce_memory_mode = -1;

  /// DFS path for the output file. Must not exist yet.
  std::string output_path;

  /// Bytes each map task reads to load its broadcast side data (hash-join
  /// build side) before scanning — the *full* build file, since local
  /// predicates are applied while building the hash table.
  uint64_t side_load_bytes = 0;

  /// Bytes of side data actually retained in memory (post-filter hash
  /// table). Checked against the task memory budget: exceeding it fails the
  /// job with OutOfMemory, as in Jaql.
  uint64_t side_memory_bytes = 0;

  /// Hive-mode broadcast: load side data once per node (DistributedCache)
  /// instead of once per task.
  bool side_data_via_distributed_cache = false;

  /// Skip the job startup latency: the job reuses already-running task
  /// containers. Models the situation-aware mappers of [38] that pilot
  /// runs use to add sample splits on demand without relaunching (§4.2).
  bool reuse_warm_containers = false;

  /// Once the job's committed output records reach this count, no further
  /// map task starts; running tasks complete their whole split — this is
  /// how pilot runs stop at k records yet avoid the inspection paradox
  /// (§4.2). Each logical task's output counts once, however many attempts
  /// it took. Absent: every map task runs.
  std::optional<uint64_t> stop_after_output_records;

  /// Observes every record written to the job output — the online
  /// statistics collection hook (§5.4). Optional.
  std::function<void(const Value& record)> output_observer;
  /// Per-record cost charged for the observer; reported separately so the
  /// overhead experiment (Fig. 4) can isolate statistics-collection cost.
  double observer_cpu_per_record = 0.0;
};

/// The fault, node, integrity and reduce-memory counters of one job — and,
/// folded with Add, of a whole query or of one plan's run. Declared once
/// here; JobResult and QueryRunReport inherit it (DESIGN.md "Job
/// accounting").
struct JobTotals {
  /// Fault-model accounting (all zero when fault injection is off).
  int task_failures_injected = 0;  ///< Attempts killed by injection.
  int task_retries = 0;            ///< Re-launches after a failed attempt.
  int speculative_launches = 0;    ///< Backup attempts started.
  int speculative_wins = 0;        ///< Backups that beat their primary.

  /// Node fault-domain accounting (all zero without node crashes).
  int node_crashes_observed = 0;   ///< Crashes while this job was running.
  int attempts_killed_by_node = 0; ///< In-flight attempts lost to a crash.
  int maps_invalidated = 0;        ///< Completed map outputs lost + re-run.
  int shuffle_fetch_retries = 0;   ///< Reducers re-queued behind a re-shuffle.

  /// Data-integrity accounting (all zero without corruption/poison faults).
  int block_corruptions = 0;       ///< Corrupt replica reads detected.
  int checksum_refetches = 0;      ///< Shuffle fetches redone after mismatch.
  uint64_t records_quarantined = 0;///< Poison records skipped + quarantined.

  /// Reduce-memory accounting (all zero in kUnbounded mode, DESIGN.md
  /// §6.10). Sizes are simulated: partition bytes * reduce_memory_factor.
  int reduce_spills = 0;           ///< Reduce tasks that spilled to DFS.
  uint64_t spill_bytes_written = 0;///< Run-formation + merge-pass writes.
  uint64_t spill_bytes_read = 0;   ///< Merge-pass reads.
  /// Largest simulated memory footprint any task held: spilling tasks hold
  /// the budget, in-memory reduce state and broadcast builds their
  /// expanded size.
  uint64_t peak_task_memory_bytes = 0;

  /// Sums every counter, except peak_task_memory_bytes, which takes the max.
  void Add(const JobTotals& other);
};

/// Everything known about a finished (or failed) job.
struct JobResult : JobTotals {
  Status status;
  std::shared_ptr<DfsFile> output;  ///< Null if the job failed.
  SimMillis submit_time_ms = 0;
  SimMillis finish_time_ms = 0;
  Counters counters;
  int map_tasks_run = 0;
  int map_tasks_skipped = 0;  ///< Cancelled by the stop count.
  int reduce_tasks_run = 0;
  /// Simulated time attributable to the output observer (stats collection).
  SimMillis observer_overhead_ms = 0;

  /// Slot occupancy: summed simulated duration of every committed map /
  /// reduce attempt (including failed, speculative and retried attempts —
  /// they all held a slot). The service's fair-share scheduler and the
  /// concurrency bench derive cluster utilization from these.
  SimMillis map_slot_ms = 0;
  SimMillis reduce_slot_ms = 0;

  /// DFS path of the per-job quarantine file (empty when no record was
  /// quarantined). Holds the poison records, in map-task order.
  std::string quarantine_path;
  int spill_runs = 0;              ///< Total sorted runs written.
  int spill_merge_passes = 0;      ///< Total bounded-memory merge passes.
  /// Reducer count the engine froze at map-phase end (the derived count for
  /// num_reduce_tasks <= 0). The driver's OOM ladder doubles from this.
  int reduce_tasks_planned = 0;

  SimMillis Elapsed() const { return finish_time_ms - submit_time_ms; }
};

}  // namespace dyno

#endif  // DYNO_MR_JOB_H_
