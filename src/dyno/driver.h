#ifndef DYNO_DYNO_DRIVER_H_
#define DYNO_DYNO_DRIVER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/subtree_cache.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "dyno/checkpoint.h"
#include "dyno/strategy.h"
#include "exec/plan_executor.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "optimizer/optimizer.h"
#include "pilot/pilot_runner.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"

namespace dyno {

/// Configuration of the full DYNO pipeline.
struct DynoOptions {
  PilotRunOptions pilot;
  CostModelParams cost;
  ExecOptions exec;
  ExecutionStrategy strategy = ExecutionStrategy::kUncertain1;

  /// Master switch for pilot runs (off = the "no pilot" ablation: the
  /// optimizer plans from base-table statistics, blind to predicates).
  bool use_pilot_runs = true;

  /// The paper's §8 extension: when a broadcast build side turns out not
  /// to fit in memory, switch that join to a repartition join instead of
  /// failing the query (Jaql's native behaviour, kept for the baselines,
  /// is to die with OutOfMemory).
  bool adaptive_join_fallback = true;

  /// Reorder each leaf's conjunction by measured rank (cheap, selective
  /// predicates first — paper §4.4's pointer to [24]/[11], made actionable
  /// by pilot-style sampling). Off by default, as in the paper.
  bool reorder_local_predicates = false;

  /// Conditional re-optimization (paper §3): re-plan only when some
  /// executed job's observed output cardinality deviates from its estimate
  /// by more than this relative error. 0 re-optimizes after every step
  /// (the paper's implementation); e.g. 0.5 tolerates 50% estimation error
  /// before paying another optimizer call.
  double reopt_row_error_threshold = 0.0;

  /// DFS path where the driver rewrites a CheckpointManifest after every
  /// successfully accounted execution step (DESIGN.md §6.4). Empty disables
  /// checkpointing. Resume() reads the same path; a path therefore
  /// identifies one logical query — do not share it across queries.
  std::string checkpoint_path;

  /// Whole-job retry budget: a job that fails for a transient reason (task
  /// attempts exhausted under heavy node loss) is re-submitted up to this
  /// many total attempts before the driver treats the failure as permanent
  /// and re-plans around the subtrees it already materialized. <= 0 reads
  /// DYNO_MAX_JOB_ATTEMPTS (strict-or-abort, 1..1000), defaulting to 1 (no
  /// retry). OutOfMemory and Unavailable failures are never retried (the
  /// former has its own fallback, the latter cannot succeed).
  int max_job_attempts = 0;

  /// Slot-millisecond cap on whole-job *retries* (attempts 2..N): once the
  /// cluster time burned by re-submissions reaches this budget, the driver
  /// stops retrying and lets the failure take its permanent-failure path, so
  /// a pathological query cannot eat the cluster through its retry ladder.
  /// The first attempt of every job is never charged. < 0 reads
  /// DYNO_RETRY_BUDGET_MS (strict-or-abort parsing), defaulting to 0 =
  /// unlimited.
  SimMillis retry_budget_ms = -1;

  /// OOM retry ladder for spillable (reduce-side) operators, replacing the
  /// historical "OutOfMemory is never retried" rule: rung 1 re-runs the
  /// failed unit with spill mode forced (JobSpec::reduce_memory_mode = 1),
  /// each further rung also doubles the engine's planned reducer count so
  /// per-reducer state shrinks, and exhausting the ladder surfaces the
  /// OutOfMemory as permanent. The value is the number of rungs; 0 keeps
  /// the legacy behavior. < 0 reads DYNO_OOM_RETRIES (strict-or-abort),
  /// defaulting to 0. Broadcast (map-only) OOM keeps its own fallback
  /// (adaptive_join_fallback).
  int oom_retry_ladder = -1;

  /// Copy the engine's ClusterConfig memory model (memory_per_task_bytes,
  /// broadcast_memory_factor) into `cost` at construction, so plan-time
  /// broadcast feasibility and run-time enforcement cannot disagree. Tests
  /// that deliberately lie to the optimizer opt out.
  bool sync_cost_memory = true;

  /// Test kill switch: abort the query with Cancelled once this many jobs
  /// have been accounted (< 0 = never). Simulates the driver process dying
  /// mid-query so checkpoint/resume tests can exercise Resume().
  int abort_after_jobs = -1;

  /// Cross-query materialized-subtree cache, shared across drivers (one per
  /// QueryService, or test-owned). Null (the default) disables consult and
  /// publish entirely — single-query behavior, traces and results are
  /// byte-identical to pre-cache builds. Non-owning; must outlive the
  /// driver.
  SubtreeCache* subtree_cache = nullptr;
};

/// One (re-)optimization event in a query's life.
struct PlanEvent {
  SimMillis at_ms = 0;
  std::string plan_tree;      ///< Multi-line rendering (Fig. 2 style).
  std::string plan_compact;   ///< One-line rendering.
  double est_cost = 0.0;
  bool plan_changed = false;  ///< Structurally different from previous.
};

/// Full accounting of one query execution — the raw material for every
/// overhead/speedup figure. The inherited JobTotals fold every executed job
/// of the query (pilot runs and build-side filter jobs excluded).
struct QueryRunReport : JobTotals {
  SimMillis total_ms = 0;
  SimMillis pilot_ms = 0;
  SimMillis optimizer_ms = 0;        ///< Sum over (re-)optimizer calls.
  SimMillis stats_overhead_ms = 0;   ///< Online statistics collection.
  int optimizer_calls = 0;
  int jobs_run = 0;
  int map_only_jobs = 0;
  int plan_changes = 0;              ///< Re-optimizations that changed plan.
  /// Broadcast joins demoted to repartition at runtime (§8 dynamic join).
  int broadcast_fallbacks = 0;
  /// OOM-ladder re-executions (jobs re-run in spill mode / with doubled
  /// reducers after an OutOfMemory).
  int oom_retries = 0;
  /// Driver-level recovery accounting.
  int job_retries = 0;    ///< Whole-job re-submissions after a failure.
  /// Slot-ms charged against DynoOptions::retry_budget_ms by those
  /// re-submissions, and whether the budget ran dry.
  SimMillis retry_slot_ms = 0;
  bool retry_budget_exhausted = false;
  int resumed_steps = 0;  ///< Steps satisfied from a checkpoint manifest.
  /// Resume() reads that had to fall back to the previous manifest
  /// generation after a torn/corrupt live manifest.
  int manifest_fallbacks = 0;
  std::vector<PlanEvent> plan_history;
  std::shared_ptr<DfsFile> result;
  uint64_t result_records = 0;
};

/// A query of several join blocks (paper §5.1): blocks are separated by
/// grouping operators, and a later block may consume an earlier block's
/// output by referencing the table name "@block:<name>". DYNOPT is invoked
/// once per block, in dependency order.
struct MultiBlockQuery {
  struct Block {
    std::string name;
    JoinBlock join_block;
    /// Grouping applied to this block's join output before it is exposed
    /// to downstream blocks.
    std::optional<GroupBySpec> group_by;
  };
  std::vector<Block> blocks;
  /// Ordering applied to the final block's output.
  std::optional<OrderBySpec> final_order_by;
};

/// Table-name prefix marking a reference to another block's output.
inline constexpr char kBlockRefPrefix[] = "@block:";

/// The DYNO driver: pilot runs → cost-based join enumeration → step-wise
/// execution with online statistics and re-optimization (Algorithm 2).
class DynoDriver {
 public:
  DynoDriver(MapReduceEngine* engine, Catalog* catalog, StatsStore* store,
             DynoOptions options);

  /// Executes `query` end to end (join block, then grouping/ordering) and
  /// returns the result file plus full accounting.
  Result<QueryRunReport> Execute(const Query& query);

  /// Executes a multi-block query: blocks run in an order that respects
  /// their "@block:" references (paper §5.1 — "a block can be executed
  /// only after all blocks it depends on"), each through the full DYNOPT
  /// pipeline; accounting aggregates across blocks. Fails on reference
  /// cycles or unknown block names.
  Result<QueryRunReport> ExecuteMultiBlock(const MultiBlockQuery& query);

  /// Restarts `query` after a driver death: reads the CheckpointManifest at
  /// DynoOptions::checkpoint_path, rebinds every still-materialized subtree
  /// it records instead of re-executing it, and fast-forwards relation-id
  /// allocation so the continuation is byte-identical (same final rows,
  /// same checkpointed statistics) to an uninterrupted run. A missing or
  /// corrupt manifest degrades to a plain Execute() from scratch.
  Result<QueryRunReport> Resume(const Query& query);

  const DynoOptions& options() const { return options_; }

  /// The manifest recorded by the most recent Execute/Resume call (empty
  /// when checkpointing is disabled). Exposed for tests.
  const CheckpointManifest& manifest() const { return manifest_; }

 private:
  Result<QueryRunReport> ExecuteInternal(const Query& query,
                                         const CheckpointManifest* resume);

  /// The tail after a block's joins: an optional group-by job, then an
  /// optional order-by job, written to "<temp>/<path_prefix>gb_<now>" and
  /// "<path_prefix>ob_<now>". Returns the last output.
  Result<std::shared_ptr<DfsFile>> RunPostJoin(
      std::shared_ptr<DfsFile> input, const std::optional<GroupBySpec>& group_by,
      const std::optional<OrderBySpec>& order_by,
      const std::string& path_prefix, QueryRunReport* report);

  MapReduceEngine* engine_;
  Catalog* catalog_;
  StatsStore* store_;
  DynoOptions options_;
  /// Checkpoint state of the in-flight/most recent query run.
  CheckpointManifest manifest_;
};

}  // namespace dyno

#endif  // DYNO_DYNO_DRIVER_H_
