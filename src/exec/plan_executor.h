#ifndef DYNO_EXEC_PLAN_EXECUTOR_H_
#define DYNO_EXEC_PLAN_EXECUTOR_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "lang/plan.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "storage/dfs.h"

namespace dyno {

/// How a plan-leaf relation id resolves to scannable data: a DFS file plus
/// the local predicates to apply while scanning it (null for materialized
/// intermediates, whose filters were already applied).
struct RelationBinding {
  std::shared_ptr<DfsFile> file;
  ExprPtr scan_filter;
  /// Per-record CPU of the scan filter (0 when scan_filter is null).
  double scan_cpu_per_record = 0.0;
  /// Statistics signature of this relation (for the StatsStore).
  std::string signature;
};

/// Execution knobs.
struct ExecOptions {
  /// Hive-style broadcast joins: the build side is shipped through the
  /// DistributedCache and loaded once per node instead of once per task
  /// (the Fig. 8 backend).
  bool hive_broadcast = false;
  /// Unique id of the query these jobs belong to. Empty (the default)
  /// keeps single-query behavior: job specs are unscoped. Intermediates
  /// land under QueryTempDir(query_id), and when set every JobSpec carries
  /// the id, so concurrent queries — even two with identical text — never
  /// collide on DFS paths or share engine fault streams.
  std::string query_id;
};

/// One input of a job unit: either a bound relation (leaf of the plan) or
/// the output of another unit (referenced by its globally unique uid, so
/// several decompositions can coexist on one executor).
struct JobInput {
  std::string leaf_id;   ///< Non-empty for plan leaves.
  int64_t unit_uid = -1; ///< >= 0 when fed by another unit.

  bool IsLeaf() const { return unit_uid < 0; }
};

/// One MapReduce job carved out of a physical plan: a repartition join, or
/// a maximal chain of broadcast joins executing as a single map-only job.
struct JobUnit {
  int index = 0;       ///< Position within its decomposition.
  int64_t uid = -1;    ///< Globally unique across decompositions.
  /// Join nodes executed by this job, bottom-up (size > 1 only for chains).
  std::vector<const PlanNode*> nodes;
  /// inputs[0] is the probe/left input; for repartition joins inputs[1] is
  /// the right input; for broadcast chains inputs[1..] are the build sides
  /// of nodes[0..] in order.
  std::vector<JobInput> inputs;
  bool map_only = false;

  /// Cost of *this job alone* (root cumulative cost minus child jobs').
  double est_cost = 0.0;
  /// Estimated output cardinality/bytes (root node estimates).
  double est_rows = 0.0;
  double est_bytes = 0.0;

  /// Paper's uncertainty metric: join count feeding this job's estimates —
  /// joins in the job itself plus joins below its inputs (§5.3).
  int uncertainty = 0;

  /// True when every input is a bound relation — an executable "leaf job".
  bool IsLeafJob() const {
    for (const JobInput& in : inputs) {
      if (!in.IsLeaf()) return false;
    }
    return true;
  }
};

/// Outcome of running one job unit.
struct StepResult {
  /// Per-unit outcome; a failed broadcast (OutOfMemory) surfaces here so
  /// the driver can react (e.g. fall back to a repartition join) without
  /// losing sibling units that succeeded.
  Status status;
  /// Id of the new virtual relation ("t1", "t2", ... as in Fig. 2).
  std::string relation_id;
  JobResult job;
  /// Online statistics over the job output (cardinality is exact; column
  /// stats only for the requested columns).
  TableStats stats;
  /// The plan subtree this job computed (for signature/bookkeeping).
  std::string subtree_signature;
};

/// Executes physical join plans as MapReduce jobs. Owns the bindings from
/// relation ids to DFS files and the naming of intermediate results; the
/// join-block run loop (dyno/join_block_run.h) is built on top of it.
class PlanExecutor {
 public:
  PlanExecutor(MapReduceEngine* engine, ExecOptions options);

  /// Registers a relation id (base leaf or externally materialized).
  void Bind(const std::string& id, RelationBinding binding);
  /// Binds each leaf's alias to its catalog table, scanned with the leaf's
  /// local predicates and keyed by its LeafSignature.
  Status BindLeaves(const Catalog& catalog,
                    const std::vector<LeafExpr>& leaves);
  bool IsBound(const std::string& id) const;
  Result<RelationBinding> GetBinding(const std::string& id) const;

  /// Canonical signature of a plan subtree: the tree rendered with every
  /// leaf replaced by its *binding* signature (recursively grounded in
  /// "table|filter" leaf signatures), join keys, and full post-filter text.
  /// Unlike PlanNode::ToString(), which names run-local temp relations
  /// ("t7"), this is stable across queries and sessions — two queries that
  /// compute the same subtree over the same base data render identically,
  /// which is what makes it usable as a cross-query cache key.
  std::string CanonicalSignature(const PlanNode& node) const;

  /// Binds an externally materialized relation (e.g. a subtree-cache hit)
  /// under a freshly allocated temp id and returns that id. Allocation goes
  /// through the same "t<N>" counter as executed units, so a run that hits
  /// the cache assigns the exact ids an uninterrupted cold run would have.
  std::string BindCachedRelation(RelationBinding binding);

  /// Splits `plan` into its MapReduce jobs, children before parents. The
  /// returned units hold pointers into `plan`, which must outlive them.
  static Result<std::vector<JobUnit>> Decompose(const PlanNode& plan);

  /// Execution request for one unit.
  struct UnitRequest {
    const JobUnit* unit = nullptr;
    /// Columns to collect statistics for on the output (empty = none).
    std::vector<std::string> stats_columns;
    /// Output projection (empty = keep all columns).
    std::vector<std::string> projection;
    /// Per-job reduce-memory override (JobSpec::reduce_memory_mode): -1
    /// inherits the cluster knob, 1 forces spill mode. Set by the driver's
    /// OOM retry ladder when it re-runs a unit that died of OutOfMemory.
    int reduce_memory_mode = -1;
    /// Reducer-count override for the unit's repartition job (> 0 pins
    /// JobSpec::num_reduce_tasks). The OOM ladder's doubled-reducer rung
    /// uses this so each reducer's partition — and thus its memory state —
    /// shrinks.
    int num_reduce_tasks = 0;
    /// Per-record CPU charged for statistics collection; reported in the
    /// JobResult's observer overhead.
    bool collect_stats() const { return !stats_columns.empty(); }
  };

  /// Runs the requested units concurrently (they must be mutually
  /// independent and all of their inputs resolvable: bound relations or
  /// outputs of previously executed units). Results are in request order.
  /// Every per-unit failure is reported in that unit's StepResult::status
  /// while the other units still run: a failed job (e.g. a broadcast build
  /// side exceeding task memory), and a failure while preparing the job (an
  /// unresolvable input, a build side that fails to decode, a failed
  /// build-side filter job). Only batch-level errors fail the call: the
  /// engine rejecting the batch, or a submit gate's Cancelled /
  /// DeadlineExceeded.
  Result<std::vector<StepResult>> Execute(
      const std::vector<UnitRequest>& requests);

  /// Convenience: run one unit; its failure becomes the call's error.
  Result<StepResult> ExecuteOne(const UnitRequest& request);

  /// Id assigned to the output of the unit with `uid`, if it already ran.
  Result<std::string> OutputOf(int64_t unit_uid) const;

  /// Resolves a job input to a relation id (bound leaf or executed unit
  /// output).
  Result<std::string> ResolveInput(const JobInput& input) const;

  /// Records `relation_id` as the output of unit `uid` — used when a
  /// fallback execution path computed the unit's result under a different
  /// identity (the relation must already be bound).
  void RegisterUnitOutput(int64_t uid, const std::string& relation_id) {
    unit_outputs_[uid] = relation_id;
  }

  /// Runs one map-only scan job named `job_name` over `id`'s bound
  /// relation: applies its scan filter (pushed into the engine and
  /// zone-map pruned when DYNO_COLUMNAR / DYNO_ZONE_MAPS are on), keeps
  /// `projection` (empty = all columns) and writes `output_path`. A failed
  /// job is the call's error.
  Result<JobResult> ScanRelation(const std::string& id,
                                 const std::vector<std::string>& projection,
                                 const std::string& job_name,
                                 const std::string& output_path);

  /// Runs a map-only filter job over `id`'s bound relation and rebinds the
  /// id to the materialized (already filtered) output. Used when shipping
  /// a raw-but-filtered file as broadcast side data would be wasteful.
  Status MaterializeFilteredLeaf(const std::string& id);

  MapReduceEngine* engine() const { return engine_; }
  const ExecOptions& options() const { return options_; }

  /// Temp-id high-water mark: relation ids are "t<N>" with N up to this.
  int temp_counter() const { return temp_counter_; }

  /// Fast-forwards temp-id allocation past `upto`. Checkpoint resume uses
  /// this so a continuation's relation ids — and therefore its subtree
  /// signatures — match the ones an uninterrupted run would have assigned.
  void ReserveTempIds(int upto) {
    temp_counter_ = std::max(temp_counter_, upto);
  }

 private:
  struct PreparedJob;

  /// Builds the job of one request. Broadcast build sides are decoded here,
  /// and a selective one may first be materialized by a filter job.
  Result<PreparedJob> Prepare(const UnitRequest& request);

  MapReduceEngine* engine_;
  ExecOptions options_;
  int instance_id_ = 0;
  std::map<std::string, RelationBinding> bindings_;
  std::map<int64_t, std::string> unit_outputs_;
  int temp_counter_ = 0;
};

}  // namespace dyno

#endif  // DYNO_EXEC_PLAN_EXECUTOR_H_
