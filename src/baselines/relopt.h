#ifndef DYNO_BASELINES_RELOPT_H_
#define DYNO_BASELINES_RELOPT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "exec/plan_executor.h"
#include "lang/plan.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "optimizer/optimizer.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"

namespace dyno {

/// The RELOPT baseline (paper §6.1): a state-of-the-art relational
/// optimizer for a shared-nothing DBMS ("DBMS-X"). It enjoys *detailed*
/// statistics gathered ahead of time — exact base-table cardinalities,
/// per-column distinct counts and equi-depth histograms — and estimates
/// simple-predicate selectivities well. Its two blind spots are exactly the
/// paper's targets: (1) multiple predicates combine under the independence
/// assumption, so correlated predicates yield badly underestimated results;
/// (2) UDFs have unknown selectivity (treated as 1.0), so UDF-filtered
/// relations look full-size. The resulting plan is executed as-is on the
/// MapReduce runtime ("hand-coded to a Jaql script"), with no pilot runs
/// and no re-optimization.
class RelOptBaseline {
 public:
  /// `cost` is the MapReduce cost model (used for Jaql-side chain
  /// application); internally the planner runs with a DBMS-flavored
  /// derivative (cheap pipelined exchanges, N-fold broadcast replication).
  /// `num_nodes` is the DBMS cluster size for that replication factor.
  RelOptBaseline(MapReduceEngine* engine, Catalog* catalog,
                 CostModelParams cost, int num_nodes = 15);

  /// Plans `block` with the traditional estimator. The plan is bushy and
  /// may use broadcast joins wherever the (possibly wrong) estimates say
  /// the build side fits.
  Result<std::unique_ptr<PlanNode>> Plan(const JoinBlock& block);

  /// Estimated statistics RELOPT derives for one leaf from ANALYZE of
  /// `columns` of its table (exposed for tests: this is where independence
  /// and UDF-blindness manifest). The estimate carries exactly `columns`.
  /// ANALYZE is the catalog's (Catalog::Analyze): client-side and unbilled,
  /// as DBMS-X gathers its statistics before query execution (§6.1).
  Result<TableStats> EstimateLeaf(const LeafExpr& leaf,
                                  const std::vector<std::string>& columns);

  struct RunResult {
    SimMillis elapsed_ms = 0;
    std::string plan_compact;
    std::string plan_tree;
    int jobs_run = 0;
    int map_only_jobs = 0;
    std::shared_ptr<DfsFile> output;
    /// Non-OK when the plan failed at runtime (e.g. a broadcast build side
    /// that the optimizer underestimated and that did not fit in memory).
    Status exec_status;
  };

  /// Plans and executes `block` (wave-parallel static execution).
  Result<RunResult> PlanAndExecute(const JoinBlock& block,
                                   const ExecOptions& exec_options);

 private:
  MapReduceEngine* engine_;
  Catalog* catalog_;
  CostModelParams cost_;
  int num_nodes_;
};

}  // namespace dyno

#endif  // DYNO_BASELINES_RELOPT_H_
