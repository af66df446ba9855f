#ifndef DYNO_BASELINES_BEST_STATIC_H_
#define DYNO_BASELINES_BEST_STATIC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "dyno/driver.h"
#include "exec/plan_executor.h"
#include "lang/plan.h"
#include "lang/query.h"
#include "mr/engine.h"
#include "optimizer/cost_model.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"

namespace dyno {

/// Options for the BESTSTATICJAQL / BESTSTATICHIVE baseline.
struct BestStaticOptions {
  CostModelParams cost;  ///< Supplies M_max and the ranking cost model.
  /// How many top-ranked candidate orders to actually execute (the measured
  /// minimum is reported). The paper executed every order; ranking by cost
  /// over exact leaf statistics before executing keeps the search tractable
  /// while finding the same winner in practice.
  int execute_top_k = 5;
  ExecOptions exec;
};

/// One candidate left-deep plan.
struct StaticCandidate {
  std::vector<std::string> order;  ///< Aliases in join order.
  std::string plan_compact;
  double est_cost = 0.0;
};

struct BestStaticResult {
  SimMillis best_time_ms = 0;
  std::string best_plan;
  std::vector<std::string> best_order;
  int plans_enumerated = 0;
  int plans_executed = 0;
  int plans_failed = 0;  ///< e.g. runtime broadcast OOM.
  /// Units served from an earlier candidate's run instead of executed.
  int units_replayed = 0;
  std::shared_ptr<DfsFile> output;
};

/// The strongest static competitor (paper §6.1): the best *hand-written*
/// left-deep plan under Jaql's own rules — relations joined in FROM order
/// (skipping choices that force cartesian products), the build side
/// broadcast exactly when its raw **file size** fits in memory (no
/// selectivity reasoning), and consecutive broadcast joins chained when
/// their files fit simultaneously. Every valid order is enumerated and
/// deduplicated; candidates are ranked with exact leaf statistics and the
/// top-k executed for real, reporting the fastest.
class BestStaticBaseline {
 public:
  BestStaticBaseline(MapReduceEngine* engine, Catalog* catalog,
                     BestStaticOptions options);

  Result<BestStaticResult> Run(const JoinBlock& block);

  /// Builds the Jaql physical plan for one explicit join order (public for
  /// tests and for executing the paper's "natural" FROM order).
  Result<std::unique_ptr<PlanNode>> BuildJaqlPlan(
      const JoinBlock& block, const std::vector<std::string>& order);

 private:
  MapReduceEngine* engine_;
  Catalog* catalog_;
  BestStaticOptions options_;
  /// Exact leaf statistics keyed by leaf signature (Run() enumerates many
  /// orders over the same leaves).
  std::map<std::string, TableStats> exact_stats_cache_;
};

}  // namespace dyno

#endif  // DYNO_BASELINES_BEST_STATIC_H_
