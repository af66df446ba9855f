#ifndef DYNO_DYNO_STRATEGY_H_
#define DYNO_DYNO_STRATEGY_H_

#include <string>
#include <vector>

#include "exec/plan_executor.h"

namespace dyno {

/// Execution strategies for choosing which leaf jobs of the current best
/// plan to run next (paper §5.3). They trade cluster utilization (more jobs
/// in parallel) against re-optimization opportunities (every extra parallel
/// job removes one checkpoint). The evaluation (Fig. 5) finds UNC-1 best
/// overall: execute the single most *uncertain* job first — the one whose
/// result-size estimate compounds the most join-selectivity guesses — so
/// actual statistics arrive where they matter most.
enum class ExecutionStrategy {
  /// DYNOPT-SIMPLE SO: no re-optimization, one leaf job at a time.
  kSimpleSerial,
  /// DYNOPT-SIMPLE MO: no re-optimization, all ready jobs in parallel.
  kSimpleParallel,
  /// Re-optimize after each step; run the most uncertain leaf job.
  kUncertain1,
  /// Run the two cheapest most-uncertain leaf jobs together (one if only
  /// one exists).
  kUncertain2,
  /// Run the cheapest leaf job.
  kCheapest1,
  /// Run the two cheapest leaf jobs together.
  kCheapest2,
};

const char* ExecutionStrategyName(ExecutionStrategy strategy);

/// True for the DYNOPT-SIMPLE variants (single optimizer call, no runtime
/// statistics, no re-optimization).
bool IsSimpleStrategy(ExecutionStrategy strategy);

/// Picks the leaf jobs to execute this iteration from `leaf_jobs` (all
/// units whose inputs are materialized relations, in decomposition order),
/// per `strategy`. SIMPLE_SO takes the first, SIMPLE_MO takes them all.
std::vector<const JobUnit*> PickLeafJobs(
    ExecutionStrategy strategy, const std::vector<const JobUnit*>& leaf_jobs);

}  // namespace dyno

#endif  // DYNO_DYNO_STRATEGY_H_
