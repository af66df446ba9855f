#include "dyno/strategy.h"

#include <algorithm>

namespace dyno {

const char* ExecutionStrategyName(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kSimpleSerial: return "SIMPLE_SO";
    case ExecutionStrategy::kSimpleParallel: return "SIMPLE_MO";
    case ExecutionStrategy::kUncertain1: return "UNC-1";
    case ExecutionStrategy::kUncertain2: return "UNC-2";
    case ExecutionStrategy::kCheapest1: return "CHEAP-1";
    case ExecutionStrategy::kCheapest2: return "CHEAP-2";
  }
  return "?";
}

bool IsSimpleStrategy(ExecutionStrategy strategy) {
  return strategy == ExecutionStrategy::kSimpleSerial ||
         strategy == ExecutionStrategy::kSimpleParallel;
}

std::vector<const JobUnit*> PickLeafJobs(
    ExecutionStrategy strategy,
    const std::vector<const JobUnit*>& leaf_jobs) {
  if (leaf_jobs.empty()) return {};
  std::vector<const JobUnit*> sorted = leaf_jobs;
  switch (strategy) {
    case ExecutionStrategy::kSimpleSerial: return {leaf_jobs[0]};
    case ExecutionStrategy::kSimpleParallel: return leaf_jobs;
    case ExecutionStrategy::kUncertain1:
    case ExecutionStrategy::kUncertain2:
      // Most joins first; cost breaks ties (cheaper first) so we reach the
      // next re-optimization point sooner.
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const JobUnit* a, const JobUnit* b) {
                         if (a->uncertainty != b->uncertainty) {
                           return a->uncertainty > b->uncertainty;
                         }
                         return a->est_cost < b->est_cost;
                       });
      break;
    case ExecutionStrategy::kCheapest1:
    case ExecutionStrategy::kCheapest2:
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const JobUnit* a, const JobUnit* b) {
                         return a->est_cost < b->est_cost;
                       });
      break;
  }
  size_t take = 1;
  if (strategy == ExecutionStrategy::kUncertain2 ||
      strategy == ExecutionStrategy::kCheapest2) {
    take = 2;
  }
  if (take > sorted.size()) take = sorted.size();
  sorted.resize(take);
  return sorted;
}

}  // namespace dyno
