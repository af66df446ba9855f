// Reproduces Figure 5: comparison of execution strategies for choosing
// which leaf jobs of the current plan to run — DYNOPT-SIMPLE's SO (one job
// at a time) and MO (all ready jobs at once), and DYNOPT's UNC-1/UNC-2
// (most uncertain first) and CHEAP-1/CHEAP-2 (cheapest first). Times are
// normalized to SIMPLE_SO per query. Paper findings: MO beats SO (better
// cluster utilization); for DYNOPT, re-optimization points are worth more
// than parallelism, and UNC-1 wins overall; on Q10 the chosen plan is
// left-deep so every strategy coincides.

#include <cstdio>

#include "bench_common.h"

using namespace dyno;
using namespace dyno::bench;

int main() {
  auto scenario = MakeScenario("SF300");
  std::vector<std::pair<std::string, Query>> queries = {
      {"Q7", MakeTpchQ7()},
      {"Q8'", MakeTpchQ8Prime()},
      {"Q10", MakeTpchQ10()},
  };
  const ExecutionStrategy strategies[] = {
      ExecutionStrategy::kSimpleSerial, ExecutionStrategy::kSimpleParallel,
      ExecutionStrategy::kUncertain1,   ExecutionStrategy::kUncertain2,
      ExecutionStrategy::kCheapest1,    ExecutionStrategy::kCheapest2,
  };

  std::vector<std::string> columns;
  for (ExecutionStrategy strategy : strategies) {
    columns.push_back(ExecutionStrategyName(strategy));
  }
  PrintHeader("Figure 5: execution strategies (normalized to SIMPLE_SO)",
              columns);
  for (auto& [qname, query] : queries) {
    std::vector<double> row;
    double baseline = -1;
    for (ExecutionStrategy strategy : strategies) {
      Measured m = RunDynopt(scenario.get(), query, strategy);
      double t = m.ok ? static_cast<double>(m.total_ms) : -1;
      if (strategy == ExecutionStrategy::kSimpleSerial) baseline = t;
      row.push_back(t);
    }
    PrintRow(qname, row, baseline);
  }
  std::printf("\npaper: SIMPLE_MO <= SIMPLE_SO always; UNC-1 best for "
              "Q7/Q8'; all equal on Q10 (left-deep plan, single leaf job)\n");
  return 0;
}
