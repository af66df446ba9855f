// Micro-benchmarks for the statistics layer (google-benchmark): KMV
// synopsis maintenance throughput and the empirical accuracy of the
// distinct-value estimator at k=1024 (the paper's setting; expected error
// about 6%, §4.3).

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "stats/kmv.h"
#include "stats/table_stats.h"

namespace {

using dyno::KmvSynopsis;
using dyno::MakeRow;
using dyno::Rng;
using dyno::StatsCollector;
using dyno::Value;

void BM_KmvAdd(benchmark::State& state) {
  Rng rng(1);
  KmvSynopsis kmv(1024);
  for (auto _ : state) {
    kmv.AddHash(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvAdd);

void BM_KmvEstimateError(benchmark::State& state) {
  // Reports the mean relative estimation error (in %) as a counter.
  int64_t true_ndv = state.range(0);
  double total_err = 0.0;
  int64_t trials = 0;
  for (auto _ : state) {
    Rng rng(static_cast<uint64_t>(trials) + 7);
    KmvSynopsis kmv(1024);
    for (int64_t i = 0; i < 3 * true_ndv; ++i) {
      kmv.Add(Value::Int(static_cast<int64_t>(rng.Uniform(true_ndv))));
    }
    double est = kmv.Estimate();
    // ~95% of the domain is hit with 3x draws.
    double expected = 0.9502 * static_cast<double>(true_ndv);
    total_err += std::abs(est - expected) / expected;
    ++trials;
  }
  state.counters["mean_rel_err_pct"] =
      100.0 * total_err / static_cast<double>(trials);
}
BENCHMARK(BM_KmvEstimateError)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_StatsCollectorObserve(benchmark::State& state) {
  StatsCollector collector({"a", "b"});
  Rng rng(3);
  std::vector<Value> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(MakeRow({{"a", Value::Int(static_cast<int64_t>(
                                      rng.Uniform(5000)))},
                            {"b", Value::Int(static_cast<int64_t>(
                                      rng.Uniform(50)))}}));
  }
  size_t i = 0;
  for (auto _ : state) {
    collector.Observe(rows[i++ % rows.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsCollectorObserve);

}  // namespace

BENCHMARK_MAIN();
