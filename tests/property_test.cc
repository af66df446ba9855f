// Property-based end-to-end tests: random schemas, data distributions,
// join graphs, predicates and cluster configurations, with every execution
// path (DYNOPT under each strategy, DYNOPT-SIMPLE, RELOPT, the Jaql static
// plans) checked row-for-row against the brute-force oracle. One seed = one
// random scenario; the suite sweeps many seeds.

#include <set>

#include <gtest/gtest.h>

#include "baselines/best_static.h"
#include "baselines/relopt.h"
#include "common/random.h"
#include "common/string_util.h"
#include "dyno/driver.h"
#include "test_util.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

/// A randomly generated scenario: tables + a connected join block.
struct RandomScenario {
  std::vector<std::string> tables;
  JoinBlock block;
};

/// Generates `num_tables` tables with one shared joinable column per edge
/// of a random spanning tree, plus random local/non-local predicates.
RandomScenario GenerateScenario(Catalog* catalog, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf;
  RandomScenario scenario;
  int num_tables = 3 + static_cast<int>(rng.Uniform(3));  // 3..5

  // Column naming: table i has key column "k<i>" (its id) and, for each
  // edge to an earlier table j, a foreign key "k<j>" into it. All tables
  // carry a filterable int column "f<i>" and a payload.
  std::vector<int> parent(num_tables, -1);
  std::vector<uint64_t> rows(num_tables);
  for (int i = 0; i < num_tables; ++i) {
    rows[i] = 40 + rng.Uniform(300);
    if (i > 0) parent[i] = static_cast<int>(rng.Uniform(i));
  }

  for (int i = 0; i < num_tables; ++i) {
    std::string table = StrFormat("rt%llu_%d", (unsigned long long)seed, i);
    std::vector<Value> data;
    for (uint64_t r = 0; r < rows[i]; ++r) {
      StructFields fields;
      fields.emplace_back(StrFormat("k%d", i),
                          Value::Int(static_cast<int64_t>(r)));
      if (parent[i] >= 0) {
        // Zipf-skewed foreign key so some keys are hot.
        fields.emplace_back(
            StrFormat("k%d", parent[i]),
            Value::Int(static_cast<int64_t>(
                zipf.Next(&rng, rows[parent[i]],
                          rng.Bernoulli(0.5) ? 0.8 : 0.0))));
      }
      fields.emplace_back(StrFormat("f%d", i),
                          Value::Int(rng.UniformInt(0, 9)));
      fields.emplace_back(StrFormat("p%d", i),
                          Value::String(std::string(1 + rng.Uniform(20),
                                                    'x')));
      data.push_back(MakeRow(std::move(fields)));
    }
    EXPECT_TRUE(catalog->CreateTable(table, data).ok());
    scenario.tables.push_back(table);
    scenario.block.tables.push_back(
        {table, StrFormat("a%d", i)});
  }

  for (int i = 1; i < num_tables; ++i) {
    std::string col = StrFormat("k%d", parent[i]);
    scenario.block.edges.push_back(
        {StrFormat("a%d", i), col, StrFormat("a%d", parent[i]), col});
  }

  // Random local predicates.
  for (int i = 0; i < num_tables; ++i) {
    double dice = rng.NextDouble();
    if (dice < 0.3) {
      scenario.block.predicates.push_back(
          {Le(Col(StrFormat("f%d", i)),
              LitInt(rng.UniformInt(0, 9))),
           {StrFormat("a%d", i)}});
    } else if (dice < 0.5) {
      scenario.block.predicates.push_back(
          {MakeHashFilterUdf(StrFormat("udf%llu_%d",
                                       (unsigned long long)seed, i),
                             {StrFormat("k%d", i)},
                             0.1 + rng.NextDouble() * 0.8, 20.0),
           {StrFormat("a%d", i)}});
    }
  }
  // Occasionally a non-local UDF over an edge's two endpoints.
  if (num_tables >= 2 && rng.Bernoulli(0.5)) {
    int child = 1 + static_cast<int>(rng.Uniform(num_tables - 1));
    scenario.block.predicates.push_back(
        {MakeHashFilterUdf(StrFormat("nl%llu", (unsigned long long)seed),
                           {StrFormat("k%d", child),
                            StrFormat("f%d", parent[child])},
                           0.3 + rng.NextDouble() * 0.5, 30.0),
         {StrFormat("a%d", child), StrFormat("a%d", parent[child])}});
  }
  // Random projection half the time.
  if (rng.Bernoulli(0.5)) {
    for (int i = 0; i < num_tables; ++i) {
      if (rng.Bernoulli(0.6)) {
        scenario.block.output_columns.push_back(StrFormat("k%d", i));
      }
    }
    if (scenario.block.output_columns.empty()) {
      scenario.block.output_columns.push_back("k0");
    }
  }
  return scenario;
}

void ExpectSameRows(const std::shared_ptr<DfsFile>& output,
                    std::vector<Value> expected, const std::string& what) {
  ASSERT_NE(output, nullptr) << what;
  std::vector<Value> actual = MustReadAll(*output);
  SortRowsForComparison(&actual);
  SortRowsForComparison(&expected);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].Compare(expected[i]), 0)
        << what << " row " << i << ": " << actual[i].ToString() << " vs "
        << expected[i].ToString();
  }
}

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryTest, AllExecutionPathsMatchOracle) {
  uint64_t seed = GetParam();
  Dfs dfs;
  Catalog catalog(&dfs);
  Rng rng(seed ^ 0xabcdef);
  ClusterConfig cluster;
  cluster.job_startup_ms = 500 + rng.Uniform(3000);
  cluster.map_slots = 4 + static_cast<int>(rng.Uniform(60));
  cluster.reduce_slots = 2 + static_cast<int>(rng.Uniform(30));
  // Sometimes tight memory, to exercise repartition paths and fallbacks.
  cluster.memory_per_task_bytes = rng.Bernoulli(0.4)
                                      ? 4 * 1024
                                      : 128 * 1024;
  MapReduceEngine engine(&dfs, cluster);

  RandomScenario scenario = GenerateScenario(&catalog, seed);
  ASSERT_TRUE(ValidateJoinBlock(scenario.block).ok());
  auto oracle = NaiveEvaluateJoinBlock(&catalog, scenario.block);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  Query query;
  query.join_block = scenario.block;

  // DYNOPT with a random strategy.
  ExecutionStrategy strategies[] = {
      ExecutionStrategy::kUncertain1, ExecutionStrategy::kUncertain2,
      ExecutionStrategy::kCheapest1, ExecutionStrategy::kCheapest2,
      ExecutionStrategy::kSimpleParallel, ExecutionStrategy::kSimpleSerial};
  DynoOptions options;
  options.pilot.k = 64 + static_cast<int>(rng.Uniform(512));
  options.cost.max_memory_bytes = cluster.memory_per_task_bytes;
  options.strategy = strategies[rng.Uniform(6)];
  options.reopt_row_error_threshold =
      rng.Bernoulli(0.3) ? rng.NextDouble() : 0.0;
  StatsStore store;
  DynoDriver driver(&engine, &catalog, &store, options);
  auto report = driver.Execute(query);
  ASSERT_TRUE(report.ok()) << "DYNOPT(" << ExecutionStrategyName(
                                  options.strategy)
                           << "): " << report.status().ToString();
  ExpectSameRows(report->result, *oracle,
                 std::string("DYNOPT-") +
                     ExecutionStrategyName(options.strategy));

  // RELOPT.
  CostModelParams cost;
  cost.max_memory_bytes = cluster.memory_per_task_bytes;
  RelOptBaseline relopt(&engine, &catalog, cost);
  auto rel = relopt.PlanAndExecute(scenario.block, ExecOptions());
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  if (rel->exec_status.ok()) {  // static plans may legitimately OOM
    ExpectSameRows(rel->output, *oracle, "RELOPT");
  }

  // Jaql static plan for the declaration order (when connectivity allows).
  BestStaticOptions static_options;
  static_options.cost = cost;
  static_options.execute_top_k = 1;
  BestStaticBaseline best_static(&engine, &catalog, static_options);
  auto stat = best_static.Run(scenario.block);
  if (stat.ok()) {
    ExpectSameRows(stat->output, *oracle, "BESTSTATIC");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace dyno
