// Additional driver-level coverage: Hive-backend correctness, static-plan
// serial/parallel equivalence, the no-pilot ablation, left-deep-only mode,
// single-table blocks, and each branch of a block's root job.

#include <gtest/gtest.h>

#include "baselines/best_static.h"
#include "dyno/driver.h"
#include "dyno/join_block_run.h"
#include "obs/trace.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class DriverExtraTest : public ::testing::Test {
 protected:
  DriverExtraTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    TpchConfig config;
    config.scale = 0.0005;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.memory_per_task_bytes = 64 * 1024;
    return config;
  }

  DynoOptions MakeOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    return options;
  }

  void ExpectOracleMatch(const Query& query, const QueryRunReport& report) {
    auto oracle = NaiveEvaluateJoinBlock(&catalog_, query.join_block);
    ASSERT_TRUE(oracle.ok());
    std::vector<Value> actual = MustReadAll(*report.result);
    std::vector<Value> want = std::move(oracle).value();
    SortRowsForComparison(&actual);
    SortRowsForComparison(&want);
    ASSERT_EQ(actual.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(actual[i].Compare(want[i]), 0);
    }
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
};

TEST_F(DriverExtraTest, HiveBackendProducesSameResults) {
  Query q9 = MakeTpchQ9Prime(/*dim_udf_selectivity=*/0.1);
  DynoOptions jaql = MakeOptions();
  DynoOptions hive = MakeOptions();
  hive.exec.hive_broadcast = true;
  StatsStore store2;
  DynoDriver jaql_driver(&engine_, &catalog_, &store_, jaql);
  DynoDriver hive_driver(&engine_, &catalog_, &store2, hive);
  auto jaql_report = jaql_driver.Execute(q9);
  auto hive_report = hive_driver.Execute(q9);
  ASSERT_TRUE(jaql_report.ok()) << jaql_report.status().ToString();
  ASSERT_TRUE(hive_report.ok()) << hive_report.status().ToString();
  EXPECT_EQ(jaql_report->result_records, hive_report->result_records);
  ExpectOracleMatch(q9, *hive_report);
}

TEST_F(DriverExtraTest, StaticSerialAndParallelProduceIdenticalRows) {
  // A given plan's SO and MO runs must differ only in schedule.
  Query q2 = MakeTpchQ2();
  BestStaticOptions options;
  options.cost = MakeOptions().cost;
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  auto plan = baseline.BuildJaqlPlan(q2.join_block,
                                     {"p", "ps", "s", "n", "r"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto run = [&](ExecutionStrategy strategy) -> std::vector<Value> {
    DynoOptions run_options = JaqlRunOptions(ExecOptions());
    run_options.strategy = strategy;
    QueryRunReport report;
    JoinBlockRun block_run(&engine_, &catalog_, /*store=*/nullptr,
                           run_options, q2.join_block, &report);
    auto output = block_run.RunPlan(**plan);
    EXPECT_TRUE(output.ok()) << output.status().ToString();
    if (!output.ok()) return {};
    return MustReadAll(**output);
  };
  std::vector<Value> serial = run(ExecutionStrategy::kSimpleSerial);
  std::vector<Value> parallel = run(ExecutionStrategy::kSimpleParallel);
  SortRowsForComparison(&serial);
  SortRowsForComparison(&parallel);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].Compare(parallel[i]), 0);
  }
}

TEST_F(DriverExtraTest, NoPilotAblationStillCorrect) {
  DynoOptions options = MakeOptions();
  options.use_pilot_runs = false;
  DynoDriver driver(&engine_, &catalog_, &store_, options);
  Query q10 = MakeTpchQ10();
  auto report = driver.Execute(q10);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pilot_ms, 0);
  ExpectOracleMatch(q10, *report);
}

TEST_F(DriverExtraTest, LeftDeepOnlyModeCorrectAndShapeRestricted) {
  DynoOptions options = MakeOptions();
  options.cost.left_deep_only = true;
  DynoDriver driver(&engine_, &catalog_, &store_, options);
  Query q2 = MakeTpchQ2();
  auto report = driver.Execute(q2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectOracleMatch(q2, *report);
  // Every recorded plan must be left-deep: no '(' directly after an
  // opening join's right operand — verify via the compact rendering shape:
  // a right child that is a join renders as "... *x ("; left-deep plans
  // never contain " (" after the operator.
  for (const PlanEvent& event : report->plan_history) {
    EXPECT_EQ(event.plan_compact.find("b ("), std::string::npos)
        << event.plan_compact;
    EXPECT_EQ(event.plan_compact.find("r ("), std::string::npos)
        << event.plan_compact;
  }
}

TEST_F(DriverExtraTest, SingleTableBlockRunsAsScanJob) {
  Query query;
  query.join_block.tables = {{"orders", "o"}};
  query.join_block.predicates = {
      {Eq(Col("o_channel"), LitString("web")), {"o"}}};
  query.join_block.output_columns = {"o_orderkey", "o_totalprice"};
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->jobs_run, 1);
  EXPECT_EQ(report->map_only_jobs, 1);
  ExpectOracleMatch(query, *report);
  // Rows carry only the projected columns.
  std::vector<Value> rows = MustReadAll(*report->result);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].fields().size(), 2u);
}

TEST_F(DriverExtraTest, ReportAccountingIsConsistent) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(MakeTpchQ8Prime());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->total_ms, 0);
  EXPECT_GE(report->total_ms,
            report->pilot_ms + report->optimizer_ms);
  EXPECT_EQ(report->optimizer_calls,
            static_cast<int>(report->plan_history.size()));
  EXPECT_GE(report->jobs_run, report->map_only_jobs);
  EXPECT_GE(report->plan_changes, 0);
  EXPECT_LT(report->plan_changes, report->optimizer_calls);
}

TEST_F(DriverExtraTest, DisconnectedJoinGraphRejected) {
  Query query;
  query.join_block.tables = {{"orders", "o"}, {"nation", "n"}};
  // No edges: cartesian product -> the optimizer must refuse.
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  EXPECT_FALSE(driver.Execute(query).ok());
}

TEST_F(DriverExtraTest, UnknownTableFailsCleanly) {
  Query query;
  query.join_block.tables = {{"not_a_table", "x"}, {"orders", "o"}};
  query.join_block.edges = {{"x", "k", "o", "o_orderkey"}};
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(query);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}


TEST_F(DriverExtraTest, CyclicJoinGraphQ5MatchesOracle) {
  // The paper excluded Q5 ("cyclic join conditions that are not currently
  // supported by our optimizer", §6.1); this enumerator supports cycles.
  Query q5 = MakeTpchQ5();
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(q5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectOracleMatch(q5, *report);
}

// --- The root unit. A two-table block decomposes into one job, the root,
// so these pin each branch the root can take: a subtree-cache hit, the
// broadcast fallback and the OOM ladder. Env defaults and retry knobs are
// pinned so every ctest preset sees the same runs. ---

class DriverRootTest : public DriverExtraTest {
 protected:
  static ClusterConfig PinnedConfig() {
    ClusterConfig config = MakeConfig();
    config.faults.use_env_defaults = false;
    return config;
  }

  DynoOptions PinnedOptions() {
    DynoOptions options = MakeOptions();
    options.max_job_attempts = 1;
    options.retry_budget_ms = 0;
    options.oom_retry_ladder = 0;
    return options;
  }

  static Query TwoTableQuery() {
    Query query;
    query.join_block.tables = {{"orders", "o"}, {"customer", "c"}};
    query.join_block.edges = {{"o", "o_custkey", "c", "c_custkey"}};
    query.join_block.output_columns = {"o_orderkey", "c_name"};
    return query;
  }

  static int CountEvents(const obs::TraceSink& trace,
                         const std::string& name) {
    const std::string jsonl = trace.SerializeJsonl();
    const std::string needle = "\"name\":\"" + name + "\"";
    int count = 0;
    for (size_t pos = jsonl.find(needle); pos != std::string::npos;
         pos = jsonl.find(needle, pos + 1)) {
      ++count;
    }
    return count;
  }
};

TEST_F(DriverRootTest, CachedRootEndsTheBlockWithoutAJob) {
  MapReduceEngine engine(&dfs_, PinnedConfig());
  obs::TraceSink trace;
  engine.set_trace(&trace);
  SubtreeCache cache(&dfs_, &catalog_, SubtreeCacheOptions());
  DynoOptions options = PinnedOptions();
  options.subtree_cache = &cache;
  Query query = TwoTableQuery();

  DynoDriver cold(&engine, &catalog_, &store_, options);
  auto first = cold.Execute(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->jobs_run, 1);
  EXPECT_EQ(CountEvents(trace, "final_step"), 1);
  EXPECT_EQ(CountEvents(trace, "final_step_cached"), 0);

  obs::TraceSink warm_trace;
  engine.set_trace(&warm_trace);
  DynoDriver warm(&engine, &catalog_, &store_, options);
  auto second = warm.Execute(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->jobs_run, 0);
  EXPECT_EQ(CountEvents(warm_trace, "final_step"), 0);
  EXPECT_EQ(CountEvents(warm_trace, "final_step_cached"), 1);
  ExpectOracleMatch(query, *second);
}

TEST_F(DriverRootTest, RootBroadcastOomFallsBackToRepartition) {
  // The optimizer is told tasks have 64 KiB while they have 2 KiB, so the
  // broadcast it picks for the root dies at run time.
  ClusterConfig config = PinnedConfig();
  config.memory_per_task_bytes = 2 * 1024;
  MapReduceEngine engine(&dfs_, config);
  obs::TraceSink trace;
  engine.set_trace(&trace);
  DynoOptions options = PinnedOptions();
  options.cost.max_memory_bytes = 64 * 1024;
  options.cost.estimated_build_margin = 1.0;
  options.sync_cost_memory = false;
  options.adaptive_join_fallback = true;
  DynoDriver driver(&engine, &catalog_, &store_, options);
  Query query = TwoTableQuery();
  auto report = driver.Execute(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->broadcast_fallbacks, 1);
  EXPECT_EQ(CountEvents(trace, "broadcast_fallback"), 1);
  EXPECT_EQ(CountEvents(trace, "final_step"), 1);
  ExpectOracleMatch(query, *report);
}

TEST_F(DriverRootTest, RootReduceOomClimbsTheLadder) {
  // Strict reduce memory kills the root's repartition job; rung 1 re-runs
  // it in spill mode.
  ClusterConfig config = PinnedConfig();
  config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kStrict;
  config.memory_per_task_bytes = 8 * 1024;
  MapReduceEngine engine(&dfs_, config);
  obs::TraceSink trace;
  engine.set_trace(&trace);
  DynoOptions options = PinnedOptions();
  options.cost.enable_broadcast = false;
  options.cost.enable_broadcast_chains = false;
  options.oom_retry_ladder = 1;
  DynoDriver driver(&engine, &catalog_, &store_, options);
  Query query = TwoTableQuery();
  auto report = driver.Execute(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->oom_retries, 1);
  EXPECT_EQ(CountEvents(trace, "oom_retry"), 1);
  EXPECT_EQ(CountEvents(trace, "final_step"), 1);
  EXPECT_GT(report->reduce_spills, 0);
  ExpectOracleMatch(query, *report);
}

TEST(DriverKnobDeathTest, MalformedMaxJobAttemptsAbortsLoudly) {
  // DYNO_MAX_JOB_ATTEMPTS parses strictly, like every other DYNO_* knob: a
  // malformed or out-of-range value must not silently mean "no retry".
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  StatsStore store;
  auto construct = [&](const char* value) {
    ScopedEnv env({{"DYNO_MAX_JOB_ATTEMPTS", std::string(value)}});
    return DynoDriver(&engine, &catalog, &store, DynoOptions())
        .options()
        .max_job_attempts;
  };
  EXPECT_EQ(construct("3"), 3);
  EXPECT_DEATH(construct("abc"), "DYNO_MAX_JOB_ATTEMPTS");
  EXPECT_DEATH(construct("0"), "DYNO_MAX_JOB_ATTEMPTS");
}

}  // namespace
}  // namespace dyno
