#include "dyno/driver.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/restaurant.h"

namespace dyno {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  DriverTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    TpchConfig config;
    config.scale = 0.0005;  // orders=750, lineitem~3000
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    return config;
  }

  DynoOptions MakeOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.pilot.mode = PilotRunOptions::Mode::kParallel;
    options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    options.cost.memory_factor = 1.5;
    return options;
  }

  void ExpectMatchesOracle(const Query& query, const QueryRunReport& report) {
    auto expected = NaiveEvaluateJoinBlock(&catalog_, query.join_block);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_NE(report.result, nullptr);
    std::vector<Value> actual = MustReadAll(*report.result);
    std::vector<Value> want = std::move(expected).value();
    SortRowsForComparison(&actual);
    SortRowsForComparison(&want);
    ASSERT_EQ(actual.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(actual[i].Compare(want[i]), 0)
          << "row " << i << ": " << actual[i].ToString() << " vs "
          << want[i].ToString();
    }
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
};

TEST_F(DriverTest, Q10DynoptMatchesOracle) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->jobs_run, 0);
  EXPECT_GE(report->optimizer_calls, 1);
  ExpectMatchesOracle(MakeTpchQ10(), *report);
}

TEST_F(DriverTest, Q2DynoptMatchesOracle) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(MakeTpchQ2());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(MakeTpchQ2(), *report);
}

TEST_F(DriverTest, Q8PrimeDynoptMatchesOracle) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  Query q8 = MakeTpchQ8Prime();
  auto report = driver.Execute(q8);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(q8, *report);
  EXPECT_GE(report->optimizer_calls, 2) << "re-optimization expected";
}

TEST_F(DriverTest, Q9PrimeDynoptMatchesOracle) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  Query q9 = MakeTpchQ9Prime(/*dim_udf_selectivity=*/0.1);
  auto report = driver.Execute(q9);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(q9, *report);
}

TEST_F(DriverTest, Q7DynoptMatchesOracle) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  Query q7 = MakeTpchQ7();
  auto report = driver.Execute(q7);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(q7, *report);
}

TEST_F(DriverTest, SimpleVariantMatchesOracle) {
  DynoOptions options = MakeOptions();
  options.strategy = ExecutionStrategy::kSimpleParallel;
  DynoDriver driver(&engine_, &catalog_, &store_, options);
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->optimizer_calls, 1) << "SIMPLE never re-optimizes";
  ExpectMatchesOracle(MakeTpchQ10(), *report);
}

TEST_F(DriverTest, SerialSimpleMatchesParallelSimpleResults) {
  DynoOptions serial = MakeOptions();
  serial.strategy = ExecutionStrategy::kSimpleSerial;
  DynoDriver driver(&engine_, &catalog_, &store_, serial);
  auto report = driver.Execute(MakeTpchQ2());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(MakeTpchQ2(), *report);
}

TEST_F(DriverTest, StrategiesAllProduceCorrectResults) {
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kUncertain2, ExecutionStrategy::kCheapest1,
        ExecutionStrategy::kCheapest2}) {
    DynoOptions options = MakeOptions();
    options.strategy = strategy;
    DynoDriver driver(&engine_, &catalog_, &store_, options);
    auto report = driver.Execute(MakeTpchQ8Prime());
    ASSERT_TRUE(report.ok()) << ExecutionStrategyName(strategy) << ": "
                             << report.status().ToString();
    ExpectMatchesOracle(MakeTpchQ8Prime(), *report);
  }
}

TEST_F(DriverTest, GroupByAndOrderByExecute) {
  Query q = MakeTpchQ10();
  GroupBySpec gb;
  gb.keys = {"n_name"};
  Aggregate count;
  count.kind = Aggregate::Kind::kCount;
  count.output_name = "cnt";
  Aggregate rev;
  rev.kind = Aggregate::Kind::kSum;
  rev.input_column = "l_extendedprice";
  rev.output_name = "revenue";
  gb.aggregates = {count, rev};
  q.group_by = gb;
  OrderBySpec ob;
  ob.keys = {{"revenue", /*desc=*/true}};
  ob.limit = 5;
  q.order_by = ob;

  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::vector<Value> rows = MustReadAll(*report->result);
  ASSERT_LE(rows.size(), 5u);
  ASSERT_GE(rows.size(), 1u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].FindField("revenue")->AsDouble(),
              rows[i].FindField("revenue")->AsDouble());
  }
}

TEST_F(DriverTest, RestaurantQueryMatchesOracle) {
  RestaurantConfig config;
  config.num_restaurants = 300;
  config.num_reviews = 1500;
  config.num_tweets = 2000;
  ASSERT_TRUE(GenerateRestaurantData(&catalog_, config).ok());
  Query q1 = MakeRestaurantQuery();
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(q1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatchesOracle(q1, *report);
}

TEST_F(DriverTest, PlanHistoryRecorded) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(MakeTpchQ8Prime());
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->plan_history.empty());
  for (const PlanEvent& event : report->plan_history) {
    EXPECT_FALSE(event.plan_compact.empty());
    EXPECT_FALSE(event.plan_tree.empty());
  }
}

TEST_F(DriverTest, PilotStatsReusedAcrossQueries) {
  DynoOptions options = MakeOptions();
  options.pilot.reuse_stats = true;
  DynoDriver driver(&engine_, &catalog_, &store_, options);
  ASSERT_TRUE(driver.Execute(MakeTpchQ10()).ok());
  ASSERT_TRUE(driver.Execute(MakeTpchQ10()).ok());
  EXPECT_GT(store_.hits(), 0u) << "second run must reuse cached statistics";
}

}  // namespace
}  // namespace dyno
