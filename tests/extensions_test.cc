// Tests for the paper's extension features: rank-based predicate
// reordering, conditional re-optimization, the adaptive
// broadcast→repartition fallback (§8 dynamic join), and multi-block
// queries (§5.1).

#include <gtest/gtest.h>

#include "dyno/driver.h"
#include "lang/parser.h"
#include "pilot/predicate_order.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
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

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
};

// --- predicate reordering ---

TEST_F(ExtensionsTest, MeasurePredicatesOrdersByRank) {
  // A cheap selective predicate must come before an expensive unselective
  // UDF, regardless of the input order.
  ExprPtr cheap_selective = Eq(Col("o_channel"), LitString("web"));  // ~20%
  ExprPtr expensive_loose =
      MakeHashFilterUdf("loose", {"o_orderkey"}, 0.9, 100.0);
  PredicateOrderOptions options;
  auto measured = MeasurePredicates(&catalog_, "orders",
                                    {expensive_loose, cheap_selective},
                                    options);
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  ASSERT_EQ(measured->size(), 2u);
  EXPECT_EQ((*measured)[0].predicate, cheap_selective)
      << "rank ordering must put the cheap selective predicate first";
  EXPECT_NEAR((*measured)[0].selectivity, 0.2, 0.08);
  EXPECT_NEAR((*measured)[1].selectivity, 0.9, 0.08);
}

TEST_F(ExtensionsTest, ReorderConjunctionPreservesSemantics) {
  ExprPtr filter = And(MakeHashFilterUdf("f1", {"o_orderkey"}, 0.8, 50.0),
                       Eq(Col("o_clerk_group"), LitInt(2)));
  auto reordered =
      ReorderConjunction(&catalog_, "orders", filter, PredicateOrderOptions());
  ASSERT_TRUE(reordered.ok());
  // Same rows pass before and after reordering.
  auto file = catalog_.OpenTable("orders");
  ASSERT_TRUE(file.ok());
  for (const Value& row : MustReadAll(**file)) {
    auto a = filter->Eval(row);
    auto b = (*reordered)->Eval(row);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->bool_value(), b->bool_value());
  }
  // Single conjuncts and null filters pass through.
  auto single = ReorderConjunction(&catalog_, "orders",
                                   Eq(Col("o_clerk_group"), LitInt(1)),
                                   PredicateOrderOptions());
  ASSERT_TRUE(single.ok());
  auto null_filter = ReorderConjunction(&catalog_, "orders", nullptr,
                                        PredicateOrderOptions());
  ASSERT_TRUE(null_filter.ok());
  EXPECT_EQ(*null_filter, nullptr);
}

TEST_F(ExtensionsTest, DriverReorderFlagKeepsResultsCorrect) {
  DynoOptions options = MakeOptions();
  options.reorder_local_predicates = true;
  DynoDriver driver(&engine_, &catalog_, &store_, options);
  Query q8 = MakeTpchQ8Prime();
  auto report = driver.Execute(q8);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, q8.join_block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(report->result_records, oracle->size());
}

// --- conditional re-optimization ---

TEST_F(ExtensionsTest, ThresholdReducesOptimizerCalls) {
  Query q8 = MakeTpchQ8Prime();
  DynoOptions always = MakeOptions();
  DynoDriver driver_always(&engine_, &catalog_, &store_, always);
  auto report_always = driver_always.Execute(q8);
  ASSERT_TRUE(report_always.ok());

  DynoOptions lax = MakeOptions();
  lax.reopt_row_error_threshold = 1e9;  // effectively never re-plan
  StatsStore store2;
  DynoDriver driver_lax(&engine_, &catalog_, &store2, lax);
  auto report_lax = driver_lax.Execute(q8);
  ASSERT_TRUE(report_lax.ok()) << report_lax.status().ToString();
  EXPECT_LT(report_lax->optimizer_calls, report_always->optimizer_calls);
  // Results identical either way.
  EXPECT_EQ(report_lax->result_records, report_always->result_records);
}

TEST_F(ExtensionsTest, ZeroThresholdReoptimizesEveryStep) {
  DynoOptions options = MakeOptions();
  options.reopt_row_error_threshold = 0.0;
  DynoDriver driver(&engine_, &catalog_, &store_, options);
  auto report = driver.Execute(MakeTpchQ8Prime());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->optimizer_calls, 3);
}

// --- adaptive broadcast fallback (§8 dynamic join) ---

TEST_F(ExtensionsTest, FallbackRescuesUnderestimatedBroadcast) {
  // Tiny task memory + optimistic margins make some chosen broadcast
  // infeasible at runtime; with the fallback the query must still finish
  // with correct results.
  ClusterConfig config = MakeConfig();
  config.memory_per_task_bytes = 2 * 1024;
  MapReduceEngine engine(&dfs_, config);
  DynoOptions options = MakeOptions();
  options.cost.max_memory_bytes = 64 * 1024;  // optimizer believes 64K
  options.cost.estimated_build_margin = 1.0;
  options.sync_cost_memory = false;  // keep the deliberate lie above
  options.adaptive_join_fallback = true;
  DynoDriver driver(&engine, &catalog_, &store_, options);
  Query q10 = MakeTpchQ10();
  auto report = driver.Execute(q10);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->broadcast_fallbacks, 0)
      << "the lied-about memory budget must have triggered a fallback";
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, q10.join_block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(report->result_records, oracle->size());
}

TEST_F(ExtensionsTest, WithoutFallbackSameQueryDies) {
  ClusterConfig config = MakeConfig();
  config.memory_per_task_bytes = 2 * 1024;
  MapReduceEngine engine(&dfs_, config);
  DynoOptions options = MakeOptions();
  options.cost.max_memory_bytes = 64 * 1024;
  options.cost.estimated_build_margin = 1.0;
  options.sync_cost_memory = false;  // keep the deliberate lie above
  options.adaptive_join_fallback = false;  // Jaql semantics
  StatsStore store2;
  DynoDriver driver(&engine, &catalog_, &store2, options);
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kOutOfMemory);
}

// --- multi-block queries ---

TEST_F(ExtensionsTest, MultiBlockChainsThroughBlockReference) {
  MultiBlockQuery query;
  // Block 1: customers joined with their orders in a date window.
  MultiBlockQuery::Block first;
  first.name = "window";
  first.join_block.tables = {{"customer", "c"}, {"orders", "o"}};
  first.join_block.edges = {{"c", "c_custkey", "o", "o_custkey"}};
  first.join_block.predicates = {
      {Ge(Col("o_orderdate"), LitInt(19950101)), {"o"}}};
  first.join_block.output_columns = {"c_custkey", "c_nationkey",
                                     "o_orderkey"};
  // Block 2: join the intermediate with nation.
  MultiBlockQuery::Block second;
  second.name = "named";
  second.join_block.tables = {{"@block:window", "w"}, {"nation", "n"}};
  second.join_block.edges = {{"w", "c_nationkey", "n", "n_nationkey"}};
  second.join_block.output_columns = {"c_custkey", "n_name", "o_orderkey"};
  query.blocks = {first, second};

  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.ExecuteMultiBlock(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Oracle: same thing as one 3-way block.
  JoinBlock flat;
  flat.tables = {{"customer", "c"}, {"orders", "o"}, {"nation", "n"}};
  flat.edges = {{"c", "c_custkey", "o", "o_custkey"},
                {"c", "c_nationkey", "n", "n_nationkey"}};
  flat.predicates = {{Ge(Col("o_orderdate"), LitInt(19950101)), {"o"}}};
  flat.output_columns = {"c_custkey", "n_name", "o_orderkey"};
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, flat);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(report->result_records, oracle->size());
}

TEST_F(ExtensionsTest, MultiBlockRespectsDeclarationIndependentOrder) {
  // Blocks declared out of dependency order still execute correctly.
  MultiBlockQuery query;
  MultiBlockQuery::Block consumer;
  consumer.name = "consumer";
  consumer.join_block.tables = {{"@block:base", "b"}, {"nation", "n"}};
  consumer.join_block.edges = {{"b", "c_nationkey", "n", "n_nationkey"}};
  MultiBlockQuery::Block base;
  base.name = "base";
  base.join_block.tables = {{"customer", "c"}};
  base.join_block.predicates = {
      {Lt(Col("c_custkey"), LitInt(10)), {"c"}}};
  query.blocks = {consumer, base};
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.ExecuteMultiBlock(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result_records, 10u);
}

TEST_F(ExtensionsTest, MultiBlockErrorCases) {
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  MultiBlockQuery empty;
  EXPECT_FALSE(driver.ExecuteMultiBlock(empty).ok());

  MultiBlockQuery unknown_ref;
  MultiBlockQuery::Block block;
  block.name = "a";
  block.join_block.tables = {{"@block:nope", "x"}};
  unknown_ref.blocks = {block};
  EXPECT_FALSE(driver.ExecuteMultiBlock(unknown_ref).ok());

  MultiBlockQuery cyclic;
  MultiBlockQuery::Block b1;
  b1.name = "one";
  b1.join_block.tables = {{"@block:two", "x"}};
  MultiBlockQuery::Block b2;
  b2.name = "two";
  b2.join_block.tables = {{"@block:one", "y"}};
  cyclic.blocks = {b1, b2};
  EXPECT_FALSE(driver.ExecuteMultiBlock(cyclic).ok());

  MultiBlockQuery dup;
  MultiBlockQuery::Block d;
  d.name = "same";
  d.join_block.tables = {{"customer", "c"}};
  dup.blocks = {d, d};
  EXPECT_FALSE(driver.ExecuteMultiBlock(dup).ok());
}

// --- SQL end to end ---

TEST_F(ExtensionsTest, ParsedSqlRunsThroughDynoAndMatchesOracle) {
  auto q = ParseQuery(
      "SELECT c_name, n_name FROM customer c, nation n "
      "WHERE c.c_nationkey = n.n_nationkey AND c.c_acctbal > 5000.0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  DynoDriver driver(&engine_, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(*q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, q->join_block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(report->result_records, oracle->size());
}

}  // namespace
}  // namespace dyno
