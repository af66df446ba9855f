#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/best_static.h"
#include "baselines/relopt.h"
#include "obs/trace.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    TpchConfig config;
    config.scale = 0.0004;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.memory_per_task_bytes = 64 * 1024;
    return config;
  }

  CostModelParams Cost() {
    CostModelParams cost;
    cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    cost.memory_factor = 1.5;
    return cost;
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
};

TEST_F(BaselinesTest, ExactLeafStatsMatchOracle) {
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = Eq(Col("o_channel"), LitString("web"));
  leaf.join_columns = {"o_custkey"};
  auto stats =
      catalog_.ExactStats(leaf.table, leaf.filter, leaf.join_columns);
  ASSERT_TRUE(stats.ok());
  // Count by brute force.
  auto file = catalog_.OpenTable("orders");
  ASSERT_TRUE(file.ok());
  auto rows = ReadAllRows(**file);
  ASSERT_TRUE(rows.ok());
  int expected = 0;
  for (const Value& row : *rows) {
    if (row.FindField("o_channel")->string_value() == "web") ++expected;
  }
  EXPECT_DOUBLE_EQ(stats->cardinality, expected);
  EXPECT_LE(stats->columns.at("o_custkey").ndv, stats->cardinality);
}

TEST_F(BaselinesTest, RelOptHistogramEstimatesSimplePredicates) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = And(Ge(Col("o_orderdate"), LitInt(19950101)),
                    Le(Col("o_orderdate"), LitInt(19961231)));
  leaf.join_columns = {"o_custkey"};
  auto stats = relopt.EstimateLeaf(leaf, {"o_orderdate", "o_custkey"});
  ASSERT_TRUE(stats.ok());
  // ~2 of 7 years selected.
  auto exact =
      catalog_.ExactStats(leaf.table, leaf.filter, leaf.join_columns);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(stats->cardinality, exact->cardinality,
              0.35 * exact->cardinality);
}

TEST_F(BaselinesTest, RelOptUnderestimatesCorrelatedPredicates) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = And(Eq(Col("o_channel"), LitString("web")),
                    Eq(Col("o_clerk_group"), LitInt(3)));
  leaf.join_columns = {};
  auto est = relopt.EstimateLeaf(leaf, {"o_channel", "o_clerk_group"});
  auto exact =
      catalog_.ExactStats(leaf.table, leaf.filter, leaf.join_columns);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(exact.ok());
  // Independence predicts ~1/25; reality is ~1/5 (95% correlation): the
  // estimate must be several times below the truth.
  EXPECT_LT(est->cardinality, 0.5 * exact->cardinality);
}

TEST_F(BaselinesTest, RelOptBlindToUdfSelectivity) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  LeafExpr leaf;
  leaf.alias = "p";
  leaf.table = "part";
  leaf.filter = MakeHashFilterUdf("sel01", {"p_partkey"}, 0.01, 10.0);
  leaf.join_columns = {"p_partkey"};
  auto est = relopt.EstimateLeaf(leaf, {"p_partkey"});
  ASSERT_TRUE(est.ok());
  auto file = catalog_.OpenTable("part");
  ASSERT_TRUE(file.ok());
  // UDF treated as selectivity 1.0: estimate equals the full table.
  EXPECT_DOUBLE_EQ(est->cardinality,
                   static_cast<double>((*file)->num_records()));
}

// ---------------------------------------------------------------------------
// Offline statistics held by the catalog, once per table version.
// ---------------------------------------------------------------------------

void ExpectSameStats(const TableStats& got, const TableStats& want) {
  EXPECT_EQ(got.cardinality, want.cardinality);
  EXPECT_EQ(got.avg_record_size, want.avg_record_size);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (const auto& [col, cs] : want.columns) {
    SCOPED_TRACE(col);
    ASSERT_EQ(got.columns.count(col), 1u);
    const ColumnStats& g = got.columns.at(col);
    EXPECT_EQ(g.ndv, cs.ndv);
    ASSERT_EQ(g.min_value.has_value(), cs.min_value.has_value());
    ASSERT_EQ(g.max_value.has_value(), cs.max_value.has_value());
    if (cs.min_value) {
      EXPECT_EQ(g.min_value->Compare(*cs.min_value), 0);
      EXPECT_EQ(g.max_value->Compare(*cs.max_value), 0);
    }
  }
}

/// A catalog over the same DFS files that has worked nothing out yet.
std::unique_ptr<Catalog> FreshCatalog(Dfs* dfs, const Catalog& from) {
  auto fresh = std::make_unique<Catalog>(dfs);
  for (const std::string& name : from.TableNames()) {
    EXPECT_TRUE(fresh->RegisterTable(name, from.Lookup(name)->dfs_path).ok());
  }
  return fresh;
}

std::vector<Value> KeyRows(int n) {
  std::vector<Value> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(MakeRow({{"k", Value::Int(i)}, {"g", Value::Int(i % 3)}}));
  }
  return rows;
}

TEST_F(BaselinesTest, HeldAnalysesMatchAFreshComputation) {
  // Columns analyzed in two steps and then served held, against one pass
  // of a catalog that holds nothing.
  ASSERT_TRUE(catalog_.Analyze("orders", {"o_orderdate"}).ok());
  auto held = catalog_.Analyze("orders", {"o_custkey", "o_orderdate"});
  ASSERT_TRUE(held.ok());
  auto again = catalog_.Analyze("orders", {"o_custkey"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*held, *again);
  auto fresh_catalog = FreshCatalog(&dfs_, catalog_);
  auto fresh = fresh_catalog->Analyze("orders", {"o_orderdate", "o_custkey"});
  ASSERT_TRUE(fresh.ok());
  ExpectSameStats((*held)->stats, (*fresh)->stats);
  for (const char* col : {"o_orderdate", "o_custkey"}) {
    SCOPED_TRACE(col);
    const EquiDepthHistogram& h = (*held)->histograms.at(col);
    const EquiDepthHistogram& f = (*fresh)->histograms.at(col);
    EXPECT_EQ(h.total_count(), f.total_count());
    EXPECT_EQ(h.num_buckets(), f.num_buckets());
    EXPECT_EQ(h.distinct_estimate(), f.distinct_estimate());
    for (int64_t literal : {0, 50, 19950101, 19961231}) {
      for (Expr::CompareOp op : {Expr::CompareOp::kEq, Expr::CompareOp::kLt,
                                 Expr::CompareOp::kGe}) {
        EXPECT_EQ(h.EstimateSelectivity(op, Value::Int(literal)),
                  f.EstimateSelectivity(op, Value::Int(literal)));
      }
    }
  }

  // Exact leaf statistics, keyed by filter and join columns alike.
  const ExprPtr web = Eq(Col("o_channel"), LitString("web"));
  auto exact = catalog_.ExactStats("orders", web, {"o_custkey"});
  auto held_exact = catalog_.ExactStats("orders", web, {"o_custkey"});
  auto fresh_exact = fresh_catalog->ExactStats("orders", web, {"o_custkey"});
  ASSERT_TRUE(exact.ok() && held_exact.ok() && fresh_exact.ok());
  ExpectSameStats(*exact, *fresh_exact);
  ExpectSameStats(*held_exact, *fresh_exact);
  auto by_date = catalog_.ExactStats("orders", web, {"o_orderdate"});
  ASSERT_TRUE(by_date.ok());
  EXPECT_EQ(by_date->columns.count("o_custkey"), 0u);
  EXPECT_EQ(by_date->columns.count("o_orderdate"), 1u);
  auto unfiltered = catalog_.ExactStats("orders", nullptr, {"o_custkey"});
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_GT(unfiltered->cardinality, exact->cardinality);

  // Held facts read no data: rot is seen only by a pass that reads it.
  auto file = catalog_.OpenTable("orders");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->CorruptByteForTesting(0, 0, 0x01).ok());
  EXPECT_TRUE(catalog_.Analyze("orders", {"o_custkey"}).ok());
  EXPECT_TRUE(catalog_.ExactStats("orders", web, {"o_custkey"}).ok());
  EXPECT_EQ(catalog_.Analyze("orders", {"o_clerk_group"}).status().code(),
            StatusCode::kDataLoss);
}

TEST(HeldStatsTest, ARewrittenTableIsNeverServedStaleStatistics) {
  Dfs dfs;
  Catalog catalog(&dfs);
  auto analyzed = [&catalog]() {
    auto analysis = catalog.Analyze("t", {"k"});
    EXPECT_TRUE(analysis.ok());
    return analysis.ok() ? (*analysis)->stats.columns.at("k").ndv : -1.0;
  };
  auto exact = [&catalog]() {
    auto stats = catalog.ExactStats("t", Lt(Col("k"), LitInt(1000)), {"k"});
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? stats->cardinality : -1.0;
  };
  ASSERT_TRUE(catalog.CreateTable("t", KeyRows(10)).ok());
  EXPECT_EQ(analyzed(), 10);
  EXPECT_EQ(exact(), 10);

  // Re-pointed at another file.
  ASSERT_TRUE(WriteRows(&dfs, "/tables/t2", KeyRows(20)).ok());
  ASSERT_TRUE(catalog.ReplaceTable("t", "/tables/t2").ok());
  EXPECT_EQ(analyzed(), 20);
  EXPECT_EQ(exact(), 20);

  // Deleted and re-created at the same path.
  ASSERT_TRUE(dfs.Delete("/tables/t2").ok());
  ASSERT_TRUE(WriteRows(&dfs, "/tables/t2", KeyRows(30)).ok());
  EXPECT_EQ(analyzed(), 30);
  EXPECT_EQ(exact(), 30);

  // Dropped and registered again under the same name.
  catalog.DropTable("t");
  ASSERT_TRUE(WriteRows(&dfs, "/tables/t3", KeyRows(40)).ok());
  ASSERT_TRUE(catalog.RegisterTable("t", "/tables/t3").ok());
  EXPECT_EQ(analyzed(), 40);
  EXPECT_EQ(exact(), 40);
}

TEST(HeldStatsTest, AUdfIsKnownByItsObjectNotItsName) {
  Dfs dfs;
  Catalog catalog(&dfs);
  ASSERT_TRUE(catalog.CreateTable("t", KeyRows(400)).ok());
  // One name, two selectivities: equal filter text, different rows kept.
  const ExprPtr few = MakeHashFilterUdf("keep", {"k"}, 0.1, 1.0);
  const ExprPtr most = MakeHashFilterUdf("keep", {"k"}, 0.9, 1.0);
  ASSERT_EQ(few->ToString(), most->ToString());
  auto cardinality = [&catalog](const ExprPtr& filter) {
    auto stats = catalog.ExactStats("t", filter, {"k"});
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? stats->cardinality : -1.0;
  };
  const double few_rows = cardinality(few);
  const double most_rows = cardinality(most);
  EXPECT_LT(few_rows, 100);
  EXPECT_GT(most_rows, 300);
  EXPECT_EQ(cardinality(few), few_rows);
  EXPECT_EQ(cardinality(most), most_rows);
}

TEST(HeldStatsTest, CatalogsWithEqualTableVersionsNeverShareFacts) {
  // Two DFS instances count write epochs from zero, so the same table
  // written at two scales has one TableVersion.
  Dfs small_dfs;
  Dfs large_dfs;
  Catalog small(&small_dfs);
  Catalog large(&large_dfs);
  ASSERT_TRUE(small.CreateTable("lineitem", KeyRows(10)).ok());
  ASSERT_TRUE(large.CreateTable("lineitem", KeyRows(30)).ok());
  ASSERT_EQ(small.TableVersion("lineitem"), large.TableVersion("lineitem"));
  for (int pass = 0; pass < 2; ++pass) {
    for (auto [catalog, rows] : {std::pair{&small, 10.0},
                                 std::pair{&large, 30.0}}) {
      auto analysis = catalog->Analyze("lineitem", {"k"});
      ASSERT_TRUE(analysis.ok());
      EXPECT_EQ((*analysis)->stats.cardinality, rows);
      auto stats = catalog->ExactStats("lineitem", nullptr, {"k"});
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->columns.at("k").ndv, rows);
    }
  }
}

TEST_F(BaselinesTest, RelOptSeesOnlyItsBlocksColumns) {
  // Another query has analyzed every column of every table: RELOPT still
  // hands the optimizer the same leaf statistics, so its plans and their
  // estimates are those of a catalog that analyzed nothing else.
  auto cold_catalog = FreshCatalog(&dfs_, catalog_);
  for (const std::string& name : catalog_.TableNames()) {
    auto file = catalog_.OpenTable(name);
    ASSERT_TRUE(file.ok());
    std::vector<Value> rows = MustReadAll(**file);
    ASSERT_FALSE(rows.empty());
    std::vector<std::string> columns;
    for (const auto& [column, value] : rows[0].fields()) {
      columns.push_back(column);
    }
    ASSERT_TRUE(catalog_.Analyze(name, columns).ok());
  }
  for (const Query& query :
       {MakeTpchQ2(), MakeTpchQ8Prime(), MakeTpchQ9Prime(), MakeTpchQ10()}) {
    RelOptBaseline warm(&engine_, &catalog_, Cost());
    RelOptBaseline cold(&engine_, cold_catalog.get(), Cost());
    auto warm_plan = warm.Plan(query.join_block);
    auto cold_plan = cold.Plan(query.join_block);
    ASSERT_TRUE(warm_plan.ok() && cold_plan.ok());
    EXPECT_EQ((*warm_plan)->ToTreeString(), (*cold_plan)->ToTreeString());
    EXPECT_EQ((*warm_plan)->est_cost, (*cold_plan)->est_cost);
  }

  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = Ge(Col("o_orderdate"), LitInt(19950101));
  leaf.join_columns = {"o_custkey"};
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  auto est = relopt.EstimateLeaf(leaf, {"o_custkey", "o_orderdate"});
  ASSERT_TRUE(est.ok());
  std::vector<std::string> carried;
  for (const auto& [column, stats] : est->columns) carried.push_back(column);
  EXPECT_EQ(carried, (std::vector<std::string>{"o_custkey", "o_orderdate"}));
}

TEST_F(BaselinesTest, RelOptPlansAndExecutesQ10) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  auto run = relopt.PlanAndExecute(MakeTpchQ10().join_block, ExecOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->exec_status.ok()) << run->exec_status.ToString();
  ASSERT_NE(run->output, nullptr);
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, MakeTpchQ10().join_block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(run->output->num_records(), oracle->size())
      << "RELOPT picks a different plan but must compute the same result";
}

TEST_F(BaselinesTest, JaqlPlanIsLeftDeepWithFileSizeBroadcasts) {
  BestStaticOptions options;
  options.cost = Cost();
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  JoinBlock block = MakeTpchQ10().join_block;
  auto plan = baseline.BuildJaqlPlan(block, {"c", "o", "l", "n"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Left-deep by construction.
  const PlanNode* node = plan->get();
  while (!node->IsLeaf()) {
    EXPECT_TRUE(node->right->IsLeaf());
    node = node->left.get();
  }
  EXPECT_EQ(node->relation_id, "c");
  // nation's raw file obviously fits -> its join must be broadcast.
  const PlanNode* top = plan->get();
  ASSERT_EQ(top->right->relation_id, "n");
  EXPECT_EQ(top->method, JoinMethod::kBroadcast);
}

TEST_F(BaselinesTest, JaqlPlanRejectsCartesianOrder) {
  BestStaticOptions options;
  options.cost = Cost();
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  JoinBlock block = MakeTpchQ10().join_block;
  // nation connects only through customer; starting l, n forces a
  // cartesian product at n.
  EXPECT_FALSE(baseline.BuildJaqlPlan(block, {"l", "n", "o", "c"}).ok());
}

TEST_F(BaselinesTest, BestStaticFindsCorrectAndCompetitivePlan) {
  BestStaticOptions options;
  options.cost = Cost();
  options.execute_top_k = 3;
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  JoinBlock block = MakeTpchQ10().join_block;
  auto result = baseline.Run(block);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->plans_enumerated, 1);
  EXPECT_GT(result->best_time_ms, 0);
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->output->num_records(), oracle->size());
}

/// lineitem ⋈ orders, unfiltered. With the cost model told tasks hold
/// 256 KiB, orders' file (~97 KB, ×1.5) passes Jaql's broadcast rule and
/// lineitem's does not, while the engine's 64 KiB tasks cannot hold orders.
JoinBlock OverMemoryBroadcastBlock() {
  JoinBlock block;
  block.tables = {{"lineitem", "l"}, {"orders", "o"}};
  block.edges = {{"l", "l_orderkey", "o", "o_orderkey"}};
  block.output_columns = {"l_orderkey", "o_custkey"};
  return block;
}

TEST_F(BaselinesTest, BestStaticCountsAnOverMemoryBroadcastAsFailed) {
  obs::TraceSink trace;
  engine_.set_trace(&trace);
  BestStaticOptions options;
  options.cost = Cost();
  options.cost.max_memory_bytes = 256 * 1024;
  options.execute_top_k = 10;
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  const JoinBlock block = OverMemoryBroadcastBlock();
  auto result = baseline.Run(block);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // (l *b o) dies of OutOfMemory, Jaql's behaviour: no repartition
  // fallback rescues it.
  EXPECT_EQ(result->plans_executed, 2);
  EXPECT_EQ(result->plans_failed, 1);
  EXPECT_EQ(result->best_plan, "(o *r l)");
  EXPECT_EQ(trace.SerializeJsonl().find("broadcast_fallback"),
            std::string::npos);
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->output->num_records(), oracle->size());
  engine_.set_trace(nullptr);
}

TEST_F(BaselinesTest, RelOptOverMemoryBroadcastFailsWithOutOfMemory) {
  CostModelParams cost = Cost();
  cost.max_memory_bytes = 256 * 1024;
  RelOptBaseline relopt(&engine_, &catalog_, cost);
  auto run = relopt.PlanAndExecute(OverMemoryBroadcastBlock(), ExecOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->plan_compact, "(l *b o)");
  EXPECT_EQ(run->exec_status.code(), StatusCode::kOutOfMemory)
      << run->exec_status.ToString();
  EXPECT_EQ(run->output, nullptr);
  EXPECT_EQ(run->jobs_run, 0);
}

TEST_F(BaselinesTest, SingleTableBlockReturnsItsFilteredProjection) {
  JoinBlock block;
  block.tables = {{"orders", "o"}};
  block.predicates = {{Ge(Col("o_orderdate"), LitInt(19950101)), {"o"}}};
  block.output_columns = {"o_orderkey"};
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, block);
  ASSERT_TRUE(oracle.ok());
  BestStaticOptions options;
  options.cost = Cost();
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  auto best = baseline.Run(block);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->output->num_records(), oracle->size());
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  auto run = relopt.PlanAndExecute(block, ExecOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->exec_status.ok()) << run->exec_status.ToString();
  EXPECT_EQ(run->output->num_records(), oracle->size());
  std::vector<Value> rows = MustReadAll(*run->output);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].FindField("o_custkey"), nullptr) << "not projected";
}

TEST_F(BaselinesTest, BestStaticEnumerationDedupesPlans) {
  BestStaticOptions options;
  options.cost = Cost();
  options.execute_top_k = 1;
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  // Q2: 5 relations, many orders map to the same physical plan.
  auto result = baseline.Run(MakeTpchQ2().join_block);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->plans_enumerated, 0);
  EXPECT_LT(result->plans_enumerated, 120)
      << "dedup must collapse equivalent orders";
}

/// One TPC-H instance on the benches' paper-style cluster, with fault
/// injection off whatever the environment says.
struct PaperScenario {
  explicit PaperScenario(ClusterConfig cluster = Cluster())
      : catalog(&dfs), engine(&dfs, cluster) {
    TpchConfig config;
    config.scale = 0.002;
    config.split_bytes = 2 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog, config).ok());
  }

  static ClusterConfig Cluster() {
    ClusterConfig cluster;
    cluster.job_startup_ms = 5000;
    cluster.memory_per_task_bytes = 64 * 1024;
    cluster.map_read_bytes_per_ms = 2.0;
    cluster.map_write_bytes_per_ms = 2.0;
    cluster.reduce_read_bytes_per_ms = 4.0;
    cluster.reduce_write_bytes_per_ms = 4.0;
    // Side data loads slower than the benches' 100 bytes/ms, so Q9' first
    // materializes its UDF-filtered supplier with a filter job before
    // broadcasting it, and a replay must account for that job's time too.
    cluster.side_load_bytes_per_ms = 1.0;
    cluster.cpu_units_per_ms = 500.0;
    cluster.faults.use_env_defaults = false;
    return cluster;
  }

  /// Runs BESTSTATIC over its top 5 candidates; `elapsed` gets the engine
  /// clock's advance over the whole run.
  BestStaticResult RunBestStatic(const JoinBlock& block, bool hive,
                                 SimMillis* elapsed) {
    BestStaticOptions options;
    options.cost.max_memory_bytes = engine.config().memory_per_task_bytes;
    options.cost.memory_factor = engine.config().broadcast_memory_factor;
    options.cost.c_job = 200000.0;
    options.execute_top_k = 5;
    options.exec.hive_broadcast = hive;
    BestStaticBaseline baseline(&engine, &catalog, options);
    const SimMillis start = engine.now();
    auto result = baseline.Run(block);
    *elapsed = engine.now() - start;
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : BestStaticResult();
  }

  Dfs dfs;
  Catalog catalog;
  MapReduceEngine engine;
};

void ExpectSameRows(std::vector<Value> got, std::vector<Value> want) {
  SortRowsForComparison(&got);
  SortRowsForComparison(&want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].Compare(want[i]), 0) << "row " << i;
  }
}

TEST(BestStaticReplayTest, ReplayMatchesExecutingEveryUnit) {
  // The reference twin has identical data and config, but a pass-through
  // submit gate, so it executes every unit of every candidate.
  PaperScenario replaying;
  PaperScenario reference;
  MapReduceEngine* ref_engine = &reference.engine;
  ref_engine->set_submit_gate([ref_engine](std::vector<JobSpec> specs) {
    return ref_engine->SubmitAllDirect(specs);
  });
  struct Case {
    const char* name;
    JoinBlock block;
    bool shares_units;  ///< Whether its top 5 candidates share a unit.
  };
  // Q2's top 5 share no unit at this scale. Every unit Q9' replays starts
  // with the broadcast of its filtered supplier.
  const std::vector<Case> cases = {
      {"Q2", MakeTpchQ2().join_block, false},
      {"Q10", MakeTpchQ10().join_block, true},
      {"Q9'", MakeTpchQ9Prime().join_block, true}};
  for (bool hive : {false, true}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(hive ? "hive " : "jaql ") + c.name);
      SimMillis replay_ms = 0;
      SimMillis ref_ms = 0;
      BestStaticResult got =
          replaying.RunBestStatic(c.block, hive, &replay_ms);
      BestStaticResult want = reference.RunBestStatic(c.block, hive, &ref_ms);
      ASSERT_NE(got.output, nullptr);
      ASSERT_NE(want.output, nullptr);
      EXPECT_EQ(got.units_replayed > 0, c.shares_units);
      EXPECT_EQ(want.units_replayed, 0);
      EXPECT_EQ(got.best_time_ms, want.best_time_ms);
      EXPECT_EQ(got.best_plan, want.best_plan);
      EXPECT_EQ(replay_ms, ref_ms);
      ExpectSameRows(MustReadAll(*got.output), MustReadAll(*want.output));
    }
  }
}

TEST(BestStaticReplayTest, FaultInjectionDisablesReplay) {
  ClusterConfig task_faults = PaperScenario::Cluster();
  task_faults.faults.task_failure_rate = 0.05;
  ClusterConfig node_crash = PaperScenario::Cluster();
  node_crash.faults.scripted_node_crashes = {{/*at_ms=*/20000, /*node=*/0}};
  for (const ClusterConfig& cluster : {task_faults, node_crash}) {
    PaperScenario scenario(cluster);
    JoinBlock block = MakeTpchQ10().join_block;
    SimMillis elapsed = 0;
    BestStaticResult result =
        scenario.RunBestStatic(block, /*hive=*/false, &elapsed);
    ASSERT_NE(result.output, nullptr);
    EXPECT_EQ(result.units_replayed, 0);
    auto oracle = NaiveEvaluateJoinBlock(&scenario.catalog, block);
    ASSERT_TRUE(oracle.ok());
    ExpectSameRows(MustReadAll(*result.output), std::move(oracle).value());
  }
}

}  // namespace
}  // namespace dyno
