#include "exec/plan_executor.h"

#include <gtest/gtest.h>

#include "exec/aggregates.h"
#include "exec/broadcast.h"
#include "exec/row_ops.h"
#include "test_util.h"

namespace dyno {
namespace {

// --- row ops ---

TEST(RowOpsTest, EncodeJoinKeyStableAndDiscriminating) {
  Value r1 = MakeRow({{"a", Value::Int(1)}, {"b", Value::String("x")}});
  Value r2 = MakeRow({{"a", Value::Int(1)}, {"b", Value::String("x")}});
  Value r3 = MakeRow({{"a", Value::Int(2)}, {"b", Value::String("x")}});
  EXPECT_EQ(EncodeJoinKey(r1, {"a", "b"}), EncodeJoinKey(r2, {"a", "b"}));
  EXPECT_NE(EncodeJoinKey(r1, {"a", "b"}), EncodeJoinKey(r3, {"a", "b"}));
  EXPECT_EQ(EncodeJoinKey(r1, {"missing"}), EncodeJoinKey(r3, {"missing"}));
}

TEST(RowOpsTest, MergeRowsKeepsLeftOnDuplicate) {
  Value left = MakeRow({{"a", Value::Int(1)}, {"shared", Value::Int(10)}});
  Value right = MakeRow({{"b", Value::Int(2)}, {"shared", Value::Int(20)}});
  Value merged = MergeRows(left, right);
  EXPECT_EQ(merged.FindField("a")->int_value(), 1);
  EXPECT_EQ(merged.FindField("b")->int_value(), 2);
  EXPECT_EQ(merged.FindField("shared")->int_value(), 10);
  EXPECT_EQ(merged.fields().size(), 3u);
}

TEST(RowOpsTest, ProjectRowKeepsOrderDropsMissing) {
  Value row = MakeRow({{"a", Value::Int(1)}, {"b", Value::Int(2)}});
  Value proj = ProjectRow(row, {"b", "zzz", "a"});
  ASSERT_EQ(proj.fields().size(), 2u);
  EXPECT_EQ(proj.fields()[0].first, "b");
  EXPECT_EQ(proj.fields()[1].first, "a");
}

// --- broadcast table ---

TEST(BroadcastTest, BuildAppliesFilterAndKeys) {
  Dfs dfs;
  std::vector<Value> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(MakeRow({{"k", Value::Int(i % 10)},
                            {"keep", Value::Int(i % 2)}}));
  }
  auto file = WriteRows(&dfs, "/t", rows);
  ASSERT_TRUE(file.ok());
  auto table = BuildBroadcastTable(**file, Eq(Col("keep"), LitInt(1)), {"k"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows, 50u);
  // Rows with keep==1 are the odd ones, so only odd keys remain.
  EXPECT_EQ((*table)->rows_by_key.size(), 5u);
  EXPECT_EQ((*table)->load_bytes, (*file)->num_bytes());
  EXPECT_LT((*table)->built_bytes, (*file)->num_bytes());
}

// --- decomposition ---

std::unique_ptr<PlanNode> BushyPlan() {
  // (a *r b) *r (c *b d)
  auto ab = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                           PlanNode::Leaf("b"), {{"x", "x"}});
  auto cd = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("c"),
                           PlanNode::Leaf("d"), {{"y", "y"}});
  return PlanNode::Join(JoinMethod::kRepartition, std::move(ab),
                        std::move(cd), {{"z", "z"}});
}

TEST(DecomposeTest, BushyPlanYieldsThreeUnits) {
  auto plan = BushyPlan();
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  ASSERT_EQ(units->size(), 3u);
  // Children come before parents.
  EXPECT_TRUE((*units)[0].IsLeafJob());
  EXPECT_TRUE((*units)[1].IsLeafJob());
  EXPECT_FALSE((*units)[2].IsLeafJob());
  EXPECT_FALSE((*units)[0].map_only);
  EXPECT_TRUE((*units)[1].map_only);
  EXPECT_EQ((*units)[2].inputs.size(), 2u);
}

TEST(DecomposeTest, ChainCollapsesIntoOneUnit) {
  // ((probe *b s1) *b s2) with the chain flag on the top node.
  auto j1 = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("probe"),
                           PlanNode::Leaf("s1"), {{"a", "a"}});
  auto j2 = PlanNode::Join(JoinMethod::kBroadcast, std::move(j1),
                           PlanNode::Leaf("s2"), {{"b", "b"}});
  j2->chain_with_left = true;
  auto units = PlanExecutor::Decompose(*j2);
  ASSERT_TRUE(units.ok());
  ASSERT_EQ(units->size(), 1u);
  const JobUnit& unit = (*units)[0];
  EXPECT_TRUE(unit.map_only);
  EXPECT_EQ(unit.nodes.size(), 2u);
  ASSERT_EQ(unit.inputs.size(), 3u);
  EXPECT_EQ(unit.inputs[0].leaf_id, "probe");
  EXPECT_EQ(unit.inputs[1].leaf_id, "s1");
  EXPECT_EQ(unit.inputs[2].leaf_id, "s2");
  EXPECT_EQ(unit.uncertainty, 2);
}

TEST(DecomposeTest, LeafPlanYieldsNoUnits) {
  auto leaf = PlanNode::Leaf("a");
  auto units = PlanExecutor::Decompose(*leaf);
  ASSERT_TRUE(units.ok());
  EXPECT_TRUE(units->empty());
}

TEST(DecomposeTest, ChainOnRepartitionRejected) {
  auto j1 = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                           PlanNode::Leaf("b"), {{"x", "x"}});
  auto j2 = PlanNode::Join(JoinMethod::kRepartition, std::move(j1),
                           PlanNode::Leaf("c"), {{"y", "y"}});
  j2->chain_with_left = true;
  EXPECT_FALSE(PlanExecutor::Decompose(*j2).ok());
}

// --- execution ---

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : engine_(&dfs_, MakeConfig()) {}

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 500;
    config.memory_per_task_bytes = 16 * 1024;
    return config;
  }

  void BindTable(PlanExecutor* executor, const std::string& id, int rows,
                 int key_mod, ExprPtr filter = nullptr) {
    std::vector<Value> data;
    for (int i = 0; i < rows; ++i) {
      data.push_back(MakeRow({{id + "_id", Value::Int(i)},
                              {id + "_k", Value::Int(i % key_mod)},
                              {id + "_v", Value::String("val")}}));
    }
    auto file = WriteRows(&dfs_, "/tables/" + id, data, 2048);
    ASSERT_TRUE(file.ok());
    RelationBinding binding;
    binding.file = *file;
    binding.scan_filter = std::move(filter);
    executor->Bind(id, std::move(binding));
  }

  Dfs dfs_;
  MapReduceEngine engine_;
};

TEST_F(ExecutorTest, RepartitionJoinProducesCorrectRows) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 60, 10);
  BindTable(&executor, "b", 30, 10);
  auto plan = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  // Each of the 60 a-rows matches 3 b-rows (30 rows over 10 key values).
  EXPECT_EQ(step->job.counters.output_records, 180u);
  EXPECT_DOUBLE_EQ(step->stats.cardinality, 180.0);
}

TEST_F(ExecutorTest, BroadcastJoinMatchesRepartitionJoin) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 80, 8);
  BindTable(&executor, "b", 16, 8);
  auto run = [&](JoinMethod method) -> uint64_t {
    auto plan = PlanNode::Join(method, PlanNode::Leaf("a"),
                               PlanNode::Leaf("b"), {{"a_k", "b_k"}});
    auto units = PlanExecutor::Decompose(*plan);
    EXPECT_TRUE(units.ok());
    PlanExecutor::UnitRequest request;
    request.unit = &(*units)[0];
    auto step = executor.ExecuteOne(request);
    EXPECT_TRUE(step.ok()) << step.status().ToString();
    return step->job.counters.output_records;
  };
  EXPECT_EQ(run(JoinMethod::kBroadcast), run(JoinMethod::kRepartition));
}

TEST_F(ExecutorTest, ScanFiltersAppliedOnBothSides) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 100, 10, Lt(Col("a_id"), LitInt(50)));
  BindTable(&executor, "b", 40, 10, Lt(Col("b_id"), LitInt(20)));
  auto plan = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok());
  // 50 a-rows (5 per key) x 20 b-rows (2 per key) over 10 keys = 100.
  EXPECT_EQ(step->job.counters.output_records, 100u);
}

TEST_F(ExecutorTest, PostFilterAppliedAtJoin) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 40, 4);
  BindTable(&executor, "b", 8, 4);
  auto plan = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  plan->post_filter = Lt(Col("a_id"), LitInt(10));
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok());
  // Without filter: 40*2=80; with a_id<10: 10 a-rows x 2 = 20.
  EXPECT_EQ(step->job.counters.output_records, 20u);
}

TEST_F(ExecutorTest, ProjectionShrinksOutput) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 20, 4);
  BindTable(&executor, "b", 8, 4);
  auto plan = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  request.projection = {"a_id", "b_id"};
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok());
  auto rows = ReadAllRows(*step->job.output);
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  EXPECT_EQ((*rows)[0].fields().size(), 2u);
}

TEST_F(ExecutorTest, ChainedBroadcastExecutesInOneMapOnlyJob) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "probe", 100, 5);
  BindTable(&executor, "s1", 10, 5);
  BindTable(&executor, "s2", 5, 5);
  auto j1 = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("probe"),
                           PlanNode::Leaf("s1"), {{"probe_k", "s1_k"}});
  auto j2 = PlanNode::Join(JoinMethod::kBroadcast, std::move(j1),
                           PlanNode::Leaf("s2"), {{"probe_k", "s2_k"}});
  j2->chain_with_left = true;
  auto units = PlanExecutor::Decompose(*j2);
  ASSERT_TRUE(units.ok());
  ASSERT_EQ(units->size(), 1u);
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  // 100 probe rows x 2 matches in s1 x 1 match in s2.
  EXPECT_EQ(step->job.counters.output_records, 200u);
  EXPECT_EQ(step->job.reduce_tasks_run, 0) << "chain must be map-only";
}

TEST_F(ExecutorTest, BroadcastOomFailsExecution) {
  ClusterConfig config = MakeConfig();
  config.memory_per_task_bytes = 64;  // absurdly small
  MapReduceEngine engine(&dfs_, config);
  PlanExecutor executor(&engine, ExecOptions());
  BindTable(&executor, "a", 50, 5);
  BindTable(&executor, "b", 50, 5);
  auto plan = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  auto step = executor.ExecuteOne(request);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(ExecutorTest, StatsColumnsCollectedOnOutput) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 60, 6);
  BindTable(&executor, "b", 12, 6);
  auto plan = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  request.stats_columns = {"a_id"};
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok());
  ASSERT_TRUE(step->stats.columns.count("a_id"));
  EXPECT_NEAR(step->stats.columns.at("a_id").ndv, 60.0, 2.0);
  EXPECT_GT(step->job.observer_overhead_ms, 0);
}

TEST_F(ExecutorTest, UnboundRelationFails) {
  PlanExecutor executor(&engine_, ExecOptions());
  auto plan = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                             PlanNode::Leaf("b"), {{"x", "x"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  EXPECT_FALSE(executor.ExecuteOne(request).ok());
}

TEST_F(ExecutorTest, BuildSideFailureFailsOnlyItsOwnRequest) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 40, 4);
  BindTable(&executor, "b", 8, 4);
  BindTable(&executor, "c", 8, 4);
  auto rotten = dfs_.Open("/tables/c");
  ASSERT_TRUE(rotten.ok());
  ASSERT_TRUE((*rotten)->CorruptByteForTesting(0, 0, 0x01).ok());
  auto ac = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("a"),
                           PlanNode::Leaf("c"), {{"a_k", "c_k"}});
  auto ab = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("a"),
                           PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto ac_units = PlanExecutor::Decompose(*ac);
  auto ab_units = PlanExecutor::Decompose(*ab);
  ASSERT_TRUE(ac_units.ok());
  ASSERT_TRUE(ab_units.ok());
  PlanExecutor::UnitRequest bad;
  bad.unit = &(*ac_units)[0];
  PlanExecutor::UnitRequest good;
  good.unit = &(*ab_units)[0];
  auto steps = executor.Execute({bad, good});
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  ASSERT_EQ(steps->size(), 2u);
  EXPECT_EQ((*steps)[0].status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(executor.OutputOf(bad.unit->uid).ok());
  ASSERT_TRUE((*steps)[1].status.ok()) << (*steps)[1].status.ToString();
  // Each of the 40 a-rows matches 2 b-rows (8 rows over 4 key values).
  EXPECT_EQ((*steps)[1].job.counters.output_records, 80u);
  EXPECT_TRUE(executor.OutputOf(good.unit->uid).ok());
}

TEST_F(ExecutorTest, MultiUnitPipelineThroughOutputs) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 40, 4);
  BindTable(&executor, "b", 8, 4);
  BindTable(&executor, "c", 12, 4);
  // (a *r b) *r c — two units; the second consumes the first's output.
  auto ab = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("a"),
                           PlanNode::Leaf("b"), {{"a_k", "b_k"}});
  auto plan = PlanNode::Join(JoinMethod::kRepartition, std::move(ab),
                             PlanNode::Leaf("c"), {{"a_k", "c_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  ASSERT_EQ(units->size(), 2u);
  PlanExecutor::UnitRequest first;
  first.unit = &(*units)[0];
  ASSERT_TRUE(executor.ExecuteOne(first).ok());
  PlanExecutor::UnitRequest second;
  second.unit = &(*units)[1];
  auto step = executor.ExecuteOne(second);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  // 40*2=80 ab-rows, each matching 3 c-rows = 240.
  EXPECT_EQ(step->job.counters.output_records, 240u);
}

// --- aggregates ---

TEST_F(ExecutorTest, GroupByAggregations) {
  std::vector<Value> rows;
  for (int i = 0; i < 90; ++i) {
    rows.push_back(MakeRow({{"g", Value::Int(i % 3)},
                            {"v", Value::Double(i)}}));
  }
  auto file = WriteRows(&dfs_, "/gb_in", rows);
  ASSERT_TRUE(file.ok());
  GroupBySpec spec;
  spec.keys = {"g"};
  spec.aggregates = {{Aggregate::Kind::kCount, "", "n"},
                     {Aggregate::Kind::kSum, "v", "sum_v"},
                     {Aggregate::Kind::kMin, "v", "min_v"},
                     {Aggregate::Kind::kMax, "v", "max_v"},
                     {Aggregate::Kind::kAvg, "v", "avg_v"}};
  auto result = RunGroupBy(&engine_, *file, spec, "/gb_out");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto out = ReadAllRows(*result->output);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  for (const Value& row : *out) {
    int64_t g = row.FindField("g")->int_value();
    EXPECT_EQ(row.FindField("n")->int_value(), 30);
    EXPECT_DOUBLE_EQ(row.FindField("min_v")->AsDouble(),
                     static_cast<double>(g));
    EXPECT_DOUBLE_EQ(row.FindField("max_v")->AsDouble(),
                     static_cast<double>(87 + g));
    EXPECT_NEAR(row.FindField("avg_v")->AsDouble(),
                row.FindField("sum_v")->AsDouble() / 30.0, 1e-9);
  }
}

TEST_F(ExecutorTest, OrderByWithLimitAndDesc) {
  std::vector<Value> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(MakeRow({{"v", Value::Int((i * 37) % 50)}}));
  }
  auto file = WriteRows(&dfs_, "/ob_in", rows);
  ASSERT_TRUE(file.ok());
  OrderBySpec spec;
  spec.keys = {{"v", /*desc=*/true}};
  spec.limit = 10;
  auto result = RunOrderBy(&engine_, *file, spec, "/ob_out");
  ASSERT_TRUE(result.ok());
  auto out = ReadAllRows(*result->output);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 10u);
  EXPECT_EQ((*out)[0].FindField("v")->int_value(), 49);
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_GE((*out)[i - 1].FindField("v")->int_value(),
              (*out)[i].FindField("v")->int_value());
  }
}


TEST_F(ExecutorTest, GroupByCombinerMatchesPlainAndShrinksShuffle) {
  // Heavy duplication: 3000 rows over 6 groups. The combiner must produce
  // identical results while shipping orders of magnitude fewer shuffle
  // records.
  std::vector<Value> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back(MakeRow({{"g", Value::Int(i % 6)},
                            {"v", Value::Double(i % 101)},
                            {"w", Value::Int(i % 13)}}));
  }
  auto file = WriteRows(&dfs_, "/cmb_in", rows);
  ASSERT_TRUE(file.ok());
  GroupBySpec spec;
  spec.keys = {"g"};
  spec.aggregates = {{Aggregate::Kind::kCount, "", "n"},
                     {Aggregate::Kind::kSum, "v", "s"},
                     {Aggregate::Kind::kAvg, "v", "a"},
                     {Aggregate::Kind::kMin, "w", "lo"},
                     {Aggregate::Kind::kMax, "w", "hi"}};
  auto plain = RunGroupBy(&engine_, *file, spec, "/cmb_plain",
                          /*use_combiner=*/false);
  auto combined = RunGroupBy(&engine_, *file, spec, "/cmb_comb",
                             /*use_combiner=*/true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();

  auto plain_rows = ReadAllRows(*plain->output);
  auto combined_rows = ReadAllRows(*combined->output);
  ASSERT_TRUE(plain_rows.ok());
  ASSERT_TRUE(combined_rows.ok());
  SortRowsForComparison(&*plain_rows);
  SortRowsForComparison(&*combined_rows);
  ASSERT_EQ(plain_rows->size(), combined_rows->size());
  for (size_t i = 0; i < plain_rows->size(); ++i) {
    const Value& p = (*plain_rows)[i];
    const Value& c = (*combined_rows)[i];
    EXPECT_EQ(p.FindField("g")->int_value(), c.FindField("g")->int_value());
    EXPECT_EQ(p.FindField("n")->int_value(), c.FindField("n")->int_value());
    EXPECT_NEAR(p.FindField("s")->AsDouble(), c.FindField("s")->AsDouble(),
                1e-6);
    EXPECT_NEAR(p.FindField("a")->AsDouble(), c.FindField("a")->AsDouble(),
                1e-9);
    EXPECT_EQ(p.FindField("lo")->int_value(),
              c.FindField("lo")->int_value());
    EXPECT_EQ(p.FindField("hi")->int_value(),
              c.FindField("hi")->int_value());
  }
  EXPECT_LT(combined->counters.map_output_records,
            plain->counters.map_output_records / 10)
      << "combiner must collapse per-task duplicates before the shuffle";
  EXPECT_LT(combined->counters.map_output_bytes,
            plain->counters.map_output_bytes);
}

TEST_F(ExecutorTest, GroupByCombinerHandlesAllNullColumn) {
  std::vector<Value> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(MakeRow({{"g", Value::Int(i % 2)}}));  // no "v" at all
  }
  auto file = WriteRows(&dfs_, "/cmb_null", rows);
  ASSERT_TRUE(file.ok());
  GroupBySpec spec;
  spec.keys = {"g"};
  spec.aggregates = {{Aggregate::Kind::kAvg, "v", "a"},
                     {Aggregate::Kind::kMin, "v", "lo"},
                     {Aggregate::Kind::kCount, "", "n"}};
  auto result = RunGroupBy(&engine_, *file, spec, "/cmb_null_out");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto out = ReadAllRows(*result->output);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  for (const Value& row : *out) {
    EXPECT_TRUE(row.FindField("a")->is_null());
    EXPECT_TRUE(row.FindField("lo")->is_null());
    EXPECT_EQ(row.FindField("n")->int_value(), 20);
  }
}

}  // namespace
}  // namespace dyno
