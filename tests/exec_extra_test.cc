// Additional executor coverage: per-step statuses, build-side
// materialization, Hive-mode billing through the executor, unit-output
// registration, and DOT rendering.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "exec/plan_executor.h"
#include "storage/dfs.h"

namespace dyno {
namespace {

class ExecExtraTest : public ::testing::Test {
 protected:
  ExecExtraTest() : engine_(&dfs_, MakeConfig()) {}

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 1000;
    config.memory_per_task_bytes = 32 * 1024;
    config.map_slots = 4;  // several waves over the probe
    return config;
  }

  void BindTable(PlanExecutor* executor, const std::string& id, int rows,
                 int key_mod, ExprPtr filter = nullptr,
                 uint64_t split_bytes = 1024) {
    std::vector<Value> data;
    for (int i = 0; i < rows; ++i) {
      data.push_back(MakeRow({{id + "_id", Value::Int(i)},
                              {id + "_k", Value::Int(i % key_mod)},
                              {id + "_pad",
                               Value::String(std::string(30, 'p'))}}));
    }
    auto file = WriteRows(&dfs_, "/tables/" + id, data, split_bytes);
    ASSERT_TRUE(file.ok());
    RelationBinding binding;
    binding.file = *file;
    binding.scan_filter = filter;
    binding.scan_cpu_per_record = filter ? filter->CpuCost() : 0.0;
    executor->Bind(id, std::move(binding));
  }

  Dfs dfs_;
  MapReduceEngine engine_;
};

TEST_F(ExecExtraTest, ExecuteReportsPerStepStatusWithoutFailingSiblings) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "a", 100, 10);
  BindTable(&executor, "big", 800, 10);  // way over 32K memory
  BindTable(&executor, "c", 40, 10);
  BindTable(&executor, "d", 8, 10);

  // Unit 1: an infeasible broadcast (build side too big). Unit 2: a fine
  // broadcast. One Execute call must return one failure and one success.
  auto bad = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("a"),
                            PlanNode::Leaf("big"), {{"a_k", "big_k"}});
  auto good = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("c"),
                             PlanNode::Leaf("d"), {{"c_k", "d_k"}});
  auto bad_units = PlanExecutor::Decompose(*bad);
  auto good_units = PlanExecutor::Decompose(*good);
  ASSERT_TRUE(bad_units.ok());
  ASSERT_TRUE(good_units.ok());

  PlanExecutor::UnitRequest bad_request;
  bad_request.unit = &(*bad_units)[0];
  PlanExecutor::UnitRequest good_request;
  good_request.unit = &(*good_units)[0];
  auto steps = executor.Execute({bad_request, good_request});
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  ASSERT_EQ(steps->size(), 2u);
  EXPECT_EQ((*steps)[0].status.code(), StatusCode::kOutOfMemory);
  EXPECT_TRUE((*steps)[1].status.ok()) << (*steps)[1].status.ToString();
  // c keys 0..9 vs d keys 0..7: the 8 c-rows with keys 8/9 have no match.
  EXPECT_EQ((*steps)[1].job.counters.output_records, 32u);
}

TEST_F(ExecExtraTest, MaterializeFilteredLeafRebinds) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "t", 500, 10, Lt(Col("t_id"), LitInt(50)));
  auto before = executor.GetBinding("t");
  ASSERT_TRUE(before.ok());
  ASSERT_NE(before->scan_filter, nullptr);
  uint64_t raw_bytes = before->file->num_bytes();

  ASSERT_TRUE(executor.MaterializeFilteredLeaf("t").ok());
  auto after = executor.GetBinding("t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->scan_filter, nullptr);
  EXPECT_EQ(after->file->num_records(), 50u);
  EXPECT_LT(after->file->num_bytes(), raw_bytes);
  EXPECT_EQ(after->signature, before->signature);

  // Idempotent on an unfiltered binding.
  ASSERT_TRUE(executor.MaterializeFilteredLeaf("t").ok());
  auto again = executor.GetBinding("t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->file->num_records(), 50u);
}

TEST_F(ExecExtraTest, SelectiveBuildIsAutoMaterializedDuringBroadcast) {
  // Probe spans many waves and the build's raw file dwarfs its filtered
  // size: the executor should insert a filter job and side-load the small
  // result. Observable through the rebinding of the build leaf.
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "probe", 3000, 50, nullptr, /*split_bytes=*/512);
  BindTable(&executor, "build", 600, 50, Lt(Col("build_id"), LitInt(50)));

  auto plan = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("probe"),
                             PlanNode::Leaf("build"),
                             {{"probe_k", "build_k"}});
  auto units = PlanExecutor::Decompose(*plan);
  ASSERT_TRUE(units.ok());
  PlanExecutor::UnitRequest request;
  request.unit = &(*units)[0];
  auto step = executor.ExecuteOne(request);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  auto rebound = executor.GetBinding("build");
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(rebound->scan_filter, nullptr)
      << "build leaf must have been materialized and rebound";
  EXPECT_EQ(rebound->file->num_records(), 50u);
  // Join result: 3000 probe rows x (50 build rows over 50 keys = 1 each).
  EXPECT_EQ(step->job.counters.output_records, 3000u);
}

TEST_F(ExecExtraTest, HiveModeIsFasterForBroadcastHeavyJobs) {
  auto run = [&](bool hive) -> SimMillis {
    ExecOptions options;
    options.hive_broadcast = hive;
    PlanExecutor executor(&engine_, options);
    BindTable(&executor, std::string("p") + (hive ? "h" : "j"), 3000, 20,
              nullptr, 512);
    BindTable(&executor, std::string("b") + (hive ? "h" : "j"), 250, 20);
    auto plan = PlanNode::Join(
        JoinMethod::kBroadcast,
        PlanNode::Leaf(std::string("p") + (hive ? "h" : "j")),
        PlanNode::Leaf(std::string("b") + (hive ? "h" : "j")),
        {{std::string("p") + (hive ? "h" : "j") + "_k",
          std::string("b") + (hive ? "h" : "j") + "_k"}});
    auto units = PlanExecutor::Decompose(*plan);
    EXPECT_TRUE(units.ok());
    PlanExecutor::UnitRequest request;
    request.unit = &(*units)[0];
    SimMillis start = engine_.now();
    auto step = executor.ExecuteOne(request);
    EXPECT_TRUE(step.ok()) << step.status().ToString();
    return engine_.now() - start;
  };
  SimMillis jaql = run(false);
  SimMillis hive = run(true);
  EXPECT_LT(hive, jaql)
      << "DistributedCache mode must amortize per-wave build loads";
}

TEST_F(ExecExtraTest, RegisterUnitOutputResolvesForDependants) {
  PlanExecutor executor(&engine_, ExecOptions());
  BindTable(&executor, "x", 20, 4);
  RelationBinding binding;
  binding.file = executor.GetBinding("x")->file;
  executor.Bind("substitute", std::move(binding));
  executor.RegisterUnitOutput(4242, "substitute");
  JobInput input;
  input.unit_uid = 4242;
  auto resolved = executor.ResolveInput(input);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, "substitute");
  JobInput missing;
  missing.unit_uid = 999999;
  EXPECT_FALSE(executor.ResolveInput(missing).ok());
}

}  // namespace
}  // namespace dyno
