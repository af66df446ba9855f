#include "mr/engine.h"

#include <gtest/gtest.h>

#include "storage/dfs.h"

namespace dyno {
namespace {

Value Row(int64_t id, int64_t group) {
  return MakeRow({{"id", Value::Int(id)}, {"g", Value::Int(group)}});
}

class MrEngineTest : public ::testing::Test {
 protected:
  MrEngineTest() : engine_(&dfs_, MakeConfig()) {}

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 1000;
    config.map_slots = 4;
    config.reduce_slots = 2;
    return config;
  }

  std::shared_ptr<DfsFile> MakeInput(int rows, const std::string& path,
                                     uint64_t split_bytes = 128) {
    std::vector<Value> data;
    for (int i = 0; i < rows; ++i) data.push_back(Row(i, i % 3));
    auto file = WriteRows(&dfs_, path, data, split_bytes);
    EXPECT_TRUE(file.ok());
    return *file;
  }

  Dfs dfs_;
  MapReduceEngine engine_;
};

TEST_F(MrEngineTest, MapOnlyJobProducesOutput) {
  auto input = MakeInput(100, "/in");
  JobSpec spec;
  spec.name = "copy";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {mi};
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  EXPECT_EQ(result->counters.map_input_records, 100u);
  EXPECT_EQ(result->counters.output_records, 100u);
  EXPECT_EQ(result->output->num_records(), 100u);
  EXPECT_EQ(result->reduce_tasks_run, 0);
  EXPECT_GT(result->map_tasks_run, 1);
  EXPECT_GE(result->Elapsed(), 1000) << "startup latency must be charged";
}

TEST_F(MrEngineTest, MapReduceGroupsByKey) {
  auto input = MakeInput(90, "/in");
  JobSpec spec;
  spec.name = "count-by-group";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("g"), record);
    return Status::OK();
  };
  spec.inputs = {mi};
  spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow({{"g", key},
                         {"n", Value::Int(static_cast<int64_t>(
                                   values.size()))}}));
    return Status::OK();
  };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  auto rows = ReadAllRows(*result->output);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  int64_t total = 0;
  for (const Value& row : *rows) total += row.FindField("n")->int_value();
  EXPECT_EQ(total, 90);
  EXPECT_GT(result->reduce_tasks_run, 0);
}

TEST_F(MrEngineTest, ReduceValuesArriveGroupedOnce) {
  // Each key must be passed to the reduce function exactly once.
  auto input = MakeInput(60, "/in");
  JobSpec spec;
  spec.name = "unique-keys";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("g"), Value::Int(1));
    return Status::OK();
  };
  spec.inputs = {mi};
  spec.num_reduce_tasks = 2;
  spec.reduce_fn = [](const Value& key, const std::vector<Value>&,
                      ReduceContext* ctx) -> Status {
    ctx->Output(key);
    return Status::OK();
  };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  auto rows = ReadAllRows(*result->output);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u) << "3 distinct keys -> 3 reduce invocations";
}

TEST_F(MrEngineTest, StopConditionSkipsRemainingTasks) {
  auto input = MakeInput(200, "/in", /*split_bytes=*/64);
  ASSERT_GT(input->splits().size(), 8u);
  int produced = 0;
  JobSpec spec;
  spec.name = "limited";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [&produced](const Value& record, MapContext* ctx) -> Status {
    ++produced;
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {mi};
  spec.stop_condition = [&produced]() { return produced >= 10; };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  EXPECT_GT(result->map_tasks_skipped, 0);
  EXPECT_LT(result->counters.output_records, 200u);
  EXPECT_GE(result->counters.output_records, 10u);
}

TEST_F(MrEngineTest, BroadcastMemoryCheckFailsJob) {
  auto input = MakeInput(10, "/in");
  JobSpec spec;
  spec.name = "oom";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {mi};
  spec.side_memory_bytes = engine_.config().memory_per_task_bytes * 2;
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(result->output, nullptr);
  EXPECT_FALSE(dfs_.Exists("/out")) << "failed job output must be cleaned";
}

TEST_F(MrEngineTest, MapErrorFailsJob) {
  auto input = MakeInput(10, "/in");
  JobSpec spec;
  spec.name = "bad";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value&, MapContext*) -> Status {
    return Status::Internal("boom");
  };
  spec.inputs = {mi};
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
}

TEST_F(MrEngineTest, ParallelJobsShareClusterAndAllFinish) {
  auto in1 = MakeInput(50, "/in1");
  auto in2 = MakeInput(50, "/in2");
  auto copy = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  JobSpec a;
  a.name = "a";
  a.output_path = "/outa";
  a.inputs = {{in1, {}, copy, 1.0, {}}};
  JobSpec b;
  b.name = "b";
  b.output_path = "/outb";
  b.inputs = {{in2, {}, copy, 1.0, {}}};
  auto results = engine_.SubmitAll({a, b});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_TRUE((*results)[0].status.ok());
  EXPECT_TRUE((*results)[1].status.ok());
  EXPECT_EQ((*results)[0].output->num_records(), 50u);
  EXPECT_EQ((*results)[1].output->num_records(), 50u);
}

TEST_F(MrEngineTest, ParallelSubmissionIsFasterThanSerial) {
  // Two jobs submitted together pay overlapping startup + share slots;
  // submitted serially they pay everything twice end-to-end.
  auto copy = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  auto in1 = MakeInput(100, "/s_in1");
  auto in2 = MakeInput(100, "/s_in2");

  SimMillis serial_start = engine_.now();
  JobSpec a;
  a.name = "a";
  a.output_path = "/s_outa";
  a.inputs = {{in1, {}, copy, 1.0, {}}};
  ASSERT_TRUE(engine_.Submit(a).ok());
  JobSpec b;
  b.name = "b";
  b.output_path = "/s_outb";
  b.inputs = {{in2, {}, copy, 1.0, {}}};
  ASSERT_TRUE(engine_.Submit(b).ok());
  SimMillis serial = engine_.now() - serial_start;

  JobSpec a2 = a;
  a2.output_path = "/p_outa";
  JobSpec b2 = b;
  b2.output_path = "/p_outb";
  SimMillis par_start = engine_.now();
  ASSERT_TRUE(engine_.SubmitAll({a2, b2}).ok());
  SimMillis parallel = engine_.now() - par_start;
  EXPECT_LT(parallel, serial);
}

TEST_F(MrEngineTest, SplitSubsetRestrictsInput) {
  auto input = MakeInput(200, "/in", /*split_bytes=*/64);
  JobSpec spec;
  spec.name = "subset";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.split_indexes = {0, 1};
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {mi};
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  uint64_t expected = input->splits()[0].num_records +
                      input->splits()[1].num_records;
  EXPECT_EQ(result->counters.output_records, expected);
}

TEST_F(MrEngineTest, InvalidSpecsRejected) {
  JobSpec no_inputs;
  no_inputs.name = "x";
  no_inputs.output_path = "/o";
  EXPECT_FALSE(engine_.Submit(no_inputs).ok());

  auto input = MakeInput(5, "/in");
  JobSpec no_output;
  no_output.name = "y";
  no_output.inputs = {{input, {}, [](const Value&, MapContext*) {
                         return Status::OK();
                       }, 1.0, {}}};
  EXPECT_FALSE(engine_.Submit(no_output).ok());

  JobSpec bad_split = no_output;
  bad_split.output_path = "/o2";
  bad_split.inputs[0].split_indexes = {999};
  EXPECT_FALSE(engine_.Submit(bad_split).ok());
}

// A batch is validated whole before any output exists: a rejected batch
// leaves no output behind, so a corrected resubmission does not collide
// with files of the jobs that preceded the bad spec.
class MrEngineBatchRejectionTest : public MrEngineTest {
 protected:
  JobSpec CopyJob(const std::string& out_path) {
    JobSpec spec;
    spec.name = "copy:" + out_path;
    spec.output_path = out_path;
    MapInput mi;
    mi.file = input_;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {mi};
    return spec;
  }

  std::shared_ptr<DfsFile> input_ = MakeInput(20, "/in");
};

TEST_F(MrEngineBatchRejectionTest, InvalidSpecCreatesNoEarlierOutput) {
  JobSpec good = CopyJob("/out_good");
  JobSpec bad = CopyJob("/out_bad");
  bad.inputs[0].split_indexes = {999};

  auto rejected = engine_.SubmitAll({good, bad});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  EXPECT_FALSE(dfs_.Exists("/out_good"));
  EXPECT_FALSE(dfs_.Exists("/out_bad"));

  auto again = engine_.Submit(good);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again->status.ok()) << again->status.ToString();
  EXPECT_EQ(again->output->num_records(), 20u);
}

TEST_F(MrEngineBatchRejectionTest, DuplicateOutputPathCreatesNothing) {
  JobSpec first = CopyJob("/out_dup");
  JobSpec second = CopyJob("/out_dup");
  second.name = "copy-again";

  auto rejected = engine_.SubmitAll({first, second});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  EXPECT_FALSE(dfs_.Exists("/out_dup"));

  auto again = engine_.Submit(first);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again->status.ok()) << again->status.ToString();
  EXPECT_EQ(again->output->num_records(), 20u);
}

TEST_F(MrEngineBatchRejectionTest, ExistingOutputRollsBackEarlierOutputs) {
  ASSERT_TRUE(dfs_.Create("/out_taken").ok());
  auto rejected =
      engine_.SubmitAll({CopyJob("/out_first"), CopyJob("/out_taken")});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(dfs_.Exists("/out_first"));
  EXPECT_TRUE(dfs_.Exists("/out_taken"));
}

TEST_F(MrEngineTest, CoordinatorCountersAndChannels) {
  Coordinator* coord = engine_.coordinator();
  EXPECT_EQ(coord->GetCounter("c"), 0);
  EXPECT_EQ(coord->Increment("c", 5), 5);
  EXPECT_EQ(coord->Increment("c", 2), 7);
  coord->ResetCounter("c");
  EXPECT_EQ(coord->GetCounter("c"), 0);
  coord->Publish("ch", "a");
  coord->Publish("ch", "b");
  EXPECT_EQ(coord->Fetch("ch").size(), 2u);
  coord->ClearChannel("ch");
  EXPECT_TRUE(coord->Fetch("ch").empty());
}

TEST_F(MrEngineTest, ObserverOverheadReported) {
  auto input = MakeInput(100, "/in");
  int observed = 0;
  JobSpec spec;
  spec.name = "obs";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {mi};
  spec.output_observer = [&observed](const Value&) { ++observed; };
  spec.observer_cpu_per_record = 100.0;
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(observed, 100);
  EXPECT_GT(result->observer_overhead_ms, 0);
}

}  // namespace
}  // namespace dyno
