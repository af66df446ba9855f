// Additional MapReduce-engine edge cases: multi-input jobs, pinned reducer
// counts, empty inputs, output-path collisions, reduce errors, the
// counters' bookkeeping contracts, and map output values of every type
// crossing the shuffle intact.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "mr/engine.h"
#include "storage/dfs.h"

namespace dyno {
namespace {

Value Row(int64_t id, int64_t group) {
  return MakeRow({{"id", Value::Int(id)}, {"g", Value::Int(group)}});
}

class MrExtraTest : public ::testing::Test {
 protected:
  MrExtraTest() : engine_(&dfs_, MakeConfig()) {}

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 100;
    config.map_slots = 4;
    config.reduce_slots = 3;
    return config;
  }

  std::shared_ptr<DfsFile> MakeInput(int rows, const std::string& path,
                                     int64_t id_offset = 0) {
    std::vector<Value> data;
    for (int i = 0; i < rows; ++i) data.push_back(Row(i + id_offset, i % 4));
    auto file = WriteRows(&dfs_, path, data, 256);
    EXPECT_TRUE(file.ok());
    return *file;
  }

  Dfs dfs_;
  MapReduceEngine engine_;
};

TEST_F(MrExtraTest, MultiInputJobTagsBothSides) {
  auto left = MakeInput(30, "/left");
  auto right = MakeInput(20, "/right", 1000);
  JobSpec spec;
  spec.name = "two-inputs";
  spec.output_path = "/out";
  auto tag = [](int64_t t) -> MapFn {
    return [t](const Value& record, MapContext* ctx) -> Status {
      ctx->Emit(*record.FindField("g"),
                MakeRow({{"t", Value::Int(t)}, {"r", record}}));
      return Status::OK();
    };
  };
  spec.inputs = {{left, {}, tag(0), 1.0}, {right, {}, tag(1), 1.0, {}}};
  spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    int64_t lefts = 0;
    int64_t rights = 0;
    for (const Value& v : values) {
      (v.FindField("t")->int_value() == 0 ? lefts : rights) += 1;
    }
    ctx->Output(MakeRow({{"g", key},
                         {"l", Value::Int(lefts)},
                         {"r", Value::Int(rights)}}));
    return Status::OK();
  };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  auto rows = ReadAllRows(*result->output);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  int64_t total_left = 0;
  int64_t total_right = 0;
  for (const Value& row : *rows) {
    total_left += row.FindField("l")->int_value();
    total_right += row.FindField("r")->int_value();
  }
  EXPECT_EQ(total_left, 30);
  EXPECT_EQ(total_right, 20);
}

TEST_F(MrExtraTest, PinnedReducerCountHonored) {
  auto input = MakeInput(100, "/in");
  JobSpec spec;
  spec.name = "pinned";
  spec.output_path = "/out";
  spec.num_reduce_tasks = 5;
  spec.inputs = {{input, {}, [](const Value& r, MapContext* ctx) {
                    ctx->Emit(*r.FindField("id"), r);
                    return Status::OK();
                  }, 1.0, {}}};
  spec.reduce_fn = [](const Value&, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    for (const Value& v : values) ctx->Output(v);
    return Status::OK();
  };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reduce_tasks_run, 5);
  EXPECT_EQ(result->counters.output_records, 100u);
}

TEST_F(MrExtraTest, EmptyInputYieldsEmptyOutput) {
  auto empty = WriteRows(&dfs_, "/empty", {});
  ASSERT_TRUE(empty.ok());
  JobSpec spec;
  spec.name = "empty";
  spec.output_path = "/out";
  spec.inputs = {{*empty, {}, [](const Value& r, MapContext* ctx) {
                    ctx->Output(r);
                    return Status::OK();
                  }, 1.0, {}}};
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok());
  EXPECT_EQ(result->output->num_records(), 0u);
  EXPECT_EQ(result->map_tasks_run, 0);
}

TEST_F(MrExtraTest, OutputPathCollisionRejected) {
  auto input = MakeInput(10, "/in");
  JobSpec spec;
  spec.name = "dup";
  spec.output_path = "/in";  // already exists
  spec.inputs = {{input, {}, [](const Value& r, MapContext* ctx) {
                    ctx->Output(r);
                    return Status::OK();
                  }, 1.0, {}}};
  EXPECT_FALSE(engine_.Submit(spec).ok());
}

TEST_F(MrExtraTest, ReduceErrorFailsJobAndCleansOutput) {
  auto input = MakeInput(50, "/in");
  JobSpec spec;
  spec.name = "bad-reduce";
  spec.output_path = "/out";
  spec.inputs = {{input, {}, [](const Value& r, MapContext* ctx) {
                    ctx->Emit(*r.FindField("g"), r);
                    return Status::OK();
                  }, 1.0, {}}};
  spec.reduce_fn = [](const Value&, const std::vector<Value>&,
                      ReduceContext*) -> Status {
    return Status::Internal("reduce boom");
  };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  EXPECT_FALSE(dfs_.Exists("/out"));
}

TEST_F(MrExtraTest, CountersAddUpForMapReduceJob) {
  auto input = MakeInput(80, "/in");
  JobSpec spec;
  spec.name = "counters";
  spec.output_path = "/out";
  spec.inputs = {{input, {}, [](const Value& r, MapContext* ctx) {
                    // Drop odd ids at map side.
                    if (r.FindField("id")->int_value() % 2 == 0) {
                      ctx->Emit(*r.FindField("g"), r);
                    }
                    return Status::OK();
                  }, 1.0, {}}};
  spec.reduce_fn = [](const Value&, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    for (const Value& v : values) ctx->Output(v);
    return Status::OK();
  };
  auto result = engine_.Submit(spec);
  ASSERT_TRUE(result.ok());
  const Counters& counters = result->counters;
  EXPECT_EQ(counters.map_input_records, 80u);
  EXPECT_EQ(counters.map_output_records, 40u);
  EXPECT_EQ(counters.reduce_input_records, 40u);
  EXPECT_EQ(counters.output_records, 40u);
  EXPECT_GT(counters.map_input_bytes, 0u);
  EXPECT_GT(counters.map_output_bytes, 0u);
  EXPECT_GT(counters.output_bytes, 0u);
  EXPECT_EQ(counters.output_bytes, result->output->num_bytes());
}

TEST_F(MrExtraTest, CountersMergeFromAccumulates) {
  Counters a;
  a.map_input_records = 5;
  a.output_bytes = 100;
  Counters b;
  b.map_input_records = 7;
  b.output_bytes = 11;
  b.reduce_input_records = 3;
  a.MergeFrom(b);
  EXPECT_EQ(a.map_input_records, 12u);
  EXPECT_EQ(a.output_bytes, 111u);
  EXPECT_EQ(a.reduce_input_records, 3u);
}

TEST_F(MrExtraTest, ManyConcurrentJobsAllComplete) {
  std::vector<JobSpec> specs;
  for (int j = 0; j < 12; ++j) {
    auto input = MakeInput(40, StrFormat("/in%d", j));
    JobSpec spec;
    spec.name = StrFormat("job%d", j);
    spec.output_path = StrFormat("/out%d", j);
    spec.inputs = {{input, {}, [](const Value& r, MapContext* ctx) {
                      ctx->Output(r);
                      return Status::OK();
                    }, 1.0, {}}};
    specs.push_back(std::move(spec));
  }
  auto results = engine_.SubmitAll(specs);
  ASSERT_TRUE(results.ok());
  for (const JobResult& result : *results) {
    EXPECT_TRUE(result.status.ok());
    EXPECT_EQ(result.counters.output_records, 40u);
  }
}

// ---------------------------------------------------------------------------
// Map output values wait for the shuffle as their encodings and the reducer
// decodes them per key group: every value must reach reduce_fn exactly as
// it was emitted, in emission order within its key, whether the bucket is
// sorted in memory, spilled to CRC-framed runs, rebuilt after a node crash
// or copied for a retried attempt.
// ---------------------------------------------------------------------------

/// One value of each codec type, with each type's edge cases: varint
/// widths of zigzag ints, signed zero, NaN and infinities, empty and long
/// strings, nested containers and a struct with duplicate field names.
std::vector<Value> EveryKindOfValue() {
  std::vector<Value> values = {Value::Null(), Value::Bool(false),
                               Value::Bool(true)};
  for (int64_t i : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{63},
                    int64_t{-64}, int64_t{64}, int64_t{-65}, int64_t{8191},
                    int64_t{-8192}, int64_t{8192}, int64_t{-8193},
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    values.push_back(Value::Int(i));
  }
  for (double d : {0.0, -0.0, std::nan(""),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), 2.5,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    values.push_back(Value::Double(d));
  }
  std::string binary(300, '\0');
  for (size_t i = 0; i < binary.size(); ++i) {
    binary[i] = static_cast<char>(i * 37);
  }
  values.push_back(Value::String(""));
  values.push_back(Value::String(std::string("nul\0byte", 8)));
  values.push_back(Value::String(binary));
  values.push_back(Value::String(std::string(5000, 'L')));
  values.push_back(Value::Array({}));
  values.push_back(Value::Array(
      {Value::Int(1),
       Value::Array({Value::Null(), Value::Array({Value::String("deep")})}),
       MakeRow({{"k", Value::Double(-0.0)}})}));
  values.push_back(MakeRow({}));
  values.push_back(MakeRow(
      {{"a", Value::Int(7)},
       {"b", MakeRow({{"c", Value::Array({Value::Bool(true), Value::Null()})},
                      {"d", Value::String(binary)}})}}));
  values.push_back(MakeRow({{"x", Value::Int(1)},
                            {"x", Value::String("two")},
                            {"x", Value::Null()}}));
  return values;
}

std::string Encoded(const Value& v) {
  std::string out;
  v.EncodeTo(&out);
  return out;
}

constexpr int kKeys = 5;
constexpr int kCopies = 6;  // Each catalog value is emitted this often.

/// Per key (by encoding), the encodings of the values reduce_fn received,
/// once per call: an attempt that is retried or loses a race delivers
/// again.
using Deliveries =
    std::map<std::string, std::vector<std::vector<std::string>>>;

/// The job: row `i` emits catalog value `i % n` under key `i % kKeys`, so
/// each key's values arrive in row order. The reducer records every
/// delivery; when `fail_first` is set, its first call returns an error
/// after recording, so that attempt is retried.
JobSpec EveryKindJob(std::shared_ptr<DfsFile> input,
                     std::shared_ptr<Deliveries> deliveries, bool fail_first) {
  auto catalog = std::make_shared<std::vector<Value>>(EveryKindOfValue());
  JobSpec spec;
  spec.name = "every-kind";
  spec.output_path = "/out";
  spec.num_reduce_tasks = 3;
  MapInput mi;
  mi.file = std::move(input);
  mi.map_fn = [catalog](const Value& record, MapContext* ctx) -> Status {
    const int64_t i = record.FindField("id")->int_value();
    ctx->Emit(Value::Int(i % kKeys),
              (*catalog)[static_cast<size_t>(i) % catalog->size()]);
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  auto failed = std::make_shared<bool>(!fail_first);
  spec.reduce_fn = [deliveries, failed](const Value& key,
                                        const std::vector<Value>& values,
                                        ReduceContext* ctx) -> Status {
    std::vector<std::string> encodings;
    for (const Value& v : values) encodings.push_back(Encoded(v));
    (*deliveries)[Encoded(key)].push_back(encodings);
    if (!*failed) {
      *failed = true;
      return Status::Internal("first reduce call fails");
    }
    ctx->Output(MakeRow({{"k", key},
                         {"n", Value::Int(static_cast<int64_t>(
                                   values.size()))}}));
    return Status::OK();
  };
  return spec;
}

struct EveryKindRun {
  JobResult result;
  Deliveries deliveries;
};

EveryKindRun RunEveryKind(const ClusterConfig& config, bool fail_first) {
  Dfs dfs;
  MapReduceEngine engine(&dfs, config);
  const int rows = kCopies * static_cast<int>(EveryKindOfValue().size());
  std::vector<Value> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back(MakeRow({{"id", Value::Int(i)}}));
  }
  auto input = WriteRows(&dfs, "/in", data, /*target_split_bytes=*/128);
  EXPECT_TRUE(input.ok());
  auto deliveries = std::make_shared<Deliveries>();
  auto result = engine.Submit(EveryKindJob(*input, deliveries, fail_first));
  EXPECT_TRUE(result.ok());
  return {std::move(*result), std::move(*deliveries)};
}

/// Checks that every key was delivered, and every delivery held the values
/// its rows emitted, in row order, byte for byte.
void ExpectEveryValueArrivedIntact(const EveryKindRun& run) {
  ASSERT_TRUE(run.result.status.ok()) << run.result.status.ToString();
  const std::vector<Value> catalog = EveryKindOfValue();
  std::map<std::string, std::vector<std::string>> expected;
  const int rows = kCopies * static_cast<int>(catalog.size());
  for (int i = 0; i < rows; ++i) {
    expected[Encoded(Value::Int(i % kKeys))].push_back(
        Encoded(catalog[static_cast<size_t>(i) % catalog.size()]));
  }
  ASSERT_EQ(run.deliveries.size(), expected.size());
  for (const auto& [key, want] : expected) {
    auto it = run.deliveries.find(key);
    ASSERT_NE(it, run.deliveries.end());
    ASSERT_FALSE(it->second.empty());
    for (const std::vector<std::string>& got : it->second) {
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_EQ(run.result.counters.output_records, static_cast<uint64_t>(kKeys));
}

ClusterConfig EveryKindConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.map_slots = 8;
  config.reduce_slots = 2;  // several reduce waves -> pending reducers
  config.job_startup_ms = 200;
  config.faults.use_env_defaults = false;
  config.faults.retry_backoff_ms = 100;
  config.faults.node_recovery_ms = 5000;
  return config;
}

TEST(ShuffledValuesTest, EveryValueTypeReachesTheReducerInMemory) {
  EveryKindRun run = RunEveryKind(EveryKindConfig(), /*fail_first=*/false);
  ExpectEveryValueArrivedIntact(run);
  EXPECT_EQ(run.result.reduce_spills, 0);
  for (const auto& [key, calls] : run.deliveries) EXPECT_EQ(calls.size(), 1u);
}

TEST(ShuffledValuesTest, EveryValueTypeSurvivesSpillRuns) {
  ClusterConfig config = EveryKindConfig();
  config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
  config.memory_per_task_bytes = 512;
  config.max_spill_runs = 4096;
  EveryKindRun run = RunEveryKind(config, /*fail_first=*/false);
  ExpectEveryValueArrivedIntact(run);
  EXPECT_GT(run.result.reduce_spills, 0);
  EXPECT_GT(run.result.spill_runs, run.result.reduce_spills)
      << "a spilling reducer must merge several runs";
}

TEST(ShuffledValuesTest, EveryValueTypeSurvivesANodeCrashReshuffle) {
  const ClusterConfig config = EveryKindConfig();
  EveryKindRun clean = RunEveryKind(config, /*fail_first=*/false);
  ASSERT_TRUE(clean.result.status.ok());
  // Sweep crash placements toward the end until one lands behind the first
  // shuffle, with reducers still pending, and forces a rebuild from the
  // retained emissions.
  const SimMillis window = clean.result.Elapsed() - config.job_startup_ms;
  bool reshuffled = false;
  for (int pct : {98, 96, 94, 92, 90, 85, 80, 75, 70, 60}) {
    SCOPED_TRACE(pct);
    ClusterConfig crashy = config;
    crashy.faults.scripted_node_crashes = {
        {clean.result.submit_time_ms + config.job_startup_ms +
             window * pct / 100,
         1}};
    EveryKindRun faulty = RunEveryKind(crashy, /*fail_first=*/false);
    ExpectEveryValueArrivedIntact(faulty);
    if (faulty.result.maps_invalidated > 0 &&
        faulty.result.shuffle_fetch_retries > 0) {
      reshuffled = true;
      break;
    }
  }
  EXPECT_TRUE(reshuffled) << "no placement forced a re-shuffle";
}

TEST(ShuffledValuesTest, EveryValueTypeSurvivesARetryFromTheCopiedBucket) {
  // Injected attempt failures turn retries on, which makes every launch
  // copy its bucket; the reducer's own first-call error then fails an
  // attempt that has consumed its copy, and the retry decodes afresh.
  ClusterConfig config = EveryKindConfig();
  config.faults.task_failure_rate = 0.3;
  config.faults.max_task_attempts = 12;
  EveryKindRun run = RunEveryKind(config, /*fail_first=*/true);
  ExpectEveryValueArrivedIntact(run);
  EXPECT_GT(run.result.task_failures_injected, 0);
  EXPECT_GT(run.result.task_retries, 0);
  size_t calls = 0;
  for (const auto& [key, delivered] : run.deliveries) calls += delivered.size();
  EXPECT_GT(calls, static_cast<size_t>(kKeys))
      << "the failed first call must have been delivered again";
}

}  // namespace
}  // namespace dyno
