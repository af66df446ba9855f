// Node-level fault domains (DESIGN.md §6.4) and driver-level recovery.
//
// Engine side: a node crash kills the attempts running on it, invalidates
// the completed map outputs resident there, forces dependent reducers
// through a shuffle re-fetch, and — because re-executed work is committed
// through the same deferred-staging path as first-run work — leaves every
// job output byte-identical to a fault-free run. Losing every node for
// good classifies unfinished jobs as permanent (Unavailable) failures.
//
// Driver side: every successfully accounted step is checkpointed to a DFS
// manifest; a driver killed mid-query resumes from it with the same final
// rows and the same checkpointed statistics as an uninterrupted run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyno/checkpoint.h"
#include "dyno/driver.h"
#include "mr/engine.h"
#include "obs/trace.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"
#include "storage/dfs.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

// ---------------------------------------------------------------------------
// Engine: node crashes.
// ---------------------------------------------------------------------------

Value Row(int64_t id) {
  return MakeRow({{"id", Value::Int(id)},
                  {"g", Value::Int(id % 13)},
                  {"pad", Value::String(std::string(24, 'p'))}});
}

std::shared_ptr<DfsFile> MakeInput(Dfs* dfs, int rows,
                                   const std::string& path) {
  std::vector<Value> data;
  for (int i = 0; i < rows; ++i) data.push_back(Row(i));
  auto file = WriteRows(dfs, path, data, /*target_split_bytes=*/256);
  EXPECT_TRUE(file.ok());
  return *file;
}

ClusterConfig NodeConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.map_slots = 8;
  config.reduce_slots = 4;
  config.job_startup_ms = 200;
  config.faults.use_env_defaults = false;
  config.faults.retry_backoff_ms = 100;
  config.faults.node_recovery_ms = 5000;
  return config;
}

/// Simulated time `num/den` of the way through the clean run's *task*
/// window (everything before job_startup_ms is pure setup — a crash there
/// finds nothing to kill).
SimMillis CrashAt(const ClusterConfig& config, const JobResult& clean,
                  int num, int den) {
  SimMillis window = clean.Elapsed() - config.job_startup_ms;
  return clean.submit_time_ms + config.job_startup_ms + window * num / den;
}

JobSpec CountByGroup(std::shared_ptr<DfsFile> input,
                     const std::string& out_path, int num_reduce_tasks = 0) {
  JobSpec spec;
  spec.name = "count-by-group:" + out_path;
  spec.output_path = out_path;
  spec.num_reduce_tasks = num_reduce_tasks;
  MapInput mi;
  mi.file = std::move(input);
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("g"), Value::Int(1));
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  spec.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                      ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow(
        {{"g", key},
         {"n", Value::Int(static_cast<int64_t>(values.size()))}}));
    return Status::OK();
  };
  return spec;
}

std::string FileBytes(const DfsFile& file) {
  std::string all;
  for (const Split& split : file.splits()) all += split.data;
  return all;
}

/// Runs CountByGroup on a fresh cluster and returns the JobResult.
JobResult RunCountJob(const ClusterConfig& config, int rows = 3000) {
  Dfs dfs;
  MapReduceEngine engine(&dfs, config);
  auto input = MakeInput(&dfs, rows, "/in");
  auto result = engine.Submit(CountByGroup(input, "/out", /*reduce_tasks=*/6));
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

TEST(NodeFaultTest, CrashLosingCompletedMapOutputsYieldsByteIdenticalOutput) {
  ClusterConfig config = NodeConfig();
  JobResult clean = RunCountJob(config);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();

  // Crash node 0 while the map phase is underway: completed map outputs
  // resident there are lost and must re-execute on the surviving nodes.
  ClusterConfig crashy = config;
  crashy.faults.scripted_node_crashes = {{CrashAt(config, clean, 2, 5), 0}};
  JobResult faulty = RunCountJob(crashy);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  EXPECT_EQ(faulty.node_crashes_observed, 1);
  EXPECT_GT(faulty.maps_invalidated, 0)
      << "the crash must land after some maps completed on node 0";
  // Recovery costs time but changes nothing observable about the output.
  EXPECT_GT(faulty.Elapsed(), clean.Elapsed());
  // Every counter of the re-executed tasks replaces the lost one's, so all
  // seven match the crash-free run.
  EXPECT_EQ(faulty.counters.map_input_records, clean.counters.map_input_records);
  EXPECT_EQ(faulty.counters.map_input_bytes, clean.counters.map_input_bytes);
  EXPECT_EQ(faulty.counters.map_output_records,
            clean.counters.map_output_records);
  EXPECT_EQ(faulty.counters.map_output_bytes, clean.counters.map_output_bytes);
  EXPECT_EQ(faulty.counters.reduce_input_records,
            clean.counters.reduce_input_records);
  EXPECT_EQ(faulty.counters.output_records, clean.counters.output_records);
  EXPECT_EQ(faulty.counters.output_bytes, clean.counters.output_bytes);
  ASSERT_NE(faulty.output, nullptr);
  EXPECT_EQ(FileBytes(*faulty.output), FileBytes(*clean.output))
      << "re-executed maps must reproduce the output byte for byte";
}

TEST(NodeFaultTest, CrashDuringReducePhaseForcesShuffleRefetch) {
  ClusterConfig config = NodeConfig();
  config.reduce_slots = 2;  // several reduce waves -> pending reducers
  JobResult clean = RunCountJob(config);
  ASSERT_TRUE(clean.status.ok());

  // The reduce phase is a narrow late slice of the run; sweep crash
  // placements toward the end until one lands on it. Every placement —
  // whether it hits map tail or reduce waves — must leave the output
  // byte-identical; at least one must catch reducers still pending.
  bool hit_reduce_phase = false;
  for (int pct : {98, 96, 94, 92, 90, 85, 80, 75}) {
    ClusterConfig crashy = config;
    crashy.faults.scripted_node_crashes = {{CrashAt(config, clean, pct, 100), 1}};
    JobResult faulty = RunCountJob(crashy);
    ASSERT_TRUE(faulty.status.ok())
        << "crash at " << pct << "%: " << faulty.status.ToString();
    EXPECT_EQ(faulty.node_crashes_observed, 1);
    EXPECT_EQ(faulty.counters.output_records, clean.counters.output_records);
    ASSERT_NE(faulty.output, nullptr);
    EXPECT_EQ(FileBytes(*faulty.output), FileBytes(*clean.output))
        << "crash at " << pct << "%";
    if (faulty.shuffle_fetch_retries > 0 && faulty.maps_invalidated > 0) {
      hit_reduce_phase = true;
      break;
    }
  }
  EXPECT_TRUE(hit_reduce_phase)
      << "no placement caught pending reducers behind a re-shuffle";
}

TEST(NodeFaultTest, LosingEveryNodeForGoodIsAPermanentUnavailableFailure) {
  ClusterConfig config = NodeConfig();
  config.num_nodes = 2;
  config.faults.node_recovery_ms = 0;  // down for good
  config.faults.scripted_node_crashes = {{300, 0}, {350, 1}};

  Dfs dfs;
  MapReduceEngine engine(&dfs, config);
  auto input = MakeInput(&dfs, 3000, "/in");
  auto result = engine.Submit(CountByGroup(input, "/out"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kUnavailable)
      << result->status.ToString();
  EXPECT_EQ(result->output, nullptr);
  EXPECT_FALSE(dfs.Open("/out").ok()) << "failed job must drain its output";
  for (const auto& node : engine.node_states()) EXPECT_FALSE(node.alive);

  // set_config re-provisions the fleet; the engine is usable again.
  engine.set_config(NodeConfig());
  auto again = engine.Submit(CountByGroup(input, "/out2"));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->status.ok()) << again->status.ToString();
  EXPECT_EQ(again->counters.map_input_records, 3000u);
}

TEST(NodeFaultTest, CrashedNodeRecoversAndRejoinsTheCluster) {
  ClusterConfig config = NodeConfig();
  config.faults.node_recovery_ms = 300;

  Dfs dfs;
  MapReduceEngine engine(&dfs, config);
  auto input = MakeInput(&dfs, 3000, "/in");

  ClusterConfig crashy = config;
  crashy.faults.scripted_node_crashes = {{400, 2}};
  engine.set_config(crashy);
  auto result = engine.Submit(CountByGroup(input, "/out", 6));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(result->node_crashes_observed, 1);

  // The node either recovered during the run or is revived by the next
  // submission's liveness sweep; either way capacity is whole again.
  auto second = engine.Submit(CountByGroup(input, "/out2", 6));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->status.ok());
  for (const auto& node : engine.node_states()) EXPECT_TRUE(node.alive);
}

TEST(NodeFaultTest, RandomNodeCrashesAreTransparentToJobOutput) {
  ClusterConfig config = NodeConfig();
  JobResult clean = RunCountJob(config);
  ASSERT_TRUE(clean.status.ok());

  ClusterConfig crashy = config;
  crashy.faults.seed = 17;
  crashy.faults.node_failure_rate = 0.01;
  crashy.faults.node_recovery_ms = 400;  // rejoin quickly: slow, not doomed
  JobResult faulty = RunCountJob(crashy);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  EXPECT_GT(faulty.node_crashes_observed, 0)
      << "the Bernoulli node-crash stream must fire at this rate";
  EXPECT_GT(faulty.attempts_killed_by_node, 0);
  ASSERT_NE(faulty.output, nullptr);
  EXPECT_EQ(FileBytes(*faulty.output), FileBytes(*clean.output));
}

// ---------------------------------------------------------------------------
// Engine: shuffle-byte accounting. Every byte figure the engine bills for a
// reduce job (shuffle transfer, reducer memory, spill I/O) must equal the
// encoded size of the pairs the maps emitted, including after a node crash
// forces the partitions to be rebuilt from retained emissions.
// ---------------------------------------------------------------------------

constexpr int kShuffleRows = 3000;
constexpr int kShuffleReducers = 6;

/// Emits each whole record under its group, so pair sizes vary with the id.
JobSpec GroupRecords(std::shared_ptr<DfsFile> input) {
  JobSpec spec = CountByGroup(std::move(input), "/out", kShuffleReducers);
  spec.inputs[0].map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Emit(*record.FindField("g"), record);
    return Status::OK();
  };
  return spec;
}

struct BilledRun {
  JobResult result;
  std::string trace;
};

BilledRun RunGroupRecords(const ClusterConfig& config) {
  Dfs dfs;
  obs::TraceSink trace;
  MapReduceEngine engine(&dfs, config);
  engine.set_trace(&trace);
  auto result = engine.Submit(GroupRecords(MakeInput(&dfs, kShuffleRows, "/in")));
  EXPECT_TRUE(result.ok());
  return {std::move(*result), trace.SerializeJsonl()};
}

/// The integer value of `"key":N` in one serialized trace event.
int64_t IntArg(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) return -1;
  return std::stoll(line.substr(pos + key.size() + 3));
}

/// The serialized events named `name`, in trace order.
std::vector<std::string> EventsNamed(const std::string& trace,
                                     const std::string& name) {
  std::vector<std::string> out;
  const std::string tag = "\"name\":\"" + name + "\"";
  size_t start = 0;
  while (start < trace.size()) {
    size_t end = trace.find('\n', start);
    if (end == std::string::npos) end = trace.size();
    std::string line = trace.substr(start, end - start);
    if (line.find(tag) != std::string::npos) out.push_back(std::move(line));
    start = end + 1;
  }
  return out;
}

/// Checks every billed byte figure of `run` against an independent
/// EncodedSize sum over the pairs GroupRecords emits.
void ExpectBytesMatchEmissions(const BilledRun& run,
                               const ClusterConfig& config) {
  std::vector<uint64_t> bytes(kShuffleReducers, 0);
  std::vector<uint64_t> pairs(kShuffleReducers, 0);
  for (int i = 0; i < kShuffleRows; ++i) {
    const Value record = Row(i);
    const Value& key = *record.FindField("g");
    const size_t p = key.Hash() % kShuffleReducers;
    bytes[p] += key.EncodedSize() + record.EncodedSize();
    ++pairs[p];
  }
  uint64_t total = 0;
  for (uint64_t b : bytes) total += b;

  // The first shuffle moves every emitted byte; a re-shuffle after a crash
  // moves only what the re-executed maps emitted again.
  const auto shuffles = EventsNamed(run.trace, "shuffle_phase");
  ASSERT_FALSE(shuffles.empty());
  EXPECT_EQ(IntArg(shuffles[0], "bytes"), static_cast<int64_t>(total));
  for (size_t i = 1; i < shuffles.size(); ++i) {
    EXPECT_GT(IntArg(shuffles[i], "bytes"), 0);
    EXPECT_LT(IntArg(shuffles[i], "bytes"), static_cast<int64_t>(total));
  }

  // Each spilling attempt sizes its bucket as its partition's bytes; the
  // spill writes are that size once per merge pass.
  uint64_t spill_written = 0;
  for (const std::string& e : EventsNamed(run.trace, "task_spill")) {
    const int64_t task = IntArg(e, "task");
    ASSERT_GE(task, 0);
    ASSERT_LT(task, kShuffleReducers);
    EXPECT_EQ(IntArg(e, "bytes"), static_cast<int64_t>(bytes[task]))
        << "task " << task;
    spill_written += bytes[task] * IntArg(e, "merge_passes");
  }
  EXPECT_EQ(run.result.spill_bytes_written, spill_written);

  // Peak memory: the largest reducer's expanded state, or the budget for a
  // reducer that spills it instead.
  const bool spill_mode =
      config.reduce_memory_mode == ClusterConfig::ReduceMemoryMode::kSpill;
  const double budget = static_cast<double>(config.memory_per_task_bytes);
  uint64_t peak = 0;
  for (int p = 0; p < kShuffleReducers; ++p) {
    const double state = std::ceil(static_cast<double>(bytes[p]) *
                                   config.reduce_memory_factor);
    const bool spills = spill_mode && state > budget &&
                        std::min<double>(std::ceil(state / budget),
                                         static_cast<double>(pairs[p])) > 1;
    peak = std::max(peak, spills ? config.memory_per_task_bytes
                                 : static_cast<uint64_t>(state));
  }
  EXPECT_EQ(run.result.peak_task_memory_bytes, peak);
}

ClusterConfig ShuffleConfig(bool spill) {
  ClusterConfig config = NodeConfig();
  config.reduce_slots = 2;  // several reduce waves -> pending reducers
  if (spill) {
    config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
    config.memory_per_task_bytes = 24 * 1024;
  }
  return config;
}

TEST(ShuffleAccountingTest, BilledBytesEqualEmittedPairSizes) {
  for (bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    const ClusterConfig config = ShuffleConfig(spill);
    BilledRun run = RunGroupRecords(config);
    ASSERT_TRUE(run.result.status.ok()) << run.result.status.ToString();
    EXPECT_EQ(EventsNamed(run.trace, "shuffle_phase").size(), 1u);
    if (spill) {
      EXPECT_GT(run.result.reduce_spills, 0);
      EXPECT_LT(run.result.reduce_spills, kShuffleReducers)
          << "the budget should leave some reducers in memory";
    }
    ExpectBytesMatchEmissions(run, config);
  }
}

TEST(ShuffleAccountingTest, RebuiltPartitionsBillTheSameBytes) {
  for (bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spill" : "in-memory");
    const ClusterConfig config = ShuffleConfig(spill);
    BilledRun clean = RunGroupRecords(config);
    ASSERT_TRUE(clean.result.status.ok());

    // Sweep crash placements toward the end until one lands after the
    // first shuffle and forces a rebuild from the retained emissions.
    bool rebuilt = false;
    for (int pct : {98, 96, 94, 92, 90, 85, 80, 75, 70, 60}) {
      ClusterConfig crashy = config;
      crashy.faults.scripted_node_crashes = {
          {CrashAt(config, clean.result, pct, 100), 1}};
      BilledRun faulty = RunGroupRecords(crashy);
      ASSERT_TRUE(faulty.result.status.ok()) << faulty.result.status.ToString();
      ASSERT_NE(faulty.result.output, nullptr);
      EXPECT_EQ(FileBytes(*faulty.result.output),
                FileBytes(*clean.result.output))
          << "crash at " << pct << "%";
      if (faulty.result.maps_invalidated > 0 &&
          EventsNamed(faulty.trace, "shuffle_phase").size() > 1) {
        ExpectBytesMatchEmissions(faulty, crashy);
        rebuilt = true;
        break;
      }
    }
    EXPECT_TRUE(rebuilt) << "no placement forced a re-shuffle";
  }
}

// ---------------------------------------------------------------------------
// Driver: checkpoint manifest + resume.
// ---------------------------------------------------------------------------

TableStats SampleStats(double card) {
  TableStats stats;
  stats.cardinality = card;
  stats.avg_record_size = 33.5;
  stats.from_sample = true;
  ColumnStats cs;
  cs.ndv = card / 2;
  cs.min_value = Value::Int(1);
  cs.max_value = Value::String("zz");
  stats.columns["k"] = cs;
  ColumnStats open;
  open.ndv = 3.0;  // no min/max tracked
  stats.columns["g"] = open;
  return stats;
}

TEST(CheckpointManifestTest, RoundTripsThroughDfs) {
  CheckpointManifest manifest;
  manifest.temp_counter = 7;
  CheckpointEntry entry;
  entry.signature = "join(a,b)";
  entry.relation_id = "t3";
  entry.path = "/tmp/dyno/e1_t3";
  entry.covered = {"a", "b"};
  entry.stats = SampleStats(120.0);
  manifest.entries.push_back(entry);

  Dfs dfs;
  ASSERT_TRUE(manifest.WriteTo(&dfs, "/ckpt").ok());
  // Rewriting (the per-step update pattern) must replace, not fail.
  manifest.temp_counter = 9;
  ASSERT_TRUE(manifest.WriteTo(&dfs, "/ckpt").ok());

  auto loaded = CheckpointManifest::ReadFrom(dfs, "/ckpt");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->temp_counter, 9);
  ASSERT_EQ(loaded->entries.size(), 1u);
  const CheckpointEntry& got = loaded->entries[0];
  EXPECT_EQ(got.signature, entry.signature);
  EXPECT_EQ(got.relation_id, entry.relation_id);
  EXPECT_EQ(got.path, entry.path);
  EXPECT_EQ(got.covered, entry.covered);
  EXPECT_EQ(got.stats.cardinality, entry.stats.cardinality);
  EXPECT_EQ(got.stats.avg_record_size, entry.stats.avg_record_size);
  EXPECT_EQ(got.stats.from_sample, entry.stats.from_sample);
  ASSERT_EQ(got.stats.columns.size(), 2u);
  const ColumnStats& k = got.stats.columns.at("k");
  EXPECT_EQ(k.ndv, 60.0);
  ASSERT_TRUE(k.min_value.has_value());
  EXPECT_EQ(k.min_value->int_value(), 1);
  ASSERT_TRUE(k.max_value.has_value());
  EXPECT_EQ(k.max_value->string_value(), "zz");
  const ColumnStats& g = got.stats.columns.at("g");
  EXPECT_FALSE(g.min_value.has_value());
  EXPECT_FALSE(g.max_value.has_value());
}

TEST(CheckpointManifestTest, MalformedManifestsAreRejectedNotTrusted) {
  Dfs dfs;
  EXPECT_FALSE(CheckpointManifest::ReadFrom(dfs, "/missing").ok());

  // Not a struct.
  ASSERT_TRUE(WriteRows(&dfs, "/bad1", {Value::Int(5)}).ok());
  EXPECT_FALSE(CheckpointManifest::ReadFrom(dfs, "/bad1").ok());

  // Wrong version.
  ASSERT_TRUE(WriteRows(&dfs, "/bad2",
                        {Value::Struct({{"version", Value::Int(99)},
                                        {"temp_counter", Value::Int(0)},
                                        {"entries", Value::Array({})}})})
                  .ok());
  EXPECT_FALSE(CheckpointManifest::ReadFrom(dfs, "/bad2").ok());

  // Entry with a missing field.
  ASSERT_TRUE(
      WriteRows(&dfs, "/bad3",
                {Value::Struct(
                    {{"version", Value::Int(CheckpointManifest::kVersion)},
                     {"temp_counter", Value::Int(2)},
                     {"entries",
                      Value::Array({Value::Struct(
                          {{"signature", Value::String("s")}})})}})})
          .ok());
  EXPECT_FALSE(CheckpointManifest::ReadFrom(dfs, "/bad3").ok());

  // Two rows where one is expected.
  ASSERT_TRUE(
      WriteRows(&dfs, "/bad4", {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(CheckpointManifest::ReadFrom(dfs, "/bad4").ok());
}

class DriverRecoveryTest : public ::testing::Test {
 protected:
  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    config.faults.use_env_defaults = false;
    return config;
  }

  static DynoOptions MakeOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.pilot.mode = PilotRunOptions::Mode::kParallel;
    options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    options.cost.memory_factor = 1.5;
    options.checkpoint_path = "/ckpt/query";
    return options;
  }

  /// One isolated cluster + TPC-H catalog (a fresh "site" per run, so a
  /// killed run and an uninterrupted run cannot share hidden state).
  struct Site {
    Dfs dfs;
    Catalog catalog{&dfs};
    MapReduceEngine engine{&dfs, MakeConfig()};
    Site() {
      TpchConfig config;
      config.scale = 0.0005;
      config.split_bytes = 8 * 1024;
      EXPECT_TRUE(GenerateTpch(&catalog, config).ok());
    }
  };

  struct Outcome {
    std::string result_bytes;
    uint64_t result_records = 0;
    int jobs_run = 0;
    /// (signature, cardinality) per checkpoint entry, in manifest order.
    std::vector<std::pair<std::string, double>> checkpoints;
  };

  static Outcome Digest(const DynoDriver& driver,
                        const QueryRunReport& report) {
    Outcome out;
    if (report.result != nullptr) {
      out.result_bytes = FileBytes(*report.result);
    }
    out.result_records = report.result_records;
    out.jobs_run = report.jobs_run;
    for (const CheckpointEntry& entry : driver.manifest().entries) {
      out.checkpoints.emplace_back(entry.signature, entry.stats.cardinality);
    }
    return out;
  }
};

TEST_F(DriverRecoveryTest, ResumeAfterMidQueryKillMatchesUninterruptedRun) {
  Query query = MakeTpchQ10();

  // Reference: the same query, never interrupted.
  Site ref_site;
  StatsStore ref_store;
  DynoDriver ref_driver(&ref_site.engine, &ref_site.catalog, &ref_store,
                        MakeOptions());
  auto ref_report = ref_driver.Execute(query);
  ASSERT_TRUE(ref_report.ok()) << ref_report.status().ToString();
  Outcome reference = Digest(ref_driver, *ref_report);
  ASSERT_GT(reference.jobs_run, 1) << "need a multi-job query to kill";
  ASSERT_FALSE(reference.checkpoints.empty());

  // Kill the driver after its first accounted step...
  Site site;
  StatsStore killed_store;
  DynoOptions kill_options = MakeOptions();
  kill_options.abort_after_jobs = 1;
  DynoDriver killed(&site.engine, &site.catalog, &killed_store, kill_options);
  auto killed_report = killed.Execute(query);
  ASSERT_FALSE(killed_report.ok());
  EXPECT_EQ(killed_report.status().code(), StatusCode::kCancelled)
      << killed_report.status().ToString();

  // ...and resume with a brand-new driver and a brand-new stats store (the
  // old process is dead; only the DFS — checkpoints included — survives).
  StatsStore resumed_store;
  DynoDriver resumed(&site.engine, &site.catalog, &resumed_store,
                     MakeOptions());
  auto resumed_report = resumed.Resume(query);
  ASSERT_TRUE(resumed_report.ok()) << resumed_report.status().ToString();
  EXPECT_GT(resumed_report->resumed_steps, 0)
      << "the checkpointed step must be reused, not re-executed";

  Outcome out = Digest(resumed, *resumed_report);
  EXPECT_EQ(out.result_records, reference.result_records);
  EXPECT_EQ(out.result_bytes, reference.result_bytes)
      << "resumed result must be byte-identical to the uninterrupted run";
  EXPECT_EQ(out.checkpoints, reference.checkpoints)
      << "continuation signatures and observed stats must line up";
  // Work split across the two half-runs never exceeds what one run does,
  // and the resumed half skipped at least the checkpointed step.
  EXPECT_LT(out.jobs_run, reference.jobs_run);

  // The resumed result is still the right answer.
  auto expected = NaiveEvaluateJoinBlock(&site.catalog, query.join_block);
  ASSERT_TRUE(expected.ok());
  std::vector<Value> actual = MustReadAll(*resumed_report->result);
  std::vector<Value> want = std::move(expected).value();
  SortRowsForComparison(&actual);
  SortRowsForComparison(&want);
  ASSERT_EQ(actual.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(actual[i].Compare(want[i]), 0);
  }
}

TEST_F(DriverRecoveryTest, ResumeWithCorruptManifestRunsFromScratch) {
  Site site;
  StatsStore store;
  DynoDriver driver(&site.engine, &site.catalog, &store, MakeOptions());

  // A corrupted (here: garbage) manifest must degrade to a full run.
  ASSERT_TRUE(
      WriteRows(&site.dfs, MakeOptions().checkpoint_path,
                {Value::String("corrupted beyond recognition")})
          .ok());
  Query query = MakeTpchQ10();
  auto report = driver.Resume(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->resumed_steps, 0);
  ASSERT_NE(report->result, nullptr);
  EXPECT_GT(report->result_records, 0u);
}

TEST_F(DriverRecoveryTest, ResumeWithoutManifestIsAPlainExecute) {
  Site site;
  StatsStore store;
  DynoDriver driver(&site.engine, &site.catalog, &store, MakeOptions());
  auto report = driver.Resume(MakeTpchQ2());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->resumed_steps, 0);
  EXPECT_GT(report->jobs_run, 0);
}

}  // namespace
}  // namespace dyno
