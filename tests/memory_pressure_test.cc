// Tests of the cluster memory model (DESIGN.md §6.10): reduce-task memory
// accounting, deterministic spill-to-DFS with byte-identity to the
// in-memory path, strict-mode OutOfMemory, the driver's OOM retry ladder
// (spill → doubled reducers → permanent), plan-time/run-time memory-model
// agreement, spill × crash × resume, and memory-aware service admission.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyno/driver.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/dfs.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

// ---------------------------------------------------------------------------
// Engine level: spill path vs in-memory oracle, pinned accounting, strict
// OOM, spill-run corruption, env knobs.
// ---------------------------------------------------------------------------

Value Row(int64_t id, int64_t group) {
  return MakeRow({{"id", Value::Int(id)}, {"g", Value::Int(group)}});
}

class MemoryPressureEngineTest : public ::testing::Test {
 protected:
  /// Baseline (unbounded) cluster; tests override the memory fields.
  /// Env defaults are off so the assertions hold under every ctest preset
  /// (the `memory` preset exports tight DYNO_TASK_MEMORY_BYTES + fault
  /// rates that would otherwise rewrite these configs).
  static ClusterConfig BaseConfig() {
    ClusterConfig config;
    config.job_startup_ms = 1000;
    config.map_slots = 4;
    config.reduce_slots = 4;
    config.faults.use_env_defaults = false;
    return config;
  }

  static ClusterConfig SpillConfig(uint64_t budget) {
    ClusterConfig config = BaseConfig();
    config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
    config.memory_per_task_bytes = budget;
    return config;
  }

  static ClusterConfig StrictConfig(uint64_t budget) {
    ClusterConfig config = BaseConfig();
    config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kStrict;
    config.memory_per_task_bytes = budget;
    return config;
  }

  std::shared_ptr<DfsFile> MakeInput(int rows, const std::string& path) {
    std::vector<Value> data;
    for (int i = 0; i < rows; ++i) data.push_back(Row(i, i % 8));
    auto file = WriteRows(&dfs_, path, data, /*split_bytes=*/256);
    EXPECT_TRUE(file.ok());
    return *file;
  }

  /// Group-by job whose reduce output preserves value arrival order — the
  /// sharpest probe of external-sort equivalence: a different tie order
  /// between runs would reorder the output rows.
  static JobSpec MakeGroupJob(std::shared_ptr<DfsFile> input,
                              const std::string& output) {
    JobSpec spec;
    spec.name = "group";
    spec.output_path = output;
    MapInput mi;
    mi.file = std::move(input);
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Emit(*record.FindField("g"), record);
      return Status::OK();
    };
    spec.inputs = {mi};
    spec.num_reduce_tasks = 2;
    spec.reduce_fn = [](const Value&, const std::vector<Value>& values,
                        ReduceContext* ctx) -> Status {
      for (const Value& v : values) ctx->Output(v);
      return Status::OK();
    };
    return spec;
  }

  Dfs dfs_;
};

TEST_F(MemoryPressureEngineTest, SpillOutputMatchesInMemoryOracle) {
  auto input = MakeInput(400, "/in");

  MapReduceEngine unbounded(&dfs_, BaseConfig());
  auto base = unbounded.Submit(MakeGroupJob(input, "/out_mem"));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(base->status.ok()) << base->status.ToString();
  EXPECT_EQ(base->reduce_spills, 0);
  EXPECT_EQ(base->spill_bytes_written, 0u);

  MapReduceEngine spilling(&dfs_, SpillConfig(/*budget=*/1024));
  auto spilled = spilling.Submit(MakeGroupJob(input, "/out_spill"));
  ASSERT_TRUE(spilled.ok());
  ASSERT_TRUE(spilled->status.ok()) << spilled->status.ToString();
  EXPECT_GT(spilled->reduce_spills, 0);
  EXPECT_GT(spilled->spill_runs, spilled->reduce_spills)
      << "a spilling task writes more than one run";
  EXPECT_GT(spilled->spill_merge_passes, 0);
  EXPECT_EQ(spilled->spill_bytes_written, spilled->spill_bytes_read)
      << "every merge-pass byte written is read back";
  // A spilling task holds exactly the budget; nothing may hold more.
  EXPECT_EQ(spilled->peak_task_memory_bytes, 1024u);
  EXPECT_GT(base->peak_task_memory_bytes, 1024u)
      << "the in-memory oracle holds its full expanded state";

  // Row-for-row identity in file order: the multi-pass external sort must
  // be indistinguishable from one full in-memory stable sort.
  auto rows_mem = ReadAllRows(*base->output);
  auto rows_spill = ReadAllRows(*spilled->output);
  ASSERT_TRUE(rows_mem.ok());
  ASSERT_TRUE(rows_spill.ok());
  ASSERT_EQ(rows_mem->size(), rows_spill->size());
  for (size_t i = 0; i < rows_mem->size(); ++i) {
    ASSERT_EQ((*rows_mem)[i].Compare((*rows_spill)[i]), 0) << "row " << i;
  }
  EXPECT_EQ(base->counters.output_bytes, spilled->counters.output_bytes);

  // Spill runs are scratch: gone once the job is done.
  EXPECT_FALSE(dfs_.Exists("/out_spill.spill/t0"));
  EXPECT_FALSE(dfs_.Exists("/out_spill.spill/t1"));
}

TEST_F(MemoryPressureEngineTest, SpillAccountingIsPinned) {
  // Fixed input + fixed budget pin the whole spill plan. These exact
  // values are the determinism contract: a change to row encoding, the
  // memory factor, or run planning must show up here as a diff, not drift
  // silently.
  auto input = MakeInput(400, "/in");
  obs::MetricsRegistry metrics;
  obs::TraceSink trace;
  MapReduceEngine engine(&dfs_, SpillConfig(/*budget=*/1024));
  engine.set_metrics(&metrics);
  engine.set_trace(&trace);
  auto result = engine.Submit(MakeGroupJob(input, "/out"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  // Two reducers, each with ~2.7 KiB of bucket bytes => ~4 KiB of sort
  // state against a 1 KiB budget: 5 runs apiece, one fan-8 merge pass
  // each, pass I/O of one bucket write + read per task.
  EXPECT_EQ(result->reduce_spills, 2);
  EXPECT_EQ(result->spill_runs, 10);
  EXPECT_EQ(result->spill_merge_passes, 2);
  EXPECT_EQ(result->spill_bytes_written, 5536u);
  EXPECT_EQ(result->spill_bytes_read, 5536u);
  EXPECT_EQ(result->peak_task_memory_bytes, 1024u);
  EXPECT_EQ(result->reduce_tasks_planned, 2);

  EXPECT_EQ(metrics.GetCounter("mr.memory_spilled_tasks")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("mr.memory_spill_bytes")->value(),
            result->spill_bytes_written + result->spill_bytes_read);

  int task_spill_events = 0;
  const std::string serialized = trace.SerializeJsonl();
  for (size_t pos = serialized.find("\"task_spill\"");
       pos != std::string::npos;
       pos = serialized.find("\"task_spill\"", pos + 1)) {
    ++task_spill_events;
  }
  EXPECT_EQ(task_spill_events, 2);
}

TEST_F(MemoryPressureEngineTest, JobTraceEventsCarryQueryAndMemoryArgs) {
  // A query-scoped job's submit and job events carry the job and query
  // tags, and a spill-mode job span carries its memory args; none of them
  // may be recorded with empty args.
  auto input = MakeInput(400, "/in");
  obs::TraceSink trace;
  MapReduceEngine engine(&dfs_, SpillConfig(/*budget=*/1024));
  engine.set_trace(&trace);
  JobSpec spec = MakeGroupJob(input, "/out");
  spec.query_id = "q7";
  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  std::vector<std::string> submits;
  std::vector<std::string> jobs;
  const std::string serialized = trace.SerializeJsonl();
  size_t start = 0;
  while (start < serialized.size()) {
    size_t end = serialized.find('\n', start);
    std::string line = serialized.substr(start, end - start);
    if (line.find("\"name\":\"job_submit\"") != std::string::npos) {
      submits.push_back(line);
    } else if (line.find("\"name\":\"job\"") != std::string::npos) {
      jobs.push_back(line);
    }
    start = end + 1;
  }
  ASSERT_EQ(submits.size(), 1u);
  ASSERT_EQ(jobs.size(), 1u);
  for (const std::string& line : {submits[0], jobs[0]}) {
    EXPECT_NE(line.find("\"job\":\"group\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"query\":\"q7\""), std::string::npos) << line;
  }
  for (const char* arg : {"\"reduce_spills\":2", "\"spill_runs\":10",
                          "\"spill_bytes_written\":5536",
                          "\"peak_task_memory\":1024"}) {
    EXPECT_NE(jobs[0].find(arg), std::string::npos) << arg << " in "
                                                    << jobs[0];
  }
}

TEST_F(MemoryPressureEngineTest, StrictModeFailsJobWithOutOfMemory) {
  auto input = MakeInput(400, "/in");
  obs::MetricsRegistry metrics;
  MapReduceEngine engine(&dfs_, StrictConfig(/*budget=*/1024));
  engine.set_metrics(&metrics);
  auto result = engine.Submit(MakeGroupJob(input, "/out"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(result->output, nullptr);
  EXPECT_FALSE(dfs_.Exists("/out")) << "failed job output must be cleaned";
  EXPECT_FALSE(dfs_.Exists("/out.spill/t0"));
  EXPECT_EQ(result->reduce_spills, 0);
  // The planned reducer count survives the failure — it seeds the driver
  // ladder's doubled-reducer rung.
  EXPECT_EQ(result->reduce_tasks_planned, 2);
  EXPECT_EQ(metrics.GetCounter("mr.memory_oom_failures")->value(), 1u);
}

TEST_F(MemoryPressureEngineTest, SpillModeFailsWhenRunCapExceeded) {
  auto input = MakeInput(400, "/in");
  ClusterConfig config = SpillConfig(/*budget=*/1024);
  config.max_spill_runs = 2;  // The job needs far more runs than this.
  MapReduceEngine engine(&dfs_, config);
  auto result = engine.Submit(MakeGroupJob(input, "/out"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(result->output, nullptr);
  EXPECT_FALSE(dfs_.Exists("/out"));
}

TEST_F(MemoryPressureEngineTest, SpillRunCapIsInclusive) {
  // One reducer, so the job's spill runs are that one partition's runs.
  auto input = MakeInput(400, "/in");
  JobSpec spec = MakeGroupJob(input, "/out_free");
  spec.num_reduce_tasks = 1;
  MapReduceEngine free_engine(&dfs_, SpillConfig(/*budget=*/1024));
  auto free_run = free_engine.Submit(spec);
  ASSERT_TRUE(free_run.ok());
  ASSERT_TRUE(free_run->status.ok()) << free_run->status.ToString();
  const int needed = free_run->spill_runs;
  ASSERT_GT(needed, 2);

  // A partition that needs exactly max_spill_runs runs spills.
  ClusterConfig at_cap = SpillConfig(/*budget=*/1024);
  at_cap.max_spill_runs = needed;
  MapReduceEngine at_cap_engine(&dfs_, at_cap);
  spec.output_path = "/out_at_cap";
  auto fits = at_cap_engine.Submit(spec);
  ASSERT_TRUE(fits.ok());
  ASSERT_TRUE(fits->status.ok()) << fits->status.ToString();
  EXPECT_EQ(fits->reduce_spills, 1);
  EXPECT_EQ(fits->spill_runs, needed);

  // One run over the cap is OutOfMemory.
  ClusterConfig below_cap = SpillConfig(/*budget=*/1024);
  below_cap.max_spill_runs = needed - 1;
  MapReduceEngine below_cap_engine(&dfs_, below_cap);
  spec.output_path = "/out_below_cap";
  auto over = below_cap_engine.Submit(spec);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over->status.code(), StatusCode::kOutOfMemory)
      << over->status.ToString();
  EXPECT_EQ(over->reduce_spills, 0);
}

TEST_F(MemoryPressureEngineTest, StrictModeStateEqualToBudgetFits) {
  // An unbounded run holds the reducer's whole sort state, so its peak is
  // exactly that state.
  auto input = MakeInput(400, "/in");
  JobSpec spec = MakeGroupJob(input, "/out_free");
  spec.num_reduce_tasks = 1;
  MapReduceEngine free_engine(&dfs_, BaseConfig());
  auto free_run = free_engine.Submit(spec);
  ASSERT_TRUE(free_run.ok());
  ASSERT_TRUE(free_run->status.ok()) << free_run->status.ToString();
  const uint64_t state = free_run->peak_task_memory_bytes;
  ASSERT_GT(state, 1u);

  MapReduceEngine exact(&dfs_, StrictConfig(/*budget=*/state));
  spec.output_path = "/out_exact";
  auto fits = exact.Submit(spec);
  ASSERT_TRUE(fits.ok());
  EXPECT_TRUE(fits->status.ok()) << fits->status.ToString();
  EXPECT_EQ(fits->peak_task_memory_bytes, state);

  MapReduceEngine short_by_one(&dfs_, StrictConfig(/*budget=*/state - 1));
  spec.output_path = "/out_short";
  auto over = short_by_one.Submit(spec);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over->status.code(), StatusCode::kOutOfMemory)
      << over->status.ToString();
}

TEST_F(MemoryPressureEngineTest, PerJobOverrideBeatsClusterMode) {
  // JobSpec::reduce_memory_mode = 1 forces spill on an unbounded cluster —
  // the exact mechanism the driver's ladder rung 1 uses.
  auto input = MakeInput(400, "/in");
  MapReduceEngine engine(&dfs_, BaseConfig());
  ASSERT_EQ(engine.config().reduce_memory_mode,
            ClusterConfig::ReduceMemoryMode::kUnbounded);
  JobSpec spec = MakeGroupJob(input, "/out");
  spec.reduce_memory_mode = 1;  // kSpill, despite the cluster default.
  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  // The default 1 MiB budget is never exceeded at this scale: the override
  // arms the accounting without forcing a spill.
  EXPECT_EQ(result->reduce_spills, 0);
  EXPECT_GT(result->peak_task_memory_bytes, 0u);
}

TEST_F(MemoryPressureEngineTest, ScriptedSpillCorruptionRetriesAndHeals) {
  auto input = MakeInput(400, "/in");

  MapReduceEngine oracle(&dfs_, SpillConfig(/*budget=*/1024));
  auto clean = oracle.Submit(MakeGroupJob(input, "/out_clean"));
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->status.ok());

  ClusterConfig config = SpillConfig(/*budget=*/1024);
  FaultConfig::ScriptedCorruption sc;
  sc.target = FaultConfig::ScriptedCorruption::Target::kSpill;
  sc.job = "group";
  sc.task_id = 0;
  sc.attempt = 1;
  config.faults.scripted_corruptions = {sc};
  MapReduceEngine engine(&dfs_, config);
  auto result = engine.Submit(MakeGroupJob(input, "/out"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok())
      << "the corrupt read-back must fail only the attempt, not the job: "
      << result->status.ToString();
  EXPECT_GE(result->task_retries, 1);
  // Three spilled attempts: task 0's corrupt first attempt (billed one
  // merge pass), its clean retry, and task 1.
  EXPECT_EQ(result->reduce_spills, 3);
  EXPECT_GT(result->spill_bytes_written, clean->spill_bytes_written)
      << "the failed attempt's discovery pass is billed";

  // Identical rows to the corruption-free spill run.
  auto rows_clean = ReadAllRows(*clean->output);
  auto rows = ReadAllRows(*result->output);
  ASSERT_TRUE(rows_clean.ok());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows_clean->size(), rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    ASSERT_EQ((*rows_clean)[i].Compare((*rows)[i]), 0) << "row " << i;
  }
}

TEST_F(MemoryPressureEngineTest, EnvKnobsDriveSpillPath) {
  // The only env-dependent test: DYNO_TASK_MEMORY_BYTES + DYNO_SPILL are
  // pinned (and the fault knobs neutralized) so the engine's memory-knob
  // path is genuinely exercised, deterministically under any preset.
  ScopedEnv env({{"DYNO_TASK_MEMORY_BYTES", "1024"},
                 {"DYNO_SPILL", "1"},
                 {"DYNO_FAULT_SEED", "7"},
                 {"DYNO_TASK_FAILURE_RATE", "0"},
                 {"DYNO_STRAGGLER_RATE", "0"},
                 {"DYNO_NODE_FAILURE_RATE", "0"},
                 {"DYNO_BLOCK_CORRUPTION_RATE", "0"},
                 {"DYNO_SHUFFLE_CORRUPTION_RATE", "0"},
                 {"DYNO_POISON_RECORD_RATE", "0"}});
  auto input = MakeInput(400, "/in");

  ClusterConfig config = BaseConfig();
  config.faults.use_env_defaults = true;  // Read the pinned knobs above.
  MapReduceEngine engine(&dfs_, config);
  auto result = engine.Submit(MakeGroupJob(input, "/out"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_GT(result->reduce_spills, 0)
      << "env knobs must arm the spill path";

  MapReduceEngine oracle(&dfs_, BaseConfig());
  auto base = oracle.Submit(MakeGroupJob(input, "/out_mem"));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(base->status.ok());
  auto rows = ReadAllRows(*result->output);
  auto rows_mem = ReadAllRows(*base->output);
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(rows_mem.ok());
  ASSERT_EQ(rows->size(), rows_mem->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    ASSERT_EQ((*rows)[i].Compare((*rows_mem)[i]), 0) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Driver level: the OOM retry ladder, cost-model agreement, and
// spill × crash × resume.
// ---------------------------------------------------------------------------

class MemoryPressureDriverTest : public ::testing::Test {
 protected:
  MemoryPressureDriverTest() : catalog_(&dfs_) {
    TpchConfig config;
    config.scale = 0.0005;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  /// Strict reduce memory: any over-budget shuffle kills the job — only
  /// the ladder can save a repartition-heavy query.
  static ClusterConfig StrictConfig(uint64_t budget) {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.memory_per_task_bytes = budget;
    config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kStrict;
    config.faults.use_env_defaults = false;
    return config;
  }

  /// Repartition-only planning (no broadcast escape hatch), so reduce-side
  /// memory pressure cannot be planned around.
  DynoOptions RepartitionOnlyOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.cost.enable_broadcast = false;
    options.cost.enable_broadcast_chains = false;
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
      ASSERT_EQ(actual[i].Compare(want[i]), 0) << "row " << i;
    }
  }

  Dfs dfs_;
  Catalog catalog_;
  StatsStore store_;
};

TEST_F(MemoryPressureDriverTest, WithoutLadderStrictOomIsFatal) {
  MapReduceEngine engine(&dfs_, StrictConfig(/*budget=*/8 * 1024));
  DynoOptions options = RepartitionOnlyOptions();
  options.oom_retry_ladder = 0;  // Legacy: OutOfMemory is never retried.
  DynoDriver driver(&engine, &catalog_, &store_, options);
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(MemoryPressureDriverTest, LadderRescuesStrictOomViaSpill) {
  MapReduceEngine engine(&dfs_, StrictConfig(/*budget=*/8 * 1024));
  DynoOptions options = RepartitionOnlyOptions();
  options.oom_retry_ladder = 1;  // Rung 1: re-run in spill mode.
  DynoDriver driver(&engine, &catalog_, &store_, options);
  Query q10 = MakeTpchQ10();
  auto report = driver.Execute(q10);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->oom_retries, 1);
  EXPECT_GT(report->reduce_spills, 0)
      << "the rescued re-run must actually have spilled";
  EXPECT_GT(report->spill_bytes_written, 0u);
  EXPECT_GT(report->peak_task_memory_bytes, 0u);
  ExpectMatchesOracle(q10, *report);
}

TEST_F(MemoryPressureDriverTest, LadderEscalatesToDoubledReducers) {
  // A run cap of 1 makes rung 1 (spill at the planned reducer count) OOM
  // again: only the doubled-reducer rungs — which shrink per-reducer state
  // until it fits the budget outright — can finish the query.
  ClusterConfig config = StrictConfig(/*budget=*/8 * 1024);
  config.max_spill_runs = 1;
  MapReduceEngine engine(&dfs_, config);
  DynoOptions options = RepartitionOnlyOptions();
  options.oom_retry_ladder = 6;
  DynoDriver driver(&engine, &catalog_, &store_, options);
  Query q10 = MakeTpchQ10();
  auto report = driver.Execute(q10);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->oom_retries, 2)
      << "rung 1 alone cannot satisfy a run cap of 1";
  ExpectMatchesOracle(q10, *report);
}

TEST_F(MemoryPressureDriverTest, ExhaustedLadderSurfacesPermanentOom) {
  ClusterConfig config = StrictConfig(/*budget=*/8 * 1024);
  config.max_spill_runs = 1;
  MapReduceEngine engine(&dfs_, config);
  DynoOptions options = RepartitionOnlyOptions();
  options.oom_retry_ladder = 1;  // Spill-only rung, which the cap defeats.
  DynoDriver driver(&engine, &catalog_, &store_, options);
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(MemoryPressureDriverTest, CostSyncPreventsInfeasibleBroadcasts) {
  // Same deliberately-lying options as extensions_test's fallback tests —
  // but with the default sync_cost_memory the driver overwrites the lie
  // with the engine's real 2 KiB budget at construction, so the optimizer
  // never picks a broadcast the engine would kill: zero fallbacks, instead
  // of the >0 the split-brain variant asserts.
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.memory_per_task_bytes = 2 * 1024;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs_, config);
  DynoOptions options;
  options.pilot.k = 256;
  options.cost.max_memory_bytes = 64 * 1024;  // The lie sync overwrites.
  options.cost.estimated_build_margin = 1.0;
  options.adaptive_join_fallback = true;
  DynoDriver driver(&engine, &catalog_, &store_, options);
  EXPECT_EQ(driver.options().cost.max_memory_bytes, 2u * 1024u)
      << "construction must adopt the engine's budget";
  Query q10 = MakeTpchQ10();
  auto report = driver.Execute(q10);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->broadcast_fallbacks, 0)
      << "a synced cost model never needs the runtime fallback";
  ExpectMatchesOracle(q10, *report);
}

TEST_F(MemoryPressureDriverTest, SpillSurvivesDriverCrashAndResume) {
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.memory_per_task_bytes = 8 * 1024;
  config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs_, config);

  DynoOptions options = RepartitionOnlyOptions();
  options.checkpoint_path = "/ckpt/mem";
  options.abort_after_jobs = 2;  // Die mid-query, after real spill work.
  DynoDriver crashed(&engine, &catalog_, &store_, options);
  Query q10 = MakeTpchQ10();
  auto first = crashed.Execute(q10);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kCancelled);

  options.abort_after_jobs = -1;
  DynoDriver restarted(&engine, &catalog_, &store_, options);
  auto report = restarted.Resume(q10);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->resumed_steps, 1)
      << "the continuation must reuse checkpointed spill-era steps";
  ExpectMatchesOracle(q10, *report);
}

// ---------------------------------------------------------------------------
// Service level: the cluster memory ledger.
// ---------------------------------------------------------------------------

class MemoryPressureServiceTest : public ::testing::Test {
 protected:
  MemoryPressureServiceTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    TpchConfig config;
    config.scale = 0.0005;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
    engine_.set_metrics(&metrics_);
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    config.faults.use_env_defaults = false;
    return config;
  }

  QuerySubmission MakeSubmission(const std::string& id, const Query& query,
                                 SimMillis arrival = 0) {
    QuerySubmission sub;
    sub.query_id = id;
    sub.query = query;
    sub.options.pilot.k = 256;
    sub.options.pilot.mode = PilotRunOptions::Mode::kParallel;
    sub.options.cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    sub.arrival_offset_ms = arrival;
    return sub;
  }

  uint64_t CounterValue(const std::string& name) {
    return metrics_.GetCounter(name)->value();
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
  obs::MetricsRegistry metrics_;
};

TEST_F(MemoryPressureServiceTest, LedgerSerializesOversubscribedAdmissions) {
  QueryServiceOptions opts;
  opts.max_concurrent = 3;  // Slots alone would admit all three at once.
  opts.memory_ledger_bytes = 100 * 1024;
  opts.default_query_memory_bytes = 60 * 1024;  // Two never fit together.
  QueryService service(&engine_, &catalog_, &store_, opts);
  ASSERT_TRUE(service.Enqueue(MakeSubmission("m1", MakeTpchQ2())).ok());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("m2", MakeTpchQ2())).ok());
  ASSERT_TRUE(service.Enqueue(MakeSubmission("m3", MakeTpchQ2())).ok());

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const QueryOutcome& o : outcomes) {
    EXPECT_TRUE(o.status.ok()) << o.query_id << ": " << o.status.ToString();
  }
  // The ledger admits one 60 KiB query at a time: strictly staggered
  // admissions despite three free slots at t=0.
  EXPECT_GT(outcomes[1].admit_ms, outcomes[0].admit_ms);
  EXPECT_GT(outcomes[2].admit_ms, outcomes[1].admit_ms);
  EXPECT_GE(CounterValue("service.memory_held_back"), 2u);
  EXPECT_EQ(metrics_.GetGauge("service.memory_reserved_bytes")->value(), 0)
      << "every reservation must be released at finalization";
}

TEST_F(MemoryPressureServiceTest, FirstQueryAlwaysAdmitsEvenOverLedger) {
  // An estimate larger than the whole ledger must not deadlock admission:
  // with nothing reserved, the charge is taken anyway.
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  opts.memory_ledger_bytes = 10 * 1024;
  QueryService service(&engine_, &catalog_, &store_, opts);
  QuerySubmission huge = MakeSubmission("huge", MakeTpchQ2());
  huge.estimated_memory_bytes = 1 << 30;
  ASSERT_TRUE(service.Enqueue(huge).ok());
  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_EQ(outcomes[0].admit_ms, 0);
}

TEST_F(MemoryPressureServiceTest, MemoryPressureTriggersLoadShedding) {
  QueryServiceOptions opts;
  opts.max_concurrent = 2;
  opts.memory_ledger_bytes = 100 * 1024;
  opts.load_shed_pressure = 0.8;  // Ledger 90% promised => overloaded.
  QueryService service(&engine_, &catalog_, &store_, opts);
  QuerySubmission big = MakeSubmission("big", MakeTpchQ10());
  big.estimated_memory_bytes = 90 * 1024;
  big.priority = 1;  // Above the shed ceiling; never itself sheddable.
  QuerySubmission shed_me = MakeSubmission("shed_me", MakeTpchQ2(), 100);
  shed_me.estimated_memory_bytes = 60 * 1024;
  ASSERT_TRUE(service.Enqueue(big).ok());
  ASSERT_TRUE(service.Enqueue(shed_me).ok());

  std::vector<QueryOutcome> outcomes = service.RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_EQ(outcomes[1].status.code(), StatusCode::kResourceExhausted)
      << outcomes[1].status.ToString();
  EXPECT_EQ(outcomes[1].admit_ms, -1) << "shed queries never held a slot";
  EXPECT_EQ(CounterValue("service.shed"), 1u);
  EXPECT_GE(CounterValue("service.memory_held_back"), 1u);
}

}  // namespace
}  // namespace dyno
