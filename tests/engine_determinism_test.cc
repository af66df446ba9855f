// The engine's determinism contract: simulated timestamps, counters, DFS
// outputs and every derived statistic depend only on the configuration and
// the workload, so two runs of the same configuration are byte-identical.
// This test runs one multi-job workload — concurrent map-only and
// map-reduce jobs with an output observer, followed by a PILR_MT pilot with
// an active stop condition — and the service workloads twice each, and
// compares full-state fingerprints. The clean, faulty and spilling engine
// fingerprints and the query-service fingerprints are also compared byte
// for byte with checked-in goldens (tests/golden/*.fp), so a change that
// moves them fails even though both runs agree; regenerate after an
// intended change with DYNO_UPDATE_GOLDEN=1 ./engine_determinism_test.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dyno/driver.h"
#include "expr/expr.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pilot/pilot_runner.h"
#include "service/query_service.h"
#include "stats/table_stats.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

/// The legacy fault-scenario tests pin their fault draws with a fixed seed
/// AND assume the seed's row-format task timings (e.g. the node-crash
/// schedule is tuned so crashes catch completed map outputs). Pin the data
/// plane to row format so a columnar ctest preset cannot shift the
/// timeline out from under those assertions; columnar coverage lives in
/// the Columnar* tests below, which pin the knobs on instead.
ScopedEnv RowMode() {
  return ScopedEnv({{"DYNO_COLUMNAR", "0"}, {"DYNO_ZONE_MAPS", "0"}});
}

/// Row mode plus the driver's environment-read recovery knobs at their
/// defaults, so a ctest preset (node-faults exports DYNO_MAX_JOB_ATTEMPTS)
/// cannot move a fingerprint that is compared against a checked-in golden.
ScopedEnv GoldenEnv() {
  return ScopedEnv({{"DYNO_COLUMNAR", "0"},
                    {"DYNO_ZONE_MAPS", "0"},
                    {"DYNO_MAX_JOB_ATTEMPTS", "1"},
                    {"DYNO_RETRY_BUDGET_MS", "0"},
                    {"DYNO_OOM_RETRIES", "0"}});
}

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Exhaustive digest of one job result: every timing, counter and the raw
/// output bytes (split structure included).
std::string FingerprintJob(const JobResult& job) {
  std::string out = StrFormat(
      "status=%d submit=%lld finish=%lld maps=%d skipped=%d reduces=%d "
      "obs_ms=%lld mir=%llu mib=%llu mor=%llu mob=%llu rir=%llu or=%llu "
      "ob=%llu",
      static_cast<int>(job.status.code()),
      static_cast<long long>(job.submit_time_ms),
      static_cast<long long>(job.finish_time_ms), job.map_tasks_run,
      job.map_tasks_skipped, job.reduce_tasks_run,
      static_cast<long long>(job.observer_overhead_ms),
      (unsigned long long)job.counters.map_input_records,
      (unsigned long long)job.counters.map_input_bytes,
      (unsigned long long)job.counters.map_output_records,
      (unsigned long long)job.counters.map_output_bytes,
      (unsigned long long)job.counters.reduce_input_records,
      (unsigned long long)job.counters.output_records,
      (unsigned long long)job.counters.output_bytes);
  out += StrFormat(" inj=%d retry=%d spec=%d specwin=%d",
                   job.task_failures_injected, job.task_retries,
                   job.speculative_launches, job.speculative_wins);
  out += StrFormat(" ncrash=%d nkill=%d ninv=%d nshuf=%d",
                   job.node_crashes_observed, job.attempts_killed_by_node,
                   job.maps_invalidated, job.shuffle_fetch_retries);
  out += StrFormat(" bcorr=%d refetch=%d quar=%llu qpath=%s",
                   job.block_corruptions, job.checksum_refetches,
                   (unsigned long long)job.records_quarantined,
                   job.quarantine_path.c_str());
  if (job.output != nullptr) {
    uint64_t h = 14695981039346656037ull;
    for (const Split& split : job.output->splits()) {
      h = Fnv1a(h, split.data);
      out += StrFormat(" s%llu", (unsigned long long)split.num_records);
    }
    out += StrFormat(" data=%llx", (unsigned long long)h);
  }
  return out;
}

std::string FingerprintStats(const TableStats& stats,
                             const std::string& column) {
  return StrFormat("card=%.17g rec=%.17g sample=%d ndv=%.17g",
                   stats.cardinality, stats.avg_record_size,
                   stats.from_sample ? 1 : 0, stats.ColumnNdv(column));
}

/// Builds a fresh cluster, runs the whole workload, and digests every
/// observable outcome into one string. `faults` (optional) switches on the
/// deterministic fault model; `totals` (optional) folds every job's
/// counters, so tests can assert the fault path was genuinely exercised.
std::string RunWorkload(const FaultConfig* faults = nullptr,
                        JobTotals* totals = nullptr) {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.map_slots = 8;
  config.reduce_slots = 4;
  config.job_startup_ms = 500;
  // Pin the fault settings so the ctest fault preset's env vars cannot
  // perturb these fingerprint comparisons.
  config.faults.use_env_defaults = false;
  if (faults != nullptr) {
    config.faults = *faults;
    config.faults.use_env_defaults = false;
  }
  MapReduceEngine engine(&dfs, config);
  // The serialized trace is part of the fingerprint: event content AND
  // buffer order must be byte-identical from run to run, since the
  // golden-trace tests rely on exactly that.
  obs::TraceSink trace;
  engine.set_trace(&trace);

  std::vector<Value> rows;
  for (int i = 0; i < 6000; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"k", Value::Int(i % 500)},
                            {"flag", Value::Int(i % 2)},
                            {"pad", Value::String(std::string(40, 'x'))}}));
  }
  EXPECT_TRUE(catalog.CreateTable("big", rows).ok());
  std::vector<Value> small;
  for (int i = 0; i < 400; ++i) {
    small.push_back(
        MakeRow({{"sid", Value::Int(i)}, {"sk", Value::Int(i % 40)}}));
  }
  EXPECT_TRUE(catalog.CreateTable("small", small).ok());

  auto big = catalog.OpenTable("big");
  EXPECT_TRUE(big.ok());

  // Job A: map-only filter+project over every split of "big".
  JobSpec copy;
  copy.name = "copy";
  copy.output_path = "/out/copy";
  {
    MapInput input;
    input.file = *big;
    input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      const Value* flag = record.FindField("flag");
      if (flag != nullptr && flag->int_value() == 1) {
        ctx->Output(MakeRow({{"id", *record.FindField("id")},
                             {"k", *record.FindField("k")}}));
      }
      return Status::OK();
    };
    copy.inputs = {std::move(input)};
  }

  // Job B: map-reduce group-count with an output observer collecting
  // statistics — submitted concurrently with Job A so the two contend for
  // the same slots.
  auto observer_stats = std::make_shared<StatsCollector>(
      std::vector<std::string>{"g"}, /*kmv_k=*/128);
  JobSpec group;
  group.name = "group";
  group.output_path = "/out/group";
  {
    MapInput input;
    input.file = *big;
    input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      const Value* k = record.FindField("k");
      ctx->Emit(Value::Int(k->int_value() % 100), Value::Int(1));
      return Status::OK();
    };
    group.inputs = {std::move(input)};
  }
  // Pin the reducer count: auto-sizing from emitted bytes would give this
  // small shuffle a single reducer, leaving corruption-regime tests only
  // one draw per attempt for the shuffle-checksum path.
  group.num_reduce_tasks = 4;
  group.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                       ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow({{"g", key},
                         {"n", Value::Int(static_cast<int64_t>(
                                   values.size()))}}));
    return Status::OK();
  };
  group.output_observer = [observer_stats](const Value& record) {
    observer_stats->Observe(record);
  };
  group.observer_cpu_per_record = observer_stats->CpuCostPerRecord();

  auto results = engine.SubmitAll({copy, group});
  EXPECT_TRUE(results.ok());

  std::string fp = StrFormat("now0=%lld\n",
                             static_cast<long long>(engine.now()));
  for (const JobResult& job : *results) {
    fp += FingerprintJob(job) + "\n";
    if (totals != nullptr) totals->Add(job);
  }
  fp += "observer=" + FingerprintStats(observer_stats->Finalize(1.0), "g") +
        "\n";

  // PILR_MT pilot with an active stop count: the "big" leaf reaches k
  // long before its splits run out, so batches race the stop count.
  StatsStore store;
  PilotRunOptions options;
  options.mode = PilotRunOptions::Mode::kParallel;
  options.k = 300;
  options.reuse_stats = false;
  options.seed = 7;
  PilotRunner runner(&engine, &catalog, &store, options);

  LeafExpr big_leaf;
  big_leaf.alias = "b";
  big_leaf.table = "big";
  big_leaf.filter = Eq(Col("flag"), LitInt(1));
  big_leaf.join_columns = {"k"};
  LeafExpr small_leaf;
  small_leaf.alias = "s";
  small_leaf.table = "small";
  small_leaf.join_columns = {"sk"};

  auto report = runner.Run({big_leaf, small_leaf});
  EXPECT_TRUE(report.ok());
  fp += StrFormat("pilot elapsed=%lld executed=%d\n",
                  static_cast<long long>(report->elapsed_ms),
                  report->runs_executed);
  for (const PilotLeafResult& leaf : report->leaves) {
    fp += leaf.alias + " " +
          FingerprintStats(leaf.stats,
                           leaf.alias == "b" ? "k" : "sk");
    if (leaf.full_output != nullptr) {
      fp += StrFormat(" full=%llu",
                      (unsigned long long)leaf.full_output->num_records());
    }
    fp += "\n";
  }
  fp += StrFormat("now=%lld", static_cast<long long>(engine.now()));
  fp += "\ntrace:\n" + trace.SerializeJsonl();
  return fp;
}

TEST(EngineDeterminismTest, RepeatedRunsAreStable) {
  ScopedEnv env = GoldenEnv();
  // Two runs guard against hidden global state (RNG, clock,
  // allocation-order dependence); the golden pins the bytes across commits.
  std::string one = RunWorkload();
  EXPECT_EQ(one, RunWorkload()) << "two clean runs diverged";
  CompareWithGolden("engine_clean.fp", one);
  // Sanity: the workload actually did something.
  EXPECT_NE(one.find("maps="), std::string::npos);
}

TEST(EngineDeterminismTest, IdenticalResultsUnderFaultInjection) {
  ScopedEnv env = GoldenEnv();
  // The fault model's draws (injected failures, straggler slowdowns,
  // speculative races) all happen at launch time from seeded per-job
  // streams, so the contract must survive a failure-heavy run.
  FaultConfig faults;
  faults.seed = 42;
  faults.task_failure_rate = 0.12;
  faults.straggler_rate = 0.12;
  faults.straggler_slowdown = 6.0;
  faults.speculative_slowness_threshold = 1.5;
  faults.retry_backoff_ms = 200;

  JobTotals totals;
  std::string one = RunWorkload(&faults, &totals);
  EXPECT_EQ(one, RunWorkload(&faults)) << "two faulty runs diverged";
  CompareWithGolden("engine_faults.fp", one);

  // The comparison is only meaningful if faults actually fired.
  EXPECT_GT(totals.task_failures_injected, 0);
  EXPECT_GT(totals.task_retries, 0);
  EXPECT_GT(totals.speculative_launches, 0);

  // And a faulty run is genuinely different from a clean one.
  EXPECT_NE(one, RunWorkload());
}

TEST(EngineDeterminismTest, IdenticalResultsUnderNodeCrashes) {
  ScopedEnv row_mode = RowMode();
  // Node crashes kill in-flight attempts, invalidate resident map outputs
  // and trigger shuffle re-fetches — all drawn from seeded per-job streams,
  // so two crash-heavy runs must also be byte-identical.
  FaultConfig faults;
  faults.seed = 99;
  faults.node_failure_rate = 0.2;
  faults.node_recovery_ms = 200;  // nodes rejoin: slow, never doomed
  faults.retry_backoff_ms = 100;

  JobTotals totals;
  std::string one = RunWorkload(&faults, &totals);
  EXPECT_EQ(one, RunWorkload(&faults)) << "two crashy runs diverged";

  EXPECT_GT(totals.node_crashes_observed, 0)
      << "no node crash fired at this rate";
  EXPECT_GT(totals.maps_invalidated, 0)
      << "no crash ever caught a completed map output";
  EXPECT_NE(one, RunWorkload());
}

TEST(EngineDeterminismTest, IdenticalResultsUnderDataCorruption) {
  ScopedEnv row_mode = RowMode();
  // Corruption draws (bad replica reads, corrupt shuffle fetches, poison
  // record positions) are all made at launch from the per-job fault stream,
  // so two corruption-heavy runs — skip-mode re-runs, quarantine files and
  // integrity trace events included — must be byte-identical.
  FaultConfig faults;
  faults.seed = 77;
  faults.block_corruption_rate = 0.15;
  faults.shuffle_corruption_rate = 0.5;
  faults.poison_record_rate = 0.005;
  faults.max_skipped_records = -1;
  faults.retry_backoff_ms = 100;

  JobTotals totals;
  std::string one = RunWorkload(&faults, &totals);
  EXPECT_EQ(one, RunWorkload(&faults)) << "two corrupt runs diverged";

  // The comparison only means something if each corruption path fired.
  EXPECT_GT(totals.block_corruptions, 0);
  EXPECT_GT(totals.checksum_refetches, 0);
  EXPECT_GT(totals.records_quarantined, 0u);
  EXPECT_NE(one, RunWorkload());
}

/// Spill-heavy memory-pressure workload: a tight per-task budget in kSpill
/// mode plus fault injection (task failures and corruption draws, which
/// also arm random spill-run rot), so run formation, bounded-memory merge
/// passes, corrupt-run retries and the billed spill I/O all fire under
/// slot contention. Every draw happens at launch from seeded per-job
/// streams, so the digest — job accounting, spill counters, output bytes
/// and the serialized trace — must be byte-identical from run to run.
std::string RunMemoryPressureWorkload(JobTotals* totals = nullptr,
                                      int* spilled_tasks = nullptr) {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.map_slots = 8;
  config.reduce_slots = 4;
  config.job_startup_ms = 500;
  config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
  config.memory_per_task_bytes = 2048;
  config.spill_merge_fan_in = 4;
  // Pin the fault settings so the memory preset's env vars (tight budget,
  // DYNO_SPILL, fault rates) cannot perturb these fingerprint comparisons.
  config.faults.use_env_defaults = false;
  config.faults.seed = 1234;
  config.faults.task_failure_rate = 0.08;
  config.faults.block_corruption_rate = 0.05;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);
  obs::TraceSink trace;
  engine.set_trace(&trace);

  std::vector<Value> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"k", Value::Int(i % 160)},
                            {"pad", Value::String(std::string(24, 'y'))}}));
  }
  EXPECT_TRUE(catalog.CreateTable("wide", rows).ok());
  auto wide = catalog.OpenTable("wide");
  EXPECT_TRUE(wide.ok());

  // Map-only copy contending for the same slots as the spilling reducers.
  JobSpec copy;
  copy.name = "mcopy";
  copy.output_path = "/out/mcopy";
  {
    MapInput input;
    input.file = *wide;
    input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Output(MakeRow({{"id", *record.FindField("id")}}));
      return Status::OK();
    };
    copy.inputs = {std::move(input)};
  }

  // Group job whose padded values push every reducer's buffered state far
  // past the 2 KiB budget, forcing multi-run spills and merge passes.
  JobSpec group;
  group.name = "mgroup";
  group.output_path = "/out/mgroup";
  {
    MapInput input;
    input.file = *wide;
    input.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      const Value* k = record.FindField("k");
      ctx->Emit(Value::Int(k->int_value() % 20),
                MakeRow({{"id", *record.FindField("id")},
                         {"pad", *record.FindField("pad")}}));
      return Status::OK();
    };
    group.inputs = {std::move(input)};
  }
  group.num_reduce_tasks = 4;
  group.reduce_fn = [](const Value& key, const std::vector<Value>& values,
                       ReduceContext* ctx) -> Status {
    ctx->Output(MakeRow({{"g", key},
                         {"n", Value::Int(static_cast<int64_t>(
                                   values.size()))}}));
    return Status::OK();
  };

  auto results = engine.SubmitAll({copy, group});
  EXPECT_TRUE(results.ok());

  std::string fp = StrFormat("now0=%lld\n",
                             static_cast<long long>(engine.now()));
  for (const JobResult& job : *results) {
    fp += FingerprintJob(job);
    fp += StrFormat(" rsp=%d runs=%d passes=%d sw=%llu sr=%llu peak=%llu "
                    "planned=%d\n",
                    job.reduce_spills, job.spill_runs,
                    job.spill_merge_passes,
                    (unsigned long long)job.spill_bytes_written,
                    (unsigned long long)job.spill_bytes_read,
                    (unsigned long long)job.peak_task_memory_bytes,
                    job.reduce_tasks_planned);
    if (totals != nullptr) totals->Add(job);
    if (spilled_tasks != nullptr) {
      *spilled_tasks += job.reduce_spills;
    }
  }
  fp += StrFormat("now=%lld", static_cast<long long>(engine.now()));
  fp += "\ntrace:\n" + trace.SerializeJsonl();
  return fp;
}

TEST(EngineDeterminismTest, MemoryPressureSpillsDeterministic) {
  ScopedEnv env = GoldenEnv();
  JobTotals totals;
  int spilled_tasks = 0;
  std::string one = RunMemoryPressureWorkload(&totals, &spilled_tasks);
  EXPECT_EQ(one, RunMemoryPressureWorkload()) << "two spill runs diverged";
  CompareWithGolden("engine_spill.fp", one);

  // The comparison only means something if the memory model engaged.
  EXPECT_GT(spilled_tasks, 0) << "no reducer spilled at this budget";
  EXPECT_GT(totals.task_failures_injected, 0);
  EXPECT_NE(one.find("task_spill"), std::string::npos)
      << "spill events missing from the serialized trace";
}

/// A driver run killed mid-query and resumed from its checkpoint, digested
/// down to what recovery promises to preserve: result rows and records,
/// job accounting and the checkpointed (signature, stats) pairs. DFS paths
/// and the trace are excluded on purpose — they embed process-global
/// instance ids that legitimately differ between runs in one process.
std::string RunResumeWorkload() {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

  DynoOptions options;
  options.pilot.k = 256;
  options.pilot.mode = PilotRunOptions::Mode::kParallel;
  options.cost.max_memory_bytes = config.memory_per_task_bytes;
  options.cost.memory_factor = 1.5;
  options.checkpoint_path = "/ckpt/resume_fp";

  Query query = MakeTpchQ10();
  {
    StatsStore store;
    DynoOptions kill = options;
    kill.abort_after_jobs = 1;
    DynoDriver driver(&engine, &catalog, &store, kill);
    auto report = driver.Execute(query);
    EXPECT_FALSE(report.ok());
  }
  StatsStore store;
  DynoDriver driver(&engine, &catalog, &store, options);
  auto report = driver.Resume(query);
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return report.status().ToString();

  uint64_t h = 14695981039346656037ull;
  for (const Split& split : report->result->splits()) h = Fnv1a(h, split.data);
  std::string fp = StrFormat(
      "rows=%llx records=%llu jobs=%d resumed=%d temp=%lld\n",
      (unsigned long long)h, (unsigned long long)report->result_records,
      report->jobs_run, report->resumed_steps,
      static_cast<long long>(driver.manifest().temp_counter));
  for (const CheckpointEntry& entry : driver.manifest().entries) {
    fp += entry.signature + " " + entry.relation_id + " [";
    for (const std::string& alias : entry.covered) fp += alias + ",";
    fp += StrFormat("] card=%.17g rec=%.17g\n", entry.stats.cardinality,
                    entry.stats.avg_record_size);
  }
  return fp;
}

/// The concurrent workload: eight TPC-H query sessions with a seeded
/// arrival schedule, multiplexed through the QueryService over one cluster
/// with task faults AND data corruption switched on. The fingerprint
/// digests every per-query outcome (status, admission/finish times, result
/// bytes, slot accounting, fault totals), the service metrics and the full
/// serialized trace — all of which must be byte-identical from run to run.
std::string RunConcurrentWorkload(JobTotals* totals = nullptr,
                                  bool with_cache = false) {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  config.faults.use_env_defaults = false;
  config.faults.seed = 11;
  config.faults.task_failure_rate = 0.03;
  config.faults.straggler_rate = 0.05;
  config.faults.straggler_slowdown = 4.0;
  config.faults.block_corruption_rate = 0.02;
  config.faults.shuffle_corruption_rate = 0.05;
  config.faults.poison_record_rate = 0.0005;
  config.faults.max_skipped_records = -1;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  engine.set_trace(&trace);
  engine.set_metrics(&metrics);

  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

  StatsStore store;
  QueryServiceOptions service_options;
  service_options.max_concurrent = 3;
  service_options.tenant_slots = 2;
  service_options.seed = 1234;
  service_options.arrival_window_ms = 60000;
  service_options.enable_subtree_cache = with_cache;
  QueryService service(&engine, &catalog, &store, service_options);

  for (int i = 0; i < 8; ++i) {
    QuerySubmission sub;
    sub.query_id = StrFormat("q%02d", i);
    sub.tenant = (i % 2 == 0) ? "alpha" : "beta";
    sub.query = (i % 2 == 0) ? MakeTpchQ10() : MakeTpchQ2();
    sub.options.pilot.k = 256;
    sub.options.pilot.mode = PilotRunOptions::Mode::kParallel;
    sub.options.cost.max_memory_bytes = config.memory_per_task_bytes;
    sub.options.cost.memory_factor = 1.5;
    sub.options.checkpoint_path = "/ckpt/concurrent";
    sub.arrival_offset_ms = -1;  // seeded service RNG stream
    EXPECT_TRUE(service.Enqueue(std::move(sub)).ok());
  }

  std::string fp;
  for (const QueryOutcome& outcome : service.RunAll()) {
    fp += StrFormat(
        "%s tenant=%s status=%d arrive=%lld admit=%lld finish=%lld "
        "slot=%lld",
        outcome.query_id.c_str(), outcome.tenant.c_str(),
        static_cast<int>(outcome.status.code()),
        (long long)outcome.arrival_ms, (long long)outcome.admit_ms,
        (long long)outcome.finish_ms, (long long)outcome.slot_ms);
    if (outcome.status.ok()) {
      const QueryRunReport& report = outcome.report;
      uint64_t h = 14695981039346656037ull;
      if (report.result != nullptr) {
        for (const Split& split : report.result->splits()) {
          h = Fnv1a(h, split.data);
        }
      }
      fp += StrFormat(
          " jobs=%d records=%llu rows=%llx inj=%d retry=%d bcorr=%d "
          "refetch=%d quar=%llu",
          report.jobs_run, (unsigned long long)report.result_records,
          (unsigned long long)h, report.task_failures_injected,
          report.task_retries, report.block_corruptions,
          report.checksum_refetches,
          (unsigned long long)report.records_quarantined);
      if (totals != nullptr) totals->Add(report);
    }
    fp += "\n";
  }
  fp += StrFormat("now=%lld\n", (long long)engine.now());
  fp += "metrics:\n" + metrics.Serialize();
  fp += "trace:\n" + trace.SerializeJsonl();
  return fp;
}

TEST(EngineDeterminismTest, ConcurrentQueriesDeterministic) {
  ScopedEnv row_mode = RowMode();
  JobTotals totals;
  std::string one = RunConcurrentWorkload(&totals);
  EXPECT_EQ(one, RunConcurrentWorkload()) << "two concurrent runs diverged";
  // Every session must actually have completed.
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(one.find(StrFormat("q%02d tenant=", i)), std::string::npos);
    EXPECT_NE(one.find(StrFormat("q%02d tenant=%s status=0", i,
                                 i % 2 == 0 ? "alpha" : "beta")),
              std::string::npos)
        << "query q" << i << " did not complete:\n"
        << one.substr(0, 2000);
  }
  // And the fault/corruption paths genuinely fired somewhere.
  EXPECT_GT(totals.task_failures_injected + totals.task_retries, 0);
  EXPECT_GT(totals.block_corruptions + totals.checksum_refetches +
                static_cast<int>(totals.records_quarantined),
            0);
}

// The same concurrent workload with the cross-query subtree cache enabled:
// hit patterns depend only on admission order (lookups and publishes happen
// on session fibers that run one at a time), so the fingerprint — per-query
// result bytes, cache metrics, the full trace — must stay byte-identical
// from run to run.
TEST(EngineDeterminismTest, ConcurrentQueriesWithSubtreeCacheDeterministic) {
  {
    // Pinned to the checked-in fingerprint, not only run against run: a
    // service refactor that moved the bytes of every run would pass the
    // comparison below. The golden run fixes the recovery knobs a ctest
    // preset may export; the repeated runs keep the inherited ones.
    ScopedEnv env = GoldenEnv();
    CompareWithGolden("service_concurrent_cached.fp",
                      RunConcurrentWorkload(nullptr, /*with_cache=*/true));
  }
  ScopedEnv row_mode = RowMode();
  std::string one = RunConcurrentWorkload(nullptr, /*with_cache=*/true);
  EXPECT_EQ(one, RunConcurrentWorkload(nullptr, /*with_cache=*/true))
      << "two cached runs diverged";
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(one.find(StrFormat("q%02d tenant=%s status=0", i,
                                 i % 2 == 0 ? "alpha" : "beta")),
              std::string::npos)
        << "query q" << i << " did not complete";
  }
  // The cache genuinely participated (the workload repeats two query
  // shapes, so later sessions must hit the earlier sessions' entries).
  EXPECT_NE(one.find("cache.hits"), std::string::npos)
      << "no cache activity in the metrics fingerprint:\n"
      << one.substr(one.find("metrics:"), 2000);
}

/// The overload regime: eight sessions with mixed priorities squeezed
/// through two slots with priority preemption, a service checkpoint
/// namespace, and one hopeless deadline — under task faults AND data
/// corruption. Preemption victims are cancelled at a submission point,
/// re-queued and resumed from their checkpoint manifests; every one of
/// those decisions happens on the scheduler thread, so the complete
/// fingerprint (per-query outcomes with priorities/preemption counts,
/// service metrics, the full trace) must be byte-identical from run to run.
std::string RunOverloadWorkload() {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  config.faults.use_env_defaults = false;
  config.faults.seed = 11;
  config.faults.task_failure_rate = 0.03;
  config.faults.straggler_rate = 0.05;
  config.faults.straggler_slowdown = 4.0;
  config.faults.block_corruption_rate = 0.02;
  config.faults.shuffle_corruption_rate = 0.05;
  config.faults.poison_record_rate = 0.0005;
  config.faults.max_skipped_records = -1;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  engine.set_trace(&trace);
  engine.set_metrics(&metrics);

  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

  StatsStore store;
  QueryServiceOptions service_options;
  service_options.max_concurrent = 2;
  service_options.priority_preemption = true;
  service_options.checkpoint_root = "/svc_fp";
  service_options.seed = 1234;
  service_options.arrival_window_ms = 60000;
  QueryService service(&engine, &catalog, &store, service_options);

  for (int i = 0; i < 8; ++i) {
    QuerySubmission sub;
    sub.query_id = StrFormat("q%02d", i);
    sub.tenant = (i % 2 == 0) ? "alpha" : "beta";
    sub.query = (i % 2 == 0) ? MakeTpchQ10() : MakeTpchQ2();
    sub.options.pilot.k = 256;
    sub.options.pilot.mode = PilotRunOptions::Mode::kParallel;
    sub.options.cost.max_memory_bytes = config.memory_per_task_bytes;
    sub.options.cost.memory_factor = 1.5;
    if (i < 2) {
      // Two priority-0 sessions pinned to t=0 hold both slots...
      sub.priority = 0;
      sub.arrival_offset_ms = 0;
    } else if (i == 2) {
      // ...so this high-priority arrival is guaranteed to preempt one.
      sub.priority = 5;
      sub.arrival_offset_ms = 5000;
    } else {
      sub.priority = i % 3;
      sub.arrival_offset_ms = -1;  // seeded service RNG stream
    }
    if (i == 7) sub.deadline_ms = 1;  // hopeless: exceeded at first sweep
    EXPECT_TRUE(service.Enqueue(std::move(sub)).ok());
  }

  std::string fp;
  int preempted_total = 0;
  int deadline_total = 0;
  for (const QueryOutcome& outcome : service.RunAll()) {
    preempted_total += outcome.preemptions;
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      ++deadline_total;
    }
    fp += StrFormat(
        "%s pri=%d status=%d preempt=%d arrive=%lld admit=%lld finish=%lld "
        "slot=%lld",
        outcome.query_id.c_str(), outcome.priority,
        static_cast<int>(outcome.status.code()), outcome.preemptions,
        (long long)outcome.arrival_ms, (long long)outcome.admit_ms,
        (long long)outcome.finish_ms, (long long)outcome.slot_ms);
    if (outcome.status.ok()) {
      const QueryRunReport& report = outcome.report;
      uint64_t h = 14695981039346656037ull;
      if (report.result != nullptr) {
        for (const Split& split : report.result->splits()) {
          h = Fnv1a(h, split.data);
        }
      }
      fp += StrFormat(" jobs=%d records=%llu rows=%llx resumed=%d",
                      report.jobs_run,
                      (unsigned long long)report.result_records,
                      (unsigned long long)h, report.resumed_steps);
    }
    fp += "\n";
  }
  fp += StrFormat("preempted_total=%d deadline_total=%d now=%lld\n",
                  preempted_total, deadline_total, (long long)engine.now());
  fp += "metrics:\n" + metrics.Serialize();
  fp += "trace:\n" + trace.SerializeJsonl();
  return fp;
}

TEST(EngineDeterminismTest, OverloadRegimeDeterministic) {
  {
    // The golden run fixes the recovery knobs a ctest preset may export;
    // the repeated runs keep the inherited ones.
    ScopedEnv env = GoldenEnv();
    CompareWithGolden("service_overload.fp", RunOverloadWorkload());
  }
  ScopedEnv row_mode = RowMode();
  std::string one = RunOverloadWorkload();
  EXPECT_EQ(one, RunOverloadWorkload()) << "two overload runs diverged";
  // The regime's distinguishing paths genuinely fired: at least one
  // preemption (the pinned priority-5 arrival against two busy slots) and
  // the hopeless deadline.
  EXPECT_EQ(one.find("preempted_total=0"), std::string::npos)
      << "no session was ever preempted:\n" << one.substr(0, 1500);
  EXPECT_NE(one.find("deadline_total=1"), std::string::npos)
      << "the hopeless deadline did not fire:\n" << one.substr(0, 1500);
  // The preempted session still completed, resuming checkpointed work.
  EXPECT_NE(one.find("query_resumed"), std::string::npos)
      << "no resume event in the trace";
}

/// Every way a service session can stop, on one cluster and one checkpoint
/// root, in four service instances:
///   1. cancel before RunAll, CancelAt on a queued and on a running session,
///      a deadline, a priority preemption, a queue-wait shed and a memory
///      ledger hold-back;
///   2. a preemption named in the second admission pass of a wave boundary
///      (after a memory hold-back let a lower-priority arrival in);
///   3. a halt (halt_at_ms) with two sessions in flight and one queued;
///   4. a successor instance that RecoverPending()s the halted pair.
/// The fingerprint holds each outcome (with its full status message), the
/// checkpoint-root DFS listing after each instance, the service metrics and
/// the full trace.
std::string RunStopWorkload() {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  engine.set_trace(&trace);
  engine.set_metrics(&metrics);

  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

  StatsStore store;
  const std::string root = "/svc_stop";
  QueryServiceOptions base;
  base.checkpoint_root = root;
  base.priority_preemption = true;
  base.load_shed_queue_ms = 5000;
  base.load_shed_max_priority = -1;
  base.memory_ledger_bytes = 7 << 19;  // 3.5 MiB
  base.default_query_memory_bytes = 1 << 20;

  auto submission = [&](const std::string& id, const Query& query,
                        SimMillis arrival, int priority) {
    QuerySubmission sub;
    sub.query_id = id;
    sub.query = query;
    sub.options.pilot.k = 256;
    sub.options.pilot.mode = PilotRunOptions::Mode::kParallel;
    sub.options.cost.max_memory_bytes = config.memory_per_task_bytes;
    sub.options.cost.memory_factor = 1.5;
    sub.arrival_offset_ms = arrival;
    sub.priority = priority;
    return sub;
  };

  std::string fp;
  auto run = [&](QueryService* service, const char* phase) {
    fp += StrFormat("phase %s start=%lld\n", phase, (long long)engine.now());
    for (const QueryOutcome& outcome : service->RunAll()) {
      fp += StrFormat(
          "%s pri=%d preempt=%d recovered=%d arrive=%lld admit=%lld "
          "finish=%lld slot=%lld status=%s",
          outcome.query_id.c_str(), outcome.priority, outcome.preemptions,
          outcome.recovered ? 1 : 0, (long long)outcome.arrival_ms,
          (long long)outcome.admit_ms, (long long)outcome.finish_ms,
          (long long)outcome.slot_ms, outcome.status.ToString().c_str());
      if (outcome.status.ok()) {
        const QueryRunReport& report = outcome.report;
        uint64_t h = 14695981039346656037ull;
        for (const Split& split : report.result->splits()) {
          h = Fnv1a(h, split.data);
        }
        fp += StrFormat(" jobs=%d records=%llu rows=%llx resumed=%d",
                        report.jobs_run,
                        (unsigned long long)report.result_records,
                        (unsigned long long)h, report.resumed_steps);
      }
      fp += "\n";
    }
    for (const std::string& path : dfs.List()) {
      if (StartsWith(path, root + "/")) fp += "dfs " + path + "\n";
    }
  };

  {
    QueryServiceOptions opts = base;
    opts.max_concurrent = 3;
    QueryService service(&engine, &catalog, &store, opts);
    EXPECT_TRUE(service.Enqueue(submission("early", MakeTpchQ2(), 0, 0)).ok());
    EXPECT_TRUE(service.Enqueue(submission("low_a", MakeTpchQ10(), 0, 0)).ok());
    EXPECT_TRUE(service.Enqueue(submission("low_b", MakeTpchQ2(), 0, 0)).ok());
    QuerySubmission late = submission("late", MakeTpchQ10(), 0, 1);
    late.deadline_ms = 10000;
    EXPECT_TRUE(service.Enqueue(std::move(late)).ok());
    EXPECT_TRUE(
        service.Enqueue(submission("queued", MakeTpchQ2(), 1000, 0)).ok());
    EXPECT_TRUE(service.Enqueue(submission("shed", MakeTpchQ2(), 2000, -1)).ok());
    EXPECT_TRUE(
        service.Enqueue(submission("urgent", MakeTpchQ2(), 5000, 5)).ok());
    QuerySubmission held = submission("held", MakeTpchQ10(), 11000, 0);
    held.estimated_memory_bytes = 2 << 20;
    EXPECT_TRUE(service.Enqueue(std::move(held)).ok());
    EXPECT_TRUE(service.Cancel("early").ok());
    EXPECT_TRUE(service.CancelAt("queued", 3000).ok());
    EXPECT_TRUE(service.CancelAt("low_a", 8000).ok());
    run(&service, "stops");
  }

  {
    // A memory hold-back lets a lower-priority arrival take the last slot,
    // so the held higher-priority arrival names its victim only in the
    // second admission pass of that wave boundary. The victim is parked in
    // the wave that follows; it must park again afterwards and unwind with
    // the next scheduler pass, not inside the wave.
    QueryServiceOptions opts = base;
    opts.max_concurrent = 2;
    opts.memory_ledger_bytes = 3 << 20;
    QueryService service(&engine, &catalog, &store, opts);
    QuerySubmission low = submission("m_low", MakeTpchQ10(), 0, 0);
    low.estimated_memory_bytes = 3 << 19;  // 1.5 MiB
    QuerySubmission small = submission("m_small", MakeTpchQ2(), 1000, 1);
    small.estimated_memory_bytes = 1 << 19;
    QuerySubmission high = submission("m_high", MakeTpchQ2(), 1000, 5);
    high.estimated_memory_bytes = 2 << 20;
    EXPECT_TRUE(service.Enqueue(std::move(low)).ok());
    EXPECT_TRUE(service.Enqueue(std::move(small)).ok());
    EXPECT_TRUE(service.Enqueue(std::move(high)).ok());
    run(&service, "second_pass");
  }

  std::vector<QuerySubmission> halted = {
      submission("h0", MakeTpchQ10(), 0, 0),
      submission("h1", MakeTpchQ2(), 0, 0),
      submission("h2", MakeTpchQ2(), 20000, 0)};
  {
    QueryServiceOptions opts = base;
    opts.max_concurrent = 2;
    opts.halt_at_ms = engine.now() + 4000;
    QueryService service(&engine, &catalog, &store, opts);
    for (const QuerySubmission& sub : halted) {
      EXPECT_TRUE(service.Enqueue(sub).ok());
    }
    run(&service, "halt");
  }
  {
    QueryServiceOptions opts = base;
    opts.max_concurrent = 2;
    QueryService service(&engine, &catalog, &store, opts);
    auto recovered = service.RecoverPending(halted);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    fp += StrFormat("recovered=%d\n", recovered.ok() ? *recovered : -1);
    run(&service, "recover");
  }
  fp += "metrics:\n" + metrics.Serialize();
  fp += "trace:\n" + trace.SerializeJsonl();
  return fp;
}

TEST(EngineDeterminismTest, StopPathsMatchGolden) {
  ScopedEnv env = GoldenEnv();
  std::string one = RunStopWorkload();
  std::string two = RunStopWorkload();
  EXPECT_TRUE(one == two) << DescribeFirstDivergence(one, two);
  CompareWithGolden("service_stop.fp", one);
  // Every stop path genuinely fired.
  for (const char* needle :
       {"cancelled before admission", "low_a cancelled",
        "late missed its deadline", "\"name\":\"query_preempted\"",
        "\"reason\":\"queue_wait\"", "\"name\":\"memory_pressure\"",
        "\"name\":\"service_halt\"", "h0 interrupted by service halt",
        "h2 interrupted by service halt", "\"name\":\"query_recovered\"",
        "recovered=2", "m_low pri=0 preempt=1"}) {
    EXPECT_NE(one.find(needle), std::string::npos) << needle;
  }
}

TEST(EngineDeterminismTest, ResumedQueryIsDeterministic) {
  ScopedEnv row_mode = RowMode();
  std::string one = RunResumeWorkload();
  EXPECT_EQ(one, RunResumeWorkload()) << "two resumed runs diverged";
  EXPECT_NE(one.find("resumed="), std::string::npos);
  EXPECT_EQ(one.find("resumed=0"), std::string::npos)
      << "the resume must actually reuse a checkpointed step:\n" << one;
}

// The full concurrent regime — task faults, block + shuffle corruption,
// poison records AND the cross-query subtree cache — re-run with the
// columnar data plane and zone maps switched on. Base tables are written
// as columnar splits, leaf scans push their filters into the batch
// evaluator and skip splits via zone maps; every one of those decisions is
// made from per-job state, so the complete fingerprint (results, metrics,
// trace) must stay byte-identical from run to run.
TEST(EngineDeterminismTest, ColumnarConcurrentFaultyCachedDeterministic) {
  ScopedEnv columnar({{"DYNO_COLUMNAR", "1"}, {"DYNO_ZONE_MAPS", "1"}});
  JobTotals totals;
  std::string one = RunConcurrentWorkload(&totals, /*with_cache=*/true);
  EXPECT_EQ(one, RunConcurrentWorkload(nullptr, /*with_cache=*/true))
      << "two columnar runs diverged";
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(one.find(StrFormat("q%02d tenant=%s status=0", i,
                                 i % 2 == 0 ? "alpha" : "beta")),
              std::string::npos)
        << "query q" << i << " did not complete";
  }
  // The regime's hazard paths genuinely fired against columnar splits.
  EXPECT_GT(totals.task_failures_injected + totals.task_retries, 0);
  EXPECT_GT(totals.block_corruptions + totals.checksum_refetches +
                static_cast<int>(totals.records_quarantined),
            0);
  // And the columnar scan path genuinely ran: the metrics fingerprint
  // carries the batch-decode counter (registered only when a columnar
  // batch is actually decoded by a map task).
  EXPECT_NE(one.find("scan.batches"), std::string::npos)
      << "no columnar batch was ever decoded:\n"
      << one.substr(one.find("metrics:"), 1500);
}

// Row and columnar data planes must be indistinguishable end to end: the
// pilot bills logical (row-encoded) bytes, split boundaries coincide by
// construction, and a pruned split contains no matching rows — so plans,
// job pipelines and the final result file must come out byte-identical
// whichever format the base tables use. Sweep every paper query plus the
// Q5 extension, rebuilding the world from scratch per run.
TEST(EngineDeterminismTest, ColumnarMatchesRowByteIdentityAcrossTpch) {
  auto run_query = [](const Query& query, bool columnar) -> std::string {
    ScopedEnv env({{"DYNO_COLUMNAR", columnar ? "1" : "0"},
                   {"DYNO_ZONE_MAPS", columnar ? "1" : "0"}});
    Dfs dfs;
    Catalog catalog(&dfs);
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    config.faults.use_env_defaults = false;
    MapReduceEngine engine(&dfs, config);
    TpchConfig tpch;
    tpch.scale = 0.0005;
    tpch.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());
    StatsStore store;
    DynoOptions options;
    options.pilot.k = 256;
    options.pilot.mode = PilotRunOptions::Mode::kParallel;
    options.cost.max_memory_bytes = config.memory_per_task_bytes;
    options.cost.memory_factor = 1.5;
    DynoDriver driver(&engine, &catalog, &store, options);
    auto report = driver.Execute(query);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return "error: " + report.status().ToString();
    uint64_t h = 14695981039346656037ull;
    uint64_t records = 0;
    for (const Split& split : report->result->splits()) {
      h = Fnv1a(h, split.data);
      records += split.num_records;
    }
    return StrFormat("rows=%llx records=%llu jobs=%d",
                     (unsigned long long)h, (unsigned long long)records,
                     report->jobs_run);
  };
  for (const NamedQuery& nq : MakeAllPaperQueries()) {
    std::string row = run_query(nq.query, /*columnar=*/false);
    std::string col = run_query(nq.query, /*columnar=*/true);
    EXPECT_EQ(row, col) << nq.name
                        << ": columnar result diverged from row result";
  }
}

}  // namespace
}  // namespace dyno
