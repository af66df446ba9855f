// The engine's fault model: deterministic injected task failures with
// retry/backoff, straggler slowdowns with speculative execution, retry
// exhaustion failing the job, and failed jobs draining cleanly while the
// engine keeps serving other work.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/string_util.h"
#include "mr/engine.h"
#include "obs/trace.h"
#include "storage/dfs.h"
#include "test_util.h"

namespace dyno {
namespace {

Value Row(int64_t id, int64_t group) {
  return MakeRow({{"id", Value::Int(id)}, {"g", Value::Int(group)}});
}

std::shared_ptr<DfsFile> MakeInput(Dfs* dfs, int rows,
                                   const std::string& path,
                                   uint64_t split_bytes = 128) {
  std::vector<Value> data;
  for (int i = 0; i < rows; ++i) data.push_back(Row(i, i % 7));
  auto file = WriteRows(dfs, path, data, split_bytes);
  EXPECT_TRUE(file.ok());
  return *file;
}

ClusterConfig BaseConfig() {
  ClusterConfig config;
  config.job_startup_ms = 1000;
  config.map_slots = 4;
  config.reduce_slots = 2;
  // Tests pin their own fault settings; the ctest fault preset's env vars
  // must not override them.
  config.faults.use_env_defaults = false;
  return config;
}

JobSpec CountByGroup(std::shared_ptr<DfsFile> input,
                     const std::string& out_path) {
  JobSpec spec;
  spec.name = "count-by-group:" + out_path;
  spec.output_path = out_path;
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

TEST(MrFaultTest, RetriesMakeInjectedFailuresTransparent) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 11;
  config.faults.task_failure_rate = 0.25;
  config.faults.max_task_attempts = 8;
  config.faults.retry_backoff_ms = 200;
  MapReduceEngine engine(&dfs, config);

  auto input = MakeInput(&dfs, 400, "/in");
  auto result = engine.Submit(CountByGroup(input, "/out"));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();

  // Failures happened and every one was retried away.
  EXPECT_GT(result->task_failures_injected, 0);
  EXPECT_GT(result->task_retries, 0);
  EXPECT_GE(result->task_retries, result->task_failures_injected);

  // The job's observable results are exactly those of a fault-free run:
  // counters count each logical task once (failed attempts never ran their
  // data flow, retried attempts are not double-counted).
  EXPECT_EQ(result->counters.map_input_records, 400u);
  EXPECT_EQ(result->counters.map_input_bytes, input->num_bytes());
  EXPECT_EQ(result->counters.map_output_records, 400u);
  EXPECT_EQ(result->counters.output_records, 7u);
  EXPECT_EQ(result->output->num_records(), 7u);
}

TEST(MrFaultTest, RetryExhaustionFailsTheJob) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 3;
  config.faults.task_failure_rate = 1.0;  // every attempt dies
  config.faults.max_task_attempts = 3;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);

  auto input = MakeInput(&dfs, 60, "/in");
  JobSpec spec;
  spec.name = "doomed";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = input;
  mi.map_fn = [](const Value&, MapContext*) -> Status {
    return Status::OK();
  };
  spec.inputs = {mi};

  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  EXPECT_NE(result->status.ToString().find("3 attempts"), std::string::npos)
      << result->status.ToString();
  // Some task burned through all its attempts.
  EXPECT_GE(result->task_failures_injected, config.faults.max_task_attempts);
  // The failed job's output was deleted by the drain.
  EXPECT_EQ(result->output, nullptr);
  EXPECT_FALSE(dfs.Open("/out").ok());
}

TEST(MrFaultTest, RealTaskErrorsAreRetriedThenExhausted) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 5;
  // Enable the fault model (and thus retries) without any injection noise:
  // stragglers only affect timing.
  config.faults.task_failure_rate = 0.0;
  config.faults.straggler_rate = 0.2;
  config.faults.max_task_attempts = 4;
  config.faults.retry_backoff_ms = 50;
  MapReduceEngine engine(&dfs, config);

  auto input = MakeInput(&dfs, 60, "/in");
  JobSpec spec = CountByGroup(input, "/out");
  spec.reduce_fn = [](const Value&, const std::vector<Value>&,
                      ReduceContext*) -> Status {
    return Status::Internal("deterministic reduce bug");
  };

  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->status.ok());
  // The deterministic error failed every attempt of the first reduce task.
  EXPECT_NE(result->status.ToString().find("4 attempts"), std::string::npos)
      << result->status.ToString();
  EXPECT_NE(result->status.ToString().find("deterministic reduce bug"),
            std::string::npos)
      << result->status.ToString();
  EXPECT_GE(result->task_retries, config.faults.max_task_attempts - 1);
  EXPECT_EQ(result->output, nullptr);
}

TEST(MrFaultTest, SpeculativeBackupBeatsStragglerAndIsAccounted) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.map_slots = 8;
  config.faults.seed = 21;
  config.faults.task_failure_rate = 0.0;
  config.faults.straggler_rate = 0.2;
  config.faults.straggler_slowdown = 10.0;
  config.faults.speculative_slowness_threshold = 1.5;

  auto run = [&](bool speculation) {
    Dfs local_dfs;
    ClusterConfig c = config;
    c.faults.speculative_execution = speculation;
    MapReduceEngine engine(&local_dfs, c);
    auto input = MakeInput(&local_dfs, 600, "/in");
    JobSpec spec;
    spec.name = "scan";
    spec.output_path = "/out";
    MapInput mi;
    mi.file = input;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {mi};
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok());
    return std::move(*result);
  };

  JobResult with_spec = run(true);
  JobResult without_spec = run(false);

  // Stragglers got backed up and at least one backup won its race.
  EXPECT_GT(with_spec.speculative_launches, 0);
  EXPECT_GT(with_spec.speculative_wins, 0);
  EXPECT_EQ(without_spec.speculative_launches, 0);

  // Speculation only re-runs already-committed work: outputs are identical.
  EXPECT_EQ(with_spec.output->num_records(), 600u);
  EXPECT_EQ(without_spec.output->num_records(), 600u);
  EXPECT_EQ(with_spec.counters.map_input_records,
            without_spec.counters.map_input_records);

  // And it pays off: cutting the straggler tail cannot make the job slower.
  EXPECT_LT(with_spec.Elapsed(), without_spec.Elapsed());
}

TEST(MrFaultTest, ReduceBackupBeatsStragglingReducer) {
  // The reduce-side twin of the test above: a straggling reducer is backed
  // up once its elapsed time passes the threshold, the backup wins, and the
  // job's rows are exactly those of a run with speculation off. Seeds are
  // scanned so the test does not hinge on one seed's straggler draws.
  auto run = [](uint64_t seed, bool speculation, obs::TraceSink* trace) {
    Dfs dfs;
    ClusterConfig c = BaseConfig();
    c.map_slots = 8;
    c.reduce_slots = 6;
    c.faults.seed = seed;
    c.faults.straggler_rate = 0.3;
    c.faults.straggler_slowdown = 10.0;
    c.faults.speculative_slowness_threshold = 1.5;
    c.faults.speculative_execution = speculation;
    MapReduceEngine engine(&dfs, c);
    engine.set_trace(trace);
    JobSpec spec = CountByGroup(MakeInput(&dfs, 600, "/in"), "/out");
    spec.num_reduce_tasks = 6;
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
    auto rows = ReadAllRows(*result->output);
    EXPECT_TRUE(rows.ok());
    std::vector<std::string> out;
    for (const Value& row : *rows) out.push_back(row.ToString());
    return out;
  };

  bool reduce_win = false;
  for (uint64_t seed = 1; seed <= 20 && !reduce_win; ++seed) {
    obs::TraceSink trace;
    std::vector<std::string> with_spec = run(seed, true, &trace);
    EXPECT_EQ(with_spec, run(seed, false, nullptr)) << "seed " << seed;
    EXPECT_EQ(with_spec.size(), 7u);
    std::istringstream lines(trace.SerializeJsonl());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"speculative_win\"") != std::string::npos &&
          line.find("\"map\":false") != std::string::npos) {
        reduce_win = true;
      }
    }
  }
  EXPECT_TRUE(reduce_win) << "no seed produced a winning reduce backup";
}

TEST(MrFaultTest, FailedJobDrainsWhileConcurrentJobCompletes) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 9;
  config.faults.task_failure_rate = 0.0;
  config.faults.straggler_rate = 0.1;  // model on, no injected failures
  config.faults.max_task_attempts = 2;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);

  auto poison_input = MakeInput(&dfs, 120, "/in_poison");
  JobSpec poison;
  poison.name = "poison";
  poison.output_path = "/out_poison";
  {
    MapInput mi;
    mi.file = poison_input;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      if (record.FindField("id")->int_value() == 60) {
        return Status::Internal("poisoned record");
      }
      ctx->Output(record);
      return Status::OK();
    };
    poison.inputs = {mi};
  }
  auto healthy_input = MakeInput(&dfs, 120, "/in_healthy");
  JobSpec healthy = CountByGroup(healthy_input, "/out_healthy");

  auto results = engine.SubmitAll({poison, healthy});
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE((*results)[0].status.ok());
  EXPECT_EQ((*results)[0].output, nullptr);
  EXPECT_FALSE(dfs.Open("/out_poison").ok());
  ASSERT_TRUE((*results)[1].status.ok());
  EXPECT_EQ((*results)[1].counters.map_input_records, 120u);
  EXPECT_EQ((*results)[1].output->num_records(), 7u);

  // The engine stays usable after the drain: disable injection and run a
  // fresh job on the same cluster clock.
  ClusterConfig clean = BaseConfig();
  engine.set_config(clean);
  auto again = engine.Submit(CountByGroup(healthy_input, "/out_again"));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->status.ok());
  EXPECT_EQ(again->output->num_records(), 7u);
}

TEST(MrFaultTest, FailedAttemptIsBilledForItsPartialScan) {
  // Legacy fail-fast mode (fault model off): a map task that errors
  // mid-split must be billed for the bytes it actually read — a task dying
  // on its first record finishes earlier than one dying on its last.
  auto run_with_error_at = [](int64_t bad_id) {
    Dfs dfs;
    MapReduceEngine engine(&dfs, BaseConfig());
    std::vector<Value> data;
    for (int i = 0; i < 400; ++i) data.push_back(Row(i, 0));
    auto input = WriteRows(&dfs, "/in", data, /*split_bytes=*/1 << 20);
    EXPECT_TRUE(input.ok());  // one big split -> one map task
    JobSpec spec;
    spec.name = "err";
    spec.output_path = "/out";
    MapInput mi;
    mi.file = *input;
    mi.map_fn = [bad_id](const Value& record, MapContext* ctx) -> Status {
      if (record.FindField("id")->int_value() == bad_id) {
        return Status::Internal("bad record");
      }
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {mi};
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result->status.ok());
    return result->Elapsed();
  };

  SimMillis early = run_with_error_at(0);
  SimMillis late = run_with_error_at(399);
  EXPECT_LT(early, late)
      << "read time must scale with the bytes the attempt consumed";
}

TEST(MrFaultTest, BackoffCapBoundsRetryDelays) {
  // Attempt n of a task waits min(retry_backoff_ms * 2^(n-1),
  // max_backoff_ms): without the cap the exponential dominates the job
  // tail as soon as any task fails a few times.
  auto run = [](SimMillis max_backoff) {
    Dfs dfs;
    ClusterConfig config = BaseConfig();
    config.faults.seed = 11;
    config.faults.task_failure_rate = 0.5;
    config.faults.max_task_attempts = 12;
    config.faults.retry_backoff_ms = 500;
    config.faults.retry_jitter_fraction = 0.0;
    config.faults.max_backoff_ms = max_backoff;
    MapReduceEngine engine(&dfs, config);
    auto input = MakeInput(&dfs, 400, "/in");
    auto result = engine.Submit(CountByGroup(input, "/out"));
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
    return std::move(*result);
  };

  JobResult capped = run(600);
  JobResult uncapped = run(0);  // <= 0 disables the cap
  EXPECT_GT(capped.task_retries, 0);
  EXPECT_LT(capped.Elapsed(), uncapped.Elapsed())
      << "the cap must shorten the retry tail";
  // Backoff shapes timing only; the work done is the same.
  EXPECT_EQ(capped.counters.map_input_records, 400u);
  EXPECT_EQ(uncapped.counters.map_input_records, 400u);
  EXPECT_EQ(capped.counters.output_records, uncapped.counters.output_records);
}

TEST(MrFaultTest, RetryJitterIsDeterministicPerConfig) {
  auto run = [](double jitter) {
    Dfs dfs;
    ClusterConfig config = BaseConfig();
    config.faults.seed = 7;
    config.faults.task_failure_rate = 0.5;
    config.faults.max_task_attempts = 12;
    config.faults.retry_backoff_ms = 200;
    config.faults.retry_jitter_fraction = jitter;
    MapReduceEngine engine(&dfs, config);
    auto input = MakeInput(&dfs, 400, "/in");
    auto result = engine.Submit(CountByGroup(input, "/out"));
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok()) << result->status.ToString();
    return std::move(*result);
  };

  // The jitter is drawn from the seeded fault stream, not the wall clock:
  // the same config replays to the millisecond.
  JobResult a = run(0.25);
  JobResult b = run(0.25);
  EXPECT_EQ(a.Elapsed(), b.Elapsed());
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.task_failures_injected, b.task_failures_injected);

  // And it is engaged: turning it off changes retry timing but nothing
  // observable about the output.
  JobResult c = run(0.0);
  EXPECT_NE(a.Elapsed(), c.Elapsed());
  EXPECT_EQ(a.counters.output_records, c.counters.output_records);
  EXPECT_EQ(a.output->num_records(), c.output->num_records());
}

TEST(MrFaultTest, ReduceExhaustionDrainsWhileConcurrentJobCompletes) {
  Dfs dfs;
  ClusterConfig config = BaseConfig();
  config.faults.seed = 13;
  config.faults.straggler_rate = 0.1;  // model on, no injected failures
  config.faults.max_task_attempts = 3;
  config.faults.retry_backoff_ms = 50;
  MapReduceEngine engine(&dfs, config);

  auto doomed_input = MakeInput(&dfs, 120, "/in_doomed");
  JobSpec doomed = CountByGroup(doomed_input, "/out_doomed");
  doomed.reduce_fn = [](const Value& key, const std::vector<Value>&,
                        ReduceContext*) -> Status {
    if (key.int_value() == 3) return Status::Internal("poisoned group");
    return Status::OK();
  };
  auto healthy_input = MakeInput(&dfs, 120, "/in_healthy");
  JobSpec healthy = CountByGroup(healthy_input, "/out_healthy");

  auto results = engine.SubmitAll({doomed, healthy});
  ASSERT_TRUE(results.ok());
  const JobResult& failed = (*results)[0];
  EXPECT_FALSE(failed.status.ok());
  EXPECT_NE(failed.status.ToString().find("3 attempts"), std::string::npos)
      << failed.status.ToString();
  // Every reduce attempt after the first was a retry, and the drain reports
  // no data counters: a failed job contributes nothing, not partial work.
  EXPECT_GE(failed.task_retries, config.faults.max_task_attempts - 1);
  EXPECT_EQ(failed.counters.map_input_records, 0u);
  EXPECT_EQ(failed.counters.output_records, 0u);
  // Failed-job drain: no output handle, no file, no partial rows.
  EXPECT_EQ(failed.output, nullptr);
  EXPECT_FALSE(dfs.Open("/out_doomed").ok());

  const JobResult& ok = (*results)[1];
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.counters.map_input_records, 120u);
  EXPECT_EQ(ok.output->num_records(), 7u);
}

TEST(MrFaultTest, ReduceRetryAfterShuffleFailureIsTransparent) {
  // A node crash while reducers run (or wait) invalidates the maps resident
  // on it: reducers hit shuffle-fetch failures and are re-queued behind the
  // re-executed maps. The retried reducers must not double-count anything.
  ClusterConfig config = BaseConfig();
  config.num_nodes = 2;
  config.reduce_slots = 2;
  config.faults.retry_backoff_ms = 50;
  config.faults.node_recovery_ms = 400;

  auto run = [&config](std::vector<FaultConfig::ScriptedNodeCrash> crashes) {
    Dfs dfs;
    ClusterConfig c = config;
    c.faults.scripted_node_crashes = std::move(crashes);
    MapReduceEngine engine(&dfs, c);
    auto input = MakeInput(&dfs, 400, "/in");
    JobSpec spec = CountByGroup(input, "/out");
    spec.num_reduce_tasks = 4;  // more reducers than slots -> pending ones
    auto result = engine.Submit(spec);
    EXPECT_TRUE(result.ok());
    return std::move(*result);
  };

  JobResult clean = run({});
  ASSERT_TRUE(clean.status.ok());

  bool hit_reduce_phase = false;
  for (int pct : {98, 96, 94, 92, 90, 85, 80}) {
    SimMillis window = clean.Elapsed() - config.job_startup_ms;
    JobResult faulty =
        run({{config.job_startup_ms + window * pct / 100, 1}});
    ASSERT_TRUE(faulty.status.ok())
        << "crash at " << pct << "%: " << faulty.status.ToString();
    EXPECT_EQ(faulty.counters.map_input_records,
              clean.counters.map_input_records);
    EXPECT_EQ(faulty.counters.map_output_records,
              clean.counters.map_output_records);
    EXPECT_EQ(faulty.counters.output_records, clean.counters.output_records);
    EXPECT_EQ(faulty.output->num_records(), clean.output->num_records());
    if (faulty.shuffle_fetch_retries > 0) {
      EXPECT_GT(faulty.maps_invalidated, 0);
      hit_reduce_phase = true;
      break;
    }
  }
  EXPECT_TRUE(hit_reduce_phase)
      << "no crash placement caught reducers behind a re-shuffle";
}

/// The number after `"key":` in one serialized trace line.
double TraceNumber(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  size_t at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + tag.size(), nullptr);
}

TEST(MrFaultTest, BackupStartsAtFirstMillisecondPastTheCutoff) {
  // An attempt is backed up once its elapsed time exceeds T = threshold *
  // median, first at floor(T) + 1 ms, and the speculation wakeup must fire
  // then. With slots always free, identical splits (every unslowed attempt
  // takes the same d ms, so the median is d) and at most one straggler per
  // job (one backup per phase per pass), each backup starts exactly
  // floor(T) + 1 after its primary.
  Dfs dfs;
  ClusterConfig c = BaseConfig();
  c.num_nodes = 4;
  c.map_slots = 64;
  c.faults.seed = 21;
  c.faults.straggler_rate = 0.2;
  c.faults.straggler_slowdown = 4.0;
  c.faults.speculative_slowness_threshold = 1.5;
  MapReduceEngine engine(&dfs, c);
  obs::TraceSink trace;
  engine.set_trace(&trace);
  constexpr int kJobs = 8;
  std::vector<JobSpec> specs;
  for (int j = 0; j < kJobs; ++j) {
    auto input = WriteRows(&dfs, StrFormat("/in%d", j),
                           std::vector<Value>(24, Row(1, 1)), 64);
    ASSERT_TRUE(input.ok());
    for (const Split& split : (*input)->splits()) {
      ASSERT_TRUE(split.data == (*input)->splits()[0].data);
    }
    JobSpec spec;
    spec.name = StrFormat("j%d", j);
    spec.output_path = StrFormat("/out%d", j);
    MapInput mi;
    mi.file = *input;
    mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
      ctx->Output(record);
      return Status::OK();
    };
    spec.inputs = {mi};
    specs.push_back(std::move(spec));
  }
  auto results = engine.SubmitAll(specs);
  ASSERT_TRUE(results.ok());

  // (job name, task id) of a trace line; job names are two characters.
  auto task_of = [](const std::string& line) {
    return std::make_pair(line.substr(line.find("\"job\":\"") + 7, 2),
                          static_cast<int>(TraceNumber(line, "task")));
  };
  std::map<std::pair<std::string, int>, SimMillis> launch;
  std::map<std::string, int> stragglers;
  std::vector<std::string> backups;
  SimMillis d = -1;
  std::istringstream lines(trace.SerializeJsonl());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"speculative_attempt\"") != std::string::npos) {
      backups.push_back(line);
    }
    if (line.find("\"map_attempt\"") == std::string::npos) continue;
    launch.emplace(task_of(line),
                   static_cast<SimMillis>(TraceNumber(line, "ts")));
    if (TraceNumber(line, "slowdown") > 1.0) {
      ++stragglers[task_of(line).first];
      continue;
    }
    const SimMillis dur = static_cast<SimMillis>(TraceNumber(line, "dur"));
    if (d < 0) d = dur;
    EXPECT_EQ(dur, d) << line;
  }
  for (const auto& [job, n] : stragglers) EXPECT_LE(n, 1) << job;
  const double t = 1.5 * static_cast<double>(d);
  ASSERT_NE(std::floor(t), t) << "T must not be an integer";
  ASSERT_GE(backups.size(), 3u);
  for (const std::string& line : backups) {
    EXPECT_EQ(static_cast<SimMillis>(TraceNumber(line, "ts")) -
                  launch.at(task_of(line)),
              static_cast<SimMillis>(std::floor(t)) + 1)
        << line;
  }
}

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs three concurrent map-reduce jobs of 500+ map tasks each on a small
/// cluster under task failures with backoff (so retried tasks relaunch
/// behind higher task ids), stragglers with speculation, and one scripted
/// node crash, once per speculation threshold. The fingerprint holds the
/// trace's schema header, every speculative_attempt and speculative_win
/// trace line, a count and digest of each job's map_attempt and
/// reduce_attempt lines, and each job's fault counters and finish time.
/// The seed is one whose schedule separates the
/// upper from the lower median of an even count and, at both thresholds,
/// has two equally slow candidates whose lower task id launched later.
std::string SpeculationScheduleFingerprint(int threads, JobTotals* totals) {
  constexpr int kJobs = 3;
  std::string fp;
  for (double threshold : {1.5, 2.0}) {
    Dfs dfs;
    ClusterConfig c = BaseConfig();
    c.num_nodes = 4;
    c.map_slots = 12;
    c.reduce_slots = 4;
    c.execution_threads = threads;
    c.faults.seed = 21;
    c.faults.task_failure_rate = 0.08;
    c.faults.max_task_attempts = 8;
    c.faults.retry_backoff_ms = 40;
    c.faults.straggler_rate = 0.3;
    c.faults.straggler_slowdown = 5.0;
    c.faults.speculative_slowness_threshold = threshold;
    c.faults.node_recovery_ms = 300;
    c.faults.scripted_node_crashes = {{c.job_startup_ms + 250, 1}};
    MapReduceEngine engine(&dfs, c);
    obs::TraceSink trace;
    engine.set_trace(&trace);
    std::vector<JobSpec> specs;
    for (int j = 0; j < kJobs; ++j) {
      auto input = MakeInput(&dfs, 3000 + 100 * j, StrFormat("/in%d", j), 64);
      EXPECT_GE(input->splits().size(), 500u);
      specs.push_back(CountByGroup(input, StrFormat("/out%d", j)));
      specs.back().name = StrFormat("j%d", j);
      specs.back().num_reduce_tasks = 6;
    }
    auto results = engine.SubmitAll(specs);
    EXPECT_TRUE(results.ok());
    if (!results.ok()) return fp;
    std::vector<int> attempts(kJobs, 0);
    std::vector<uint64_t> digest(kJobs, 14695981039346656037ull);
    std::istringstream lines(trace.SerializeJsonl());
    std::string line;
    std::getline(lines, line);  // The schema header.
    fp += StrFormat("threshold=%.1f\ntrace:\n", threshold) + line + "\n";
    while (std::getline(lines, line)) {
      if (line.find("\"speculative_attempt\"") != std::string::npos ||
          line.find("\"speculative_win\"") != std::string::npos) {
        fp += line + "\n";
      } else if (line.find("\"map_attempt\"") != std::string::npos ||
                 line.find("\"reduce_attempt\"") != std::string::npos) {
        for (int j = 0; j < kJobs; ++j) {
          const std::string job_arg = StrFormat("\"job\":\"j%d\"", j);
          if (line.find(job_arg) == std::string::npos) continue;
          ++attempts[j];
          digest[j] = Fnv1a(digest[j], line + "\n");
        }
      }
    }
    for (int j = 0; j < kJobs; ++j) {
      const JobResult& r = (*results)[j];
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      fp += StrFormat(
          "job j%d attempts=%d digest=%016llx finish=%lld maps=%d "
          "reduces=%d inj=%d retry=%d spec=%d specwin=%d ncrash=%d nkill=%d "
          "ninv=%d nshuf=%d\n",
          j, attempts[j], static_cast<unsigned long long>(digest[j]),
          static_cast<long long>(r.finish_time_ms), r.map_tasks_run,
          r.reduce_tasks_run, r.task_failures_injected, r.task_retries,
          r.speculative_launches, r.speculative_wins, r.node_crashes_observed,
          r.attempts_killed_by_node, r.maps_invalidated,
          r.shuffle_fetch_retries);
      if (totals != nullptr) totals->Add(r);
    }
  }
  return fp;
}

TEST(MrFaultTest, SpeculationScheduleMatchesGolden) {
  // Pins which attempt is backed up and when: the phase median, the tie
  // rule among equally slow attempts (lowest task id, whatever the launch
  // order) and the wakeup time are all visible in these lines. Regenerate
  // with DYNO_UPDATE_GOLDEN=1 only for an intended schedule change.
  JobTotals totals;
  const std::string one = SpeculationScheduleFingerprint(1, &totals);
  EXPECT_GT(totals.speculative_launches, 0);
  EXPECT_GT(totals.speculative_wins, 0);
  EXPECT_GT(totals.task_retries, 0);
  EXPECT_GT(totals.attempts_killed_by_node, 0);
  EXPECT_EQ(one, SpeculationScheduleFingerprint(4, nullptr));
  CompareWithGolden("speculation.fp", one);
}

}  // namespace
}  // namespace dyno
