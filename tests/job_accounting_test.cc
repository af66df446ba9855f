// The job-accounting invariant: the JobTotals a query report (or the run of
// a given plan) carries are exactly the fold, with JobTotals::Add, of the
// JobTotals of every job the engine ran for it. A recording submit gate
// sees every JobResult, so any fold site that drops a counter, or a job,
// shows up as a mismatch. The runs switch on every hazard that moves the
// counters: task failures, node crashes, block and shuffle corruption and
// reduce spill.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "dyno/driver.h"
#include "dyno/join_block_run.h"
#include "exec/plan_executor.h"
#include "mr/engine.h"
#include "obs/trace.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

std::string Digest(const JobTotals& t) {
  return StrFormat(
      "inj=%d retry=%d spec=%d specwin=%d ncrash=%d nkill=%d ninv=%d "
      "nshuf=%d bcorr=%d refetch=%d quar=%llu rsp=%d sw=%llu sr=%llu "
      "peak=%llu",
      t.task_failures_injected, t.task_retries, t.speculative_launches,
      t.speculative_wins, t.node_crashes_observed, t.attempts_killed_by_node,
      t.maps_invalidated, t.shuffle_fetch_retries, t.block_corruptions,
      t.checksum_refetches, (unsigned long long)t.records_quarantined,
      t.reduce_spills, (unsigned long long)t.spill_bytes_written,
      (unsigned long long)t.spill_bytes_read,
      (unsigned long long)t.peak_task_memory_bytes);
}

/// Routes every submission straight to SubmitAllDirect and folds the
/// totals of each successful job. Pilot runs ("pilr:") and build-side
/// filter jobs ("filter:") are skipped: the report has never counted them
/// (pilot cost is reported as pilot_ms, and a filter job is an executor
/// detail of the broadcast join it feeds), and they stay outside it.
/// Failed jobs are skipped too — the driver discards a failed attempt and
/// accounts only the job that replaced it.
class RecordingGate {
 public:
  explicit RecordingGate(MapReduceEngine* engine) : engine_(engine) {
    engine_->set_submit_gate([this](std::vector<JobSpec> specs) {
      auto results = engine_->SubmitAllDirect(specs);
      if (!results.ok()) return results;
      for (size_t i = 0; i < specs.size(); ++i) {
        const JobResult& job = (*results)[i];
        if (!job.status.ok() || specs[i].name.starts_with("pilr:") ||
            specs[i].name.starts_with("filter:")) {
          continue;
        }
        totals_.Add(job);
        ++jobs_;
      }
      return results;
    });
  }
  ~RecordingGate() { engine_->set_submit_gate(nullptr); }
  RecordingGate(const RecordingGate&) = delete;
  RecordingGate& operator=(const RecordingGate&) = delete;

  const JobTotals& totals() const { return totals_; }
  int jobs() const { return jobs_; }

 private:
  MapReduceEngine* engine_;
  JobTotals totals_;
  int jobs_ = 0;
};

class JobAccountingTest : public ::testing::Test {
 protected:
  JobAccountingTest() : catalog_(&dfs_) {
    TpchConfig config;
    config.scale = 0.0005;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  /// Every counter-moving hazard on at once, pinned in code so the ctest
  /// presets' environments cannot rewrite it.
  static ClusterConfig HazardConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.memory_per_task_bytes = 4 * 1024;
    config.reduce_memory_mode = ClusterConfig::ReduceMemoryMode::kSpill;
    config.max_spill_runs = 1 << 16;
    config.faults.use_env_defaults = false;
    config.faults.seed = 14;
    config.faults.task_failure_rate = 0.05;
    config.faults.straggler_rate = 0.05;
    config.faults.node_failure_rate = 0.04;
    config.faults.node_recovery_ms = 20000;
    config.faults.block_corruption_rate = 0.05;
    config.faults.shuffle_corruption_rate = 0.05;
    config.faults.max_task_attempts = 8;
    return config;
  }

  static DynoOptions Options(ExecutionStrategy strategy) {
    DynoOptions options;
    options.pilot.k = 256;
    options.strategy = strategy;
    options.max_job_attempts = 4;
    options.oom_retry_ladder = 0;
    return options;
  }

  /// Q10 with a group-by and an order-by, so the post-join jobs are folded
  /// too.
  static Query GroupedQ10() {
    Query q = MakeTpchQ10();
    GroupBySpec gb;
    gb.keys = {"n_name"};
    Aggregate rev;
    rev.kind = Aggregate::Kind::kSum;
    rev.input_column = "l_extendedprice";
    rev.output_name = "revenue";
    gb.aggregates = {rev};
    q.group_by = gb;
    OrderBySpec ob;
    ob.keys = {{"revenue", /*desc=*/true}};
    q.order_by = ob;
    return q;
  }

  /// Runs `query` under `strategy` behind a recording gate and checks the
  /// report against the fold of the jobs it ran.
  JobTotals ExpectReportMatchesJobs(ExecutionStrategy strategy,
                                    const Query& query) {
    MapReduceEngine engine(&dfs_, HazardConfig());
    RecordingGate gate(&engine);
    StatsStore store;
    DynoDriver driver(&engine, &catalog_, &store, Options(strategy));
    auto report = driver.Execute(query);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return {};
    EXPECT_EQ(Digest(*report), Digest(gate.totals()));
    EXPECT_EQ(report->jobs_run, gate.jobs());
    return gate.totals();
  }

  /// Runs `plan` over `block`'s leaves through the join-block loop the
  /// way the baselines do, one unit at a time.
  static Result<std::shared_ptr<DfsFile>> RunGivenPlan(
      MapReduceEngine* engine, Catalog* catalog, const JoinBlock& block,
      const PlanNode& plan, bool broadcast_fallback, QueryRunReport* report) {
    DynoOptions options = JaqlRunOptions(ExecOptions());
    options.strategy = ExecutionStrategy::kSimpleSerial;
    options.adaptive_join_fallback = broadcast_fallback;
    JoinBlockRun run(engine, catalog, /*store=*/nullptr, options, block,
                     report);
    return run.RunPlan(plan);
  }

  Dfs dfs_;
  Catalog catalog_;
};

TEST_F(JobAccountingTest, DynoptReportIsTheFoldOfItsJobs) {
  JobTotals totals =
      ExpectReportMatchesJobs(ExecutionStrategy::kUncertain1, GroupedQ10());
  EXPECT_GT(totals.task_failures_injected, 0);
  EXPECT_GT(totals.reduce_spills, 0);
}

TEST_F(JobAccountingTest, SimpleSerialReportIsTheFoldOfItsJobs) {
  JobTotals totals = ExpectReportMatchesJobs(ExecutionStrategy::kSimpleSerial,
                                             MakeTpchQ8Prime());
  // DYNOPT-SIMPLE used to drop the node counters from its fold.
  EXPECT_GT(totals.node_crashes_observed, 0);
}

TEST_F(JobAccountingTest, SimpleParallelReportIsTheFoldOfItsJobs) {
  JobTotals totals = ExpectReportMatchesJobs(
      ExecutionStrategy::kSimpleParallel, MakeTpchQ2());
  EXPECT_GT(totals.node_crashes_observed, 0);
}

TEST_F(JobAccountingTest, StaticPlanResultIsTheFoldOfItsJobs) {
  MapReduceEngine engine(&dfs_, HazardConfig());
  RecordingGate gate(&engine);
  // ((l ⋈ o) ⋈ c) ⋈ n as three repartition jobs under a spilling budget.
  auto lo = PlanNode::Join(JoinMethod::kRepartition, PlanNode::Leaf("l"),
                           PlanNode::Leaf("o"), {{"l_orderkey", "o_orderkey"}});
  auto loc = PlanNode::Join(JoinMethod::kRepartition, std::move(lo),
                            PlanNode::Leaf("c"), {{"o_custkey", "c_custkey"}});
  auto plan =
      PlanNode::Join(JoinMethod::kRepartition, std::move(loc),
                     PlanNode::Leaf("n"), {{"c_nationkey", "n_nationkey"}});
  const JoinBlock block = MakeTpchQ10().join_block;
  QueryRunReport report;
  auto output = RunGivenPlan(&engine, &catalog_, block, *plan,
                             /*broadcast_fallback=*/false, &report);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(Digest(report), Digest(gate.totals()));
  EXPECT_EQ(report.jobs_run, gate.jobs());
  EXPECT_GT(gate.totals().reduce_spills, 0);
}

TEST_F(JobAccountingTest, BroadcastFallbackFoldsEveryRepartitionJob) {
  // A two-join broadcast chain (l ⋈ o ⋈ c in one map-only job) whose build
  // sides cannot fit a 1 KiB task: the §8 fallback re-runs it as two
  // repartition jobs, and the result must carry the counters of both.
  ClusterConfig config = HazardConfig();
  config.memory_per_task_bytes = 1024;
  MapReduceEngine engine(&dfs_, config);
  RecordingGate gate(&engine);
  auto lo = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("l"),
                           PlanNode::Leaf("o"), {{"l_orderkey", "o_orderkey"}});
  auto plan = PlanNode::Join(JoinMethod::kBroadcast, std::move(lo),
                             PlanNode::Leaf("c"), {{"o_custkey", "c_custkey"}});
  plan->chain_with_left = true;
  // Q10 without its nation leaf.
  JoinBlock block = MakeTpchQ10().join_block;
  block.tables.pop_back();
  block.edges.pop_back();
  block.output_columns = {"c_custkey", "l_extendedprice"};
  QueryRunReport report;
  auto output = RunGivenPlan(&engine, &catalog_, block, *plan,
                             /*broadcast_fallback=*/true, &report);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(report.broadcast_fallbacks, 1);
  EXPECT_EQ(report.jobs_run, 2);
  EXPECT_EQ(gate.jobs(), 2);
  EXPECT_EQ(Digest(report), Digest(gate.totals()));
  EXPECT_GT(gate.totals().reduce_spills, 1);
}

TEST_F(JobAccountingTest, DynoptBroadcastFallbackReportIsTheFoldOfItsJobs) {
  // The optimizer is told tasks have 64 KiB while they have 2 KiB, so the
  // broadcasts it picks die at run time and the driver falls back.
  ClusterConfig config = HazardConfig();
  config.memory_per_task_bytes = 2 * 1024;
  MapReduceEngine engine(&dfs_, config);
  obs::TraceSink trace;
  engine.set_trace(&trace);
  RecordingGate gate(&engine);
  StatsStore store;
  DynoOptions options = Options(ExecutionStrategy::kUncertain1);
  options.cost.max_memory_bytes = 64 * 1024;
  options.cost.estimated_build_margin = 1.0;
  options.sync_cost_memory = false;
  options.adaptive_join_fallback = true;
  DynoDriver driver(&engine, &catalog_, &store, options);
  auto report = driver.Execute(MakeTpchQ8Prime());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->broadcast_fallbacks, 0);
  EXPECT_EQ(Digest(*report), Digest(gate.totals()));
  EXPECT_EQ(report->jobs_run, gate.jobs());
  // At least one fallback re-ran a multi-join unit as several jobs.
  const std::string jsonl = trace.SerializeJsonl();
  const std::string arg = "\"extra_jobs\":";
  int most_extra_jobs = 0;
  for (size_t pos = jsonl.find(arg); pos != std::string::npos;
       pos = jsonl.find(arg, pos + 1)) {
    most_extra_jobs =
        std::max(most_extra_jobs, std::atoi(jsonl.c_str() + pos + arg.size()));
  }
  EXPECT_GE(most_extra_jobs, 2);
}

TEST(JobTotalsTest, AddSumsEveryCounterAndTakesPeakMax) {
  // The invariant tests above fold both sides with Add, so a counter Add
  // forgot would vanish from both; pin every field here.
  JobTotals job;
  job.task_failures_injected = 1;
  job.task_retries = 2;
  job.speculative_launches = 3;
  job.speculative_wins = 4;
  job.node_crashes_observed = 5;
  job.attempts_killed_by_node = 6;
  job.maps_invalidated = 7;
  job.shuffle_fetch_retries = 8;
  job.block_corruptions = 9;
  job.checksum_refetches = 10;
  job.records_quarantined = 11;
  job.reduce_spills = 12;
  job.spill_bytes_written = 13;
  job.spill_bytes_read = 14;
  job.peak_task_memory_bytes = 15;
  JobTotals sum;
  sum.Add(job);
  sum.Add(job);
  EXPECT_EQ(Digest(sum),
            "inj=2 retry=4 spec=6 specwin=8 ncrash=10 nkill=12 ninv=14 "
            "nshuf=16 bcorr=18 refetch=20 quar=22 rsp=24 sw=26 sr=28 "
            "peak=15");
}

}  // namespace
}  // namespace dyno
