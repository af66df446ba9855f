// Golden-trace regression harness. One canonical DYNOPT run — TPC-H Q10,
// a 3-join star over customer/orders/lineitem/nation, pilot runs plus
// re-optimization — is traced end to end, twice, and the serialized JSONL
// trace is diffed byte-for-byte against the other run and against a
// checked-in golden, with fault injection off and on. Any change to event
// ordering, span timing, cost numbers or the schema shows up as an
// event-level diff naming the first divergent span.
//
// Regenerate the goldens after an intentional change with
//   DYNO_UPDATE_GOLDEN=1 ./trace_golden_test
// (they are written back into the source tree via DYNO_GOLDEN_DIR).

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/knobs.h"
#include "common/string_util.h"
#include "dyno/driver.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

struct TracedRun {
  std::string trace_jsonl;
  std::string metrics_text;
  QueryRunReport report;
};

/// Builds a fresh cluster + TPC-H catalog, executes Q10 through the full
/// DYNOPT pipeline with a trace sink and metrics registry attached, and
/// returns every serialized observation. `c_probe_scale` perturbs the cost
/// model's broadcast probe constant (used to prove the harness catches
/// cost-model drift).
TracedRun RunCanonicalQuery(bool faults, double c_probe_scale = 1.0,
                            bool corruption = false) {
  TracedRun out;
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 2000;
  config.map_slots = 20;
  config.reduce_slots = 10;
  config.memory_per_task_bytes = 64 * 1024;
  // Pin the fault model so the ctest `faults` preset's env vars cannot
  // perturb the golden comparison.
  config.faults.use_env_defaults = false;
  if (faults) {
    config.faults.seed = 42;
    config.faults.task_failure_rate = 0.08;
    config.faults.straggler_rate = 0.10;
    config.faults.straggler_slowdown = 4.0;
    config.faults.speculative_slowness_threshold = 1.5;
    config.faults.retry_backoff_ms = 200;
  }
  if (corruption) {
    // A corruption-heavy regime: plenty of healed replica re-reads and
    // shuffle re-fetches, a sprinkle of quarantined poison records, but
    // rates low enough that the query still succeeds (all replicas corrupt
    // at 0.05^3 per read is vanishingly rare at this scale).
    config.faults.seed = 42;
    config.faults.block_corruption_rate = 0.05;
    config.faults.shuffle_corruption_rate = 0.4;
    config.faults.poison_record_rate = 0.001;
    config.faults.retry_backoff_ms = 200;
  }
  MapReduceEngine engine(&dfs, config);

  TpchConfig tpch;
  tpch.scale = 0.0005;
  tpch.split_bytes = 8 * 1024;
  EXPECT_TRUE(GenerateTpch(&catalog, tpch).ok());

  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  engine.set_trace(&trace);
  engine.set_metrics(&metrics);

  StatsStore store;
  DynoOptions options;
  options.pilot.k = 256;
  options.pilot.mode = PilotRunOptions::Mode::kParallel;
  options.pilot.reuse_stats = false;
  options.cost.max_memory_bytes = config.memory_per_task_bytes;
  options.cost.memory_factor = 1.5;
  options.cost.c_probe *= c_probe_scale;
  // At this tiny scale every build side fits in memory, so Q10 plans as
  // pure map-only broadcast chains — which would leave the corruption
  // regime no shuffle to corrupt. Force repartition joins there so the
  // golden pins the shuffle-checksum path too.
  if (corruption) options.cost.enable_broadcast = false;
  DynoDriver driver(&engine, &catalog, &store, options);
  auto report = driver.Execute(MakeTpchQ10());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) out.report = std::move(*report);
  out.trace_jsonl = trace.SerializeJsonl();
  out.metrics_text = metrics.Serialize();
  return out;
}

TEST(TraceGoldenTest, CleanTraceRepeatsAndMatchesGolden) {
  TracedRun one = RunCanonicalQuery(/*faults=*/false);
  TracedRun two = RunCanonicalQuery(/*faults=*/false);
  EXPECT_TRUE(one.trace_jsonl == two.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, two.trace_jsonl);
  EXPECT_EQ(one.metrics_text, two.metrics_text);
  CompareWithGolden("q10_clean.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest, FaultyTraceRepeatsAndMatchesGolden) {
  TracedRun one = RunCanonicalQuery(/*faults=*/true);
  TracedRun two = RunCanonicalQuery(/*faults=*/true);
  EXPECT_TRUE(one.trace_jsonl == two.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, two.trace_jsonl);
  EXPECT_EQ(one.metrics_text, two.metrics_text);
  // The golden is only interesting if the fault path genuinely fired.
  EXPECT_GT(one.report.task_failures_injected, 0);
  EXPECT_GT(one.report.task_retries, 0);
  CompareWithGolden("q10_faults.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest, CorruptionTraceRepeatsAndMatchesGolden) {
  TracedRun one =
      RunCanonicalQuery(/*faults=*/false, 1.0, /*corruption=*/true);
  TracedRun two =
      RunCanonicalQuery(/*faults=*/false, 1.0, /*corruption=*/true);
  EXPECT_TRUE(one.trace_jsonl == two.trace_jsonl)
      << DescribeFirstDivergence(one.trace_jsonl, two.trace_jsonl);
  EXPECT_EQ(one.metrics_text, two.metrics_text);
  // The golden is only interesting if every integrity path genuinely fired
  // (this also guarantees scripts/check_goldens.sh can grep the events).
  EXPECT_GT(one.report.block_corruptions, 0);
  EXPECT_GT(one.report.checksum_refetches, 0);
  EXPECT_GT(one.report.records_quarantined, 0u);
  for (const char* name :
       {"\"name\":\"block_corruption\"", "\"name\":\"shuffle_checksum_retry\"",
        "\"name\":\"record_quarantined\""}) {
    EXPECT_NE(one.trace_jsonl.find(name), std::string::npos) << name;
  }
  CompareWithGolden("q10_corruption.jsonl", one.trace_jsonl);
}

TEST(TraceGoldenTest, TraceCoversTheWholeQueryLifecycle) {
  TracedRun run = RunCanonicalQuery(/*faults=*/false);
  for (const char* name :
       {"\"name\":\"pilot_leaf\"", "\"name\":\"pilot_batch\"",
        "\"name\":\"optimize\"", "\"name\":\"job_submit\"",
        "\"name\":\"job\"", "\"name\":\"map_phase\"",
        "\"name\":\"map_attempt\"", "\"name\":\"final_step\""}) {
    EXPECT_NE(run.trace_jsonl.find(name), std::string::npos) << name;
  }
  // Metrics registered by engine, pilot and driver all show up.
  for (const char* metric :
       {"counter mr.jobs", "counter pilot.runs_executed",
        "counter driver.optimizer_calls", "histogram mr.job_ms"}) {
    EXPECT_NE(run.metrics_text.find(metric), std::string::npos) << metric;
  }
}

TEST(TraceGoldenTest, CostModelPerturbationNamesFirstDivergentSpan) {
  // A deliberate one-line cost-model change (c_probe scaled 1.3x — part of
  // every broadcast join's cost, so the winner's cost must move) must fail
  // the golden comparison with a diff that names the optimizer span where
  // the costs first diverge — not merely "files differ".
  TracedRun baseline = RunCanonicalQuery(/*faults=*/false);
  TracedRun perturbed =
      RunCanonicalQuery(/*faults=*/false, /*c_probe_scale=*/1.3);
  ASSERT_NE(baseline.trace_jsonl, perturbed.trace_jsonl)
      << "perturbing c_probe must alter traced optimizer costs";
  std::string diff =
      DescribeFirstDivergence(baseline.trace_jsonl, perturbed.trace_jsonl);
  ASSERT_FALSE(diff.empty());
  EXPECT_NE(diff.find("first divergent span"), std::string::npos) << diff;
  EXPECT_NE(diff.find("\"optimize\""), std::string::npos)
      << "expected the optimize span to diverge first, got:\n" << diff;
}

TEST(TraceGoldenTest, GoldenHeadersCarryCurrentSchemaVersion) {
  // scripts/check_goldens.sh enforces the same invariant without a build;
  // this is the in-process version so `ctest` alone catches drift.
  if (KnobValue(Knob::DYNO_UPDATE_GOLDEN) != nullptr) GTEST_SKIP();
  std::string expected_header = StrFormat(
      "{\"schema\":%d,\"clock\":\"sim_ms\"}", obs::kTraceSchemaVersion);
  for (const char* name :
       {"q10_clean.jsonl", "q10_faults.jsonl", "q10_corruption.jsonl"}) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(GoldenPath(name), &contents)) << name;
    std::vector<std::string> lines = SplitLines(contents);
    ASSERT_FALSE(lines.empty()) << name;
    EXPECT_EQ(lines[0], expected_header) << name;
  }
}

}  // namespace
}  // namespace dyno
