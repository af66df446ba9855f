#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace dyno::bench {

Scenario::~Scenario() {
  if (trace == nullptr || trace_path.empty()) return;
  Status st = trace->WriteJsonl(trace_path + ".jsonl");
  if (st.ok()) st = trace->WriteChromeTrace(trace_path + ".chrome.json");
  if (st.ok() && metrics != nullptr) {
    std::string rendered = metrics->Serialize();
    std::FILE* f = std::fopen((trace_path + ".metrics.txt").c_str(), "w");
    if (f != nullptr) {
      std::fwrite(rendered.data(), 1, rendered.size(), f);
      std::fclose(f);
    }
  }
  if (!st.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n", st.ToString().c_str());
  } else {
    std::fprintf(stderr, "trace written to %s.{jsonl,chrome.json}\n",
                 trace_path.c_str());
  }
}

double ScaleFor(const std::string& sf_name) {
  if (sf_name == "SF100") return 0.002;
  if (sf_name == "SF300") return 0.006;
  if (sf_name == "SF1000") return 0.02;
  return 0.002;
}

std::unique_ptr<Scenario> MakeScenario(const std::string& sf_name,
                                       bool hive_broadcast) {
  auto scenario = std::make_unique<Scenario>();
  scenario->sf_name = sf_name;
  scenario->tpch_scale = ScaleFor(sf_name);

  // The paper's cluster: 15 nodes, 140 map / 84 reduce slots, 15 s job
  // startup, 2 GB per slot. Task memory is an *absolute* budget: it does
  // not grow with the scale factor, which is why larger SFs offer fewer
  // broadcast opportunities (paper §6.5).
  // DYNO_NODES overrides the node count (the fault domains slots and
  // resident map outputs are divided across); the paper's testbed is 15.
  scenario->cluster.num_nodes = 15;
  if (const char* env = std::getenv("DYNO_NODES")) {
    scenario->cluster.num_nodes =
        static_cast<int>(EnvInt64OrDie("DYNO_NODES", env, 1, 1000000));
  }
  scenario->cluster.map_slots = 140;
  scenario->cluster.reduce_slots = 84;
  scenario->cluster.job_startup_ms = 5000;
  scenario->cluster.memory_per_task_bytes = 64 * 1024;
  // Calibrated so jobs are data-dominated (many map waves, expensive
  // shuffles) rather than startup-dominated, matching the paper's
  // several-minute queries; see DESIGN.md §6.
  scenario->cluster.map_read_bytes_per_ms = 2.0;
  scenario->cluster.map_write_bytes_per_ms = 2.0;
  scenario->cluster.shuffle_bytes_per_ms = 50.0;
  scenario->cluster.reduce_read_bytes_per_ms = 4.0;
  scenario->cluster.reduce_write_bytes_per_ms = 4.0;
  scenario->cluster.side_load_bytes_per_ms = 100.0;
  scenario->cluster.cpu_units_per_ms = 500.0;
  // Failure-regime runs: DYNO_FAULT_SEED / DYNO_TASK_FAILURE_RATE /
  // DYNO_STRAGGLER_RATE / DYNO_MAX_TASK_ATTEMPTS / DYNO_NODE_FAILURE_RATE /
  // DYNO_NODE_RECOVERY_MS / DYNO_BLOCK_CORRUPTION_RATE /
  // DYNO_SHUFFLE_CORRUPTION_RATE / DYNO_POISON_RECORD_RATE /
  // DYNO_MAX_SKIPPED_RECORDS switch deterministic fault injection on (e.g.
  // Fig. 5 under a 5% task failure rate, a node-loss regime, or a 2%
  // corruption regime). Off when the variables are unset.
  scenario->cluster.faults.ApplyEnvOverrides();
  if (scenario->cluster.faults.enabled()) {
    std::fprintf(stderr,
                 "fault injection: seed=%llu failure_rate=%.3f "
                 "straggler_rate=%.3f max_attempts=%d "
                 "node_failure_rate=%.4f nodes=%d "
                 "block_corruption=%.3f shuffle_corruption=%.3f "
                 "poison_rate=%.4f max_skipped=%d\n",
                 (unsigned long long)scenario->cluster.faults.seed,
                 scenario->cluster.faults.task_failure_rate,
                 scenario->cluster.faults.straggler_rate,
                 scenario->cluster.faults.max_task_attempts,
                 scenario->cluster.faults.node_failure_rate,
                 scenario->cluster.num_nodes,
                 scenario->cluster.faults.block_corruption_rate,
                 scenario->cluster.faults.shuffle_corruption_rate,
                 scenario->cluster.faults.poison_record_rate,
                 scenario->cluster.faults.max_skipped_records);
  }
  scenario->engine =
      std::make_unique<MapReduceEngine>(&scenario->dfs, scenario->cluster);
  scenario->catalog = std::make_unique<Catalog>(&scenario->dfs);

  // DYNO_TRACE_PATH=/tmp/run turns on query-lifecycle tracing: the run
  // writes /tmp/run.jsonl (deterministic, golden-diffable),
  // /tmp/run.chrome.json (chrome://tracing / Perfetto) and
  // /tmp/run.metrics.txt on scenario teardown. Benches reusing one
  // scenario for several variants concatenate into a single trace.
  if (const char* trace_path = std::getenv("DYNO_TRACE_PATH")) {
    if (trace_path[0] != '\0') {
      scenario->trace = std::make_unique<obs::TraceSink>();
      scenario->metrics = std::make_unique<obs::MetricsRegistry>();
      scenario->trace_path = StrFormat("%s_%s", trace_path, sf_name.c_str());
      scenario->engine->set_trace(scenario->trace.get());
      scenario->engine->set_metrics(scenario->metrics.get());
    }
  }

  scenario->cost.max_memory_bytes = scenario->cluster.memory_per_task_bytes;
  // One job costs ~15 s of startup plus a materialization round-trip; in
  // cost units (~c_probe bytes) that is roughly 200k at the bench rates.
  scenario->cost.c_job = 200000.0;
  scenario->cost.memory_factor = scenario->cluster.broadcast_memory_factor;
  (void)hive_broadcast;  // Exec-level flag; plumbed per run.

  TpchConfig config;
  config.scale = scenario->tpch_scale;
  config.split_bytes = 2 * 1024;
  Status st = GenerateTpch(scenario->catalog.get(), config);
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H generation failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  return scenario;
}

Measured RunDynopt(Scenario* scenario, const Query& query,
                   ExecutionStrategy strategy, bool hive) {
  Measured out;
  StatsStore store;
  DynoOptions options;
  options.cost = scenario->cost;
  options.strategy = strategy;
  // k scaled to the simulator's table sizes (the paper's 1024 is ~1e-5 of
  // its smallest table; 128 keeps the same "tiny sample" proportionality).
  options.pilot.k = 128;
  options.exec.hive_broadcast = hive;
  DynoDriver driver(scenario->engine.get(), scenario->catalog.get(), &store,
                    options);
  auto report = driver.Execute(query);
  if (!report.ok()) {
    out.detail = report.status().ToString();
    return out;
  }
  out.ok = true;
  out.total_ms = report->total_ms;
  out.report = std::move(*report);
  return out;
}

Measured RunDynoptSimple(Scenario* scenario, const Query& query, bool hive) {
  return RunDynopt(scenario, query, ExecutionStrategy::kSimpleParallel, hive);
}

Measured RunRelopt(Scenario* scenario, const Query& query, bool hive) {
  Measured out;
  RelOptBaseline relopt(scenario->engine.get(), scenario->catalog.get(),
                        scenario->cost);
  ExecOptions exec;
  exec.hive_broadcast = hive;
  auto run = relopt.PlanAndExecute(query.join_block, exec);
  if (!run.ok()) {
    out.detail = run.status().ToString();
    return out;
  }
  out.total_ms = run->elapsed_ms;
  out.ok = run->exec_status.ok();
  out.detail = run->exec_status.ok() ? run->plan_compact
                                     : run->exec_status.ToString();
  return out;
}

Measured RunBestStatic(Scenario* scenario, const Query& query, bool hive) {
  Measured out;
  BestStaticOptions options;
  options.cost = scenario->cost;
  options.execute_top_k = 5;
  options.exec.hive_broadcast = hive;
  BestStaticBaseline baseline(scenario->engine.get(),
                              scenario->catalog.get(), options);
  auto result = baseline.Run(query.join_block);
  if (!result.ok()) {
    out.detail = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.total_ms = result->best_time_ms;
  out.detail = result->best_plan;
  return out;
}

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-18s", "");
  for (const std::string& column : columns) {
    std::printf("%14s", column.c_str());
  }
  std::printf("\n");
}

void PrintRow(const std::string& name, const std::vector<double>& values,
              double baseline) {
  std::printf("%-18s", name.c_str());
  for (double value : values) {
    if (value < 0) {
      std::printf("%14s", "fail");
    } else if (baseline > 0) {
      std::printf("%13.1f%%", 100.0 * value / baseline);
    } else {
      std::printf("%14.0f", value);
    }
  }
  std::printf("\n");
}

}  // namespace dyno::bench
