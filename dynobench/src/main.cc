// The repository benchmark program.
//
//   dynobench --workload fig7|service|degraded --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// One run sets up fresh scenarios and runs the workload pass after pass
// until S seconds have passed (at least one pass; two with --trace 1),
// checks every pass's rows and that every pass repeats the first pass's
// simulated-clock metrics bit for bit, and prints one JSON result line last.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and reports the per-layer metrics
// of the median traced pass plus the tracing overhead.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "workloads.h"

extern char** environ;

namespace dynobench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Every knob is set in code; an inherited DYNO_* variable would silently
/// change what is measured.
bool RefuseInheritedKnobs() {
  bool found = false;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DYNO_", 5) == 0) {
      std::fprintf(stderr, "dynobench: refusing inherited %s\n", *env);
      found = true;
    }
  }
  return found;
}

/// The per-layer metrics of a traced run, in print order, with units.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"tpch.generate_s", "s"},
      {"tpch.rows", "count"},
      {"storage.table_mb", "MiB"},
      {"storage.physical_per_logical", "ratio"},
      {"json.decode_ns_per_row", "ns/row"},
      {"json.encoded_size_ns_per_row", "ns/row"},
      {"common.crc32c_ns_per_kb", "ns/KiB"},
      {"mr.wall_s", "s"},
      {"mr.jobs", "count"},
      {"mr.map_tasks", "count"},
      {"mr.reduce_tasks", "count"},
      {"mr.map_input_mb", "MiB"},
      {"mr.shuffle_mb", "MiB"},
      {"mr.us_per_task", "us/task"},
      {"mr.map_slot_sim_s", "sim_s"},
      {"mr.reduce_slot_sim_s", "sim_s"},
      {"mr.task_retries", "count"},
      {"mr.task_failures_injected", "count"},
      {"mr.speculative_launches", "count"},
      {"mr.speculative_win_ratio", "ratio"},
      {"mr.node_crashes", "count"},
      {"mr.maps_invalidated", "count"},
      {"mr.block_corruptions", "count"},
      {"mr.checksum_refetches", "count"},
      {"mr.reduce_spills", "count"},
      {"mr.spill_mb_written", "MiB"},
      {"mr.spill_merge_passes", "count"},
      {"mr.peak_task_memory_kb", "KiB"},
      {"pilot.wall_s", "s"},
      {"pilot.jobs", "count"},
      {"pilot.sim_s", "sim_s"},
      {"pilot.runs_skipped_cached", "count"},
      {"optimizer.calls", "count"},
      {"optimizer.groups_explored", "count"},
      {"optimizer.plan_changes", "count"},
      {"optimizer.sim_s", "sim_s"},
      {"stats.sim_overhead_s", "sim_s"},
      {"exec.agg_wall_s", "s"},
      {"exec.broadcast_fallbacks", "count"},
      {"dyno.wall_s", "s"},
      {"dyno.self_s", "s"},
      {"dyno.jobs_run", "count"},
      {"dyno.job_retries", "count"},
      {"dyno.oom_retries", "count"},
      {"baselines.best_static_wall_s", "s"},
      {"baselines.relopt_wall_s", "s"},
      {"baselines.self_s", "s"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"columnar.batches", "count"},
      {"columnar.splits_pruned", "count"},
      {"columnar.prune_ratio", "ratio"},
      {"service.wall_s", "s"},
      {"service.waves", "count"},
      {"service.jobs_per_wave", "ratio"},
      {"service.queue_wait_p50_sim_s", "sim_s"},
      {"service.queue_wait_tail_sim_s", "sim_s"},
      {"service.preemptions", "count"},
      {"service.shed", "count"},
      {"service.slot_util", "ratio"},
      {"failed_frac", "ratio"},
      {"dynopt_losses", "count"},
      {"query_tail_percentile", "pct"},
      {"query_samples", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return units;
}

/// One measured pass together with its observers.
struct Pass {
  bool traced = false;
  PassResult result;
  std::unique_ptr<Tracer> tracer;
  GateStats gate;
  std::unique_ptr<dyno::obs::MetricsRegistry> registry;
  StorageSizes storage;
  KernelProbes probes;
};

class Runner {
 public:
  Runner(const Args& args, Workload* workload)
      : args_(args), workload_(workload), seeds_(DeriveSeeds(args.seed)) {}

  int Run();

 private:
  /// Builds one scenario per scale factor, timing the whole set-up.
  std::vector<std::unique_ptr<Scenario>> Setup(
      const dyno::ClusterConfig& cluster, const std::vector<std::string>& sfs,
      Tracer* tracer);
  void RunPass(bool traced);
  MetricMap LayerMetrics(const Pass& pass) const;
  void Fail(const std::string& message) { errors_.push_back(message); }

  Args args_;
  Workload* workload_;
  Seeds seeds_;
  std::vector<double> setup_s_;
  std::vector<double> generate_s_;
  std::vector<Pass> passes_;
  std::vector<std::string> errors_;
};

std::vector<std::unique_ptr<Scenario>> Runner::Setup(
    const dyno::ClusterConfig& cluster, const std::vector<std::string>& sfs,
    Tracer* tracer) {
  std::vector<std::unique_ptr<Scenario>> scenarios;
  double generate_s = 0.0;
  double start = NowSeconds();
  for (const std::string& sf : sfs) {
    Tracer::Scope span(tracer, "tpch", "GenerateTpch", "sf=" + sf);
    auto scenario = MakeScenario(sf, cluster, workload_->TpchSeed(seeds_));
    if (!scenario.ok()) {
      Fail("setup " + sf + ": " + scenario.status().ToString());
      return {};
    }
    generate_s += (*scenario)->generate_s;
    scenarios.push_back(std::move(*scenario));
  }
  setup_s_.push_back(NowSeconds() - start);
  generate_s_.push_back(generate_s);
  return scenarios;
}

void Runner::RunPass(bool traced) {
  Pass pass;
  pass.traced = traced;
  pass.tracer = std::make_unique<Tracer>(traced);
  auto scenarios = Setup(workload_->Cluster(), workload_->ScaleFactors(),
                         pass.tracer.get());
  if (scenarios.empty()) return;
  std::vector<Scenario*> raw;
  if (traced) pass.registry = std::make_unique<dyno::obs::MetricsRegistry>();
  for (auto& sc : scenarios) {
    if (traced) {
      sc->engine->set_metrics(pass.registry.get());
      InstallTimingGate(sc->engine.get(), pass.tracer.get(), &pass.gate);
    }
    raw.push_back(sc.get());
  }
  pass.result = workload_->Run(raw, pass.tracer.get());
  if (traced) {
    for (auto& sc : scenarios) {
      auto sizes = MeasureStorage(*sc->catalog);
      if (!sizes.ok()) {
        Fail("storage: " + sizes.status().ToString());
        continue;
      }
      pass.storage.rows += sizes->rows;
      pass.storage.physical_bytes += sizes->physical_bytes;
      pass.storage.logical_bytes += sizes->logical_bytes;
    }
    // Kernel probes on the largest scale factor's splits.
    auto probes = RunKernelProbes(*scenarios.back()->catalog);
    if (probes.ok()) {
      pass.probes = *probes;
    } else {
      Fail("probes: " + probes.status().ToString());
    }
  }
  passes_.push_back(std::move(pass));
}

MetricMap Runner::LayerMetrics(const Pass& pass) const {
  const GateStats& g = pass.gate;
  const ReportTotals& r = pass.result.reports;
  dyno::obs::MetricsRegistry* reg = pass.registry.get();
  auto counter = [reg](const char* name) {
    return static_cast<double>(reg->GetCounter(name)->value());
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  std::map<std::string, double> self = pass.tracer->SelfSeconds();
  std::map<std::string, double> v;
  v["tpch.generate_s"] = Median(generate_s_);
  v["tpch.rows"] = static_cast<double>(pass.storage.rows);
  v["storage.table_mb"] = static_cast<double>(pass.storage.physical_bytes) / kMiB;
  v["storage.physical_per_logical"] =
      static_cast<double>(pass.storage.physical_bytes) /
      static_cast<double>(pass.storage.logical_bytes);
  v["json.decode_ns_per_row"] = pass.probes.decode_ns_per_row;
  v["json.encoded_size_ns_per_row"] = pass.probes.encoded_size_ns_per_row;
  v["common.crc32c_ns_per_kb"] = pass.probes.crc32c_ns_per_kb;

  uint64_t tasks = g.map_tasks + g.reduce_tasks;
  v["mr.wall_s"] = g.mr_wall_s;
  v["mr.jobs"] = counter("mr.jobs");
  v["mr.map_tasks"] = static_cast<double>(g.map_tasks);
  v["mr.reduce_tasks"] = static_cast<double>(g.reduce_tasks);
  v["mr.map_input_mb"] = static_cast<double>(g.map_input_bytes) / kMiB;
  v["mr.shuffle_mb"] = static_cast<double>(g.shuffle_bytes) / kMiB;
  v["mr.us_per_task"] =
      tasks == 0 ? 0.0 : g.mr_wall_s * 1e6 / static_cast<double>(tasks);
  v["mr.map_slot_sim_s"] = static_cast<double>(g.map_slot_ms) / 1e3;
  v["mr.reduce_slot_sim_s"] = static_cast<double>(g.reduce_slot_ms) / 1e3;
  v["mr.task_retries"] = counter("mr.task_retries");
  v["mr.task_failures_injected"] = counter("mr.task_failures_injected");
  double launches = counter("mr.speculative_launches");
  v["mr.speculative_launches"] = launches;
  v["mr.speculative_win_ratio"] =
      launches == 0 ? 0.0 : counter("mr.speculative_wins") / launches;
  v["mr.node_crashes"] = counter("mr.node_crashes");
  v["mr.maps_invalidated"] = counter("mr.maps_invalidated");
  v["mr.block_corruptions"] = counter("mr.integrity_block_corruptions");
  v["mr.checksum_refetches"] = counter("mr.integrity_shuffle_refetches");
  v["mr.reduce_spills"] = counter("mr.memory_spilled_tasks");
  v["mr.spill_mb_written"] = counter("mr.memory_spill_bytes") / kMiB;
  v["mr.spill_merge_passes"] = static_cast<double>(g.spill_merge_passes);
  v["mr.peak_task_memory_kb"] =
      static_cast<double>(g.peak_task_memory_bytes) / 1024.0;

  v["pilot.wall_s"] = g.pilot_wall_s;
  v["pilot.jobs"] = static_cast<double>(g.pilot_jobs);
  v["pilot.sim_s"] = static_cast<double>(r.pilot_ms) / 1e3;
  v["pilot.runs_skipped_cached"] = counter("pilot.runs_skipped_cached");
  v["optimizer.calls"] = r.optimizer_calls;
  v["optimizer.groups_explored"] = counter("optimizer.groups_explored");
  v["optimizer.plan_changes"] = r.plan_changes;
  v["optimizer.sim_s"] = static_cast<double>(r.optimizer_ms) / 1e3;
  v["stats.sim_overhead_s"] = static_cast<double>(r.stats_overhead_ms) / 1e3;
  v["exec.agg_wall_s"] = g.agg_wall_s;
  v["exec.broadcast_fallbacks"] = r.broadcast_fallbacks;

  v["dyno.wall_s"] = pass.tracer->TotalSeconds("dyno", "DYNOPT") +
                     pass.tracer->TotalSeconds("dyno", "DYNOPT-SIMPLE");
  v["dyno.self_s"] = self["dyno"];
  v["dyno.jobs_run"] = r.jobs_run;
  v["dyno.job_retries"] = r.job_retries;
  v["dyno.oom_retries"] = r.oom_retries;
  v["baselines.best_static_wall_s"] =
      pass.tracer->TotalSeconds("baselines", "BESTSTATIC");
  v["baselines.relopt_wall_s"] = pass.tracer->TotalSeconds("baselines", "RELOPT");
  v["baselines.self_s"] = self["baselines"];

  double batches = counter("scan.batches");
  double pruned = counter("scan.splits_pruned");
  v["columnar.batches"] = batches;
  v["columnar.splits_pruned"] = pruned;
  v["columnar.prune_ratio"] =
      batches + pruned == 0 ? 0.0 : pruned / (batches + pruned);
  double waves = counter("service.waves");
  v["service.wall_s"] = pass.tracer->TotalSeconds("service", "RunAll");
  v["service.waves"] = waves;
  v["service.jobs_per_wave"] =
      waves == 0 ? 0.0 : counter("service.wave_jobs") / waves;

  const PassResult& res = pass.result;
  v["failed_frac"] = res.attempted == 0
                         ? 0.0
                         : static_cast<double>(res.failed +
                                               res.expected_failures) /
                               res.attempted;
  for (const auto& [name, value] : res.layer) v[name] = value;

  std::vector<double> traced, untraced;
  for (const Pass& p : passes_) {
    (p.traced ? traced : untraced).push_back(p.result.wall_s);
  }
  v["trace.overhead_frac"] = Median(traced) / Median(untraced) - 1.0;

  MetricMap out;
  for (const auto& [name, unit] : LayerMetricUnits()) {
    out[name] = {v.count(name) ? v[name] : 0.0, unit};
  }
  return out;
}

void PrintResult(bool correct, long attempted, long failed,
                 const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.value, metrics[i].second.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Runner::Run() {
  if (workload_->NeedsReference()) {
    auto clean = Setup(PaperCluster(), {workload_->ScaleFactors()[0]}, nullptr);
    if (clean.empty()) return 1;
    dyno::Status st = workload_->Reference(clean[0].get());
    if (!st.ok()) Fail("reference: " + st.ToString());
  }
  // Passes: at least one (trace 0) or one untraced plus one traced
  // (trace 1), then more until the run's seconds are spent.
  double measure_start = NowSeconds();
  size_t min_passes = args_.trace ? 2 : 1;
  while (errors_.empty() &&
         (passes_.size() < min_passes ||
          NowSeconds() - measure_start < args_.seconds)) {
    RunPass(args_.trace && passes_.size() % 2 == 1);
  }
  // Set-up time is the median of at least five set-ups, and of more when
  // they are short, so that a sub-second set-up still spans two seconds.
  auto setup_total = [this] {
    double total = 0.0;
    for (double s : setup_s_) total += s;
    return total;
  };
  while (errors_.empty() &&
         (setup_s_.size() < 5 || (setup_total() < 2.0 && setup_s_.size() < 15))) {
    Setup(workload_->Cluster(), workload_->ScaleFactors(), nullptr);
  }

  long attempted = 0, failed = 0;
  for (const Pass& pass : passes_) {
    attempted += pass.result.attempted;
    failed += pass.result.failed;
    for (const std::string& e : pass.result.errors) errors_.push_back(e);
    // Simulated time must repeat bit for bit, traced or not.
    for (const auto& [name, metric] : pass.result.sim) {
      if (metric.value != passes_[0].result.sim.at(name).value) {
        failed++;
        errors_.push_back("simulated metric " + name +
                          " differs between passes");
      }
    }
  }
  for (const std::string& e : errors_) {
    std::fprintf(stderr, "dynobench: %s\n", e.c_str());
  }
  bool correct = errors_.empty() && failed == 0 && !passes_.empty();

  std::vector<double> wall;
  for (const Pass& pass : passes_) {
    if (!pass.traced) wall.push_back(pass.result.wall_s);
  }
  std::vector<std::pair<std::string, Metric>> metrics;
  if (!args_.trace) {
    metrics.push_back({"wall_s", {Median(wall), "s"}});
    metrics.push_back({"setup_s", {Median(setup_s_), "s"}});
    metrics.push_back({"peak_rss_mb", {PeakRssMb(), "MiB"}});
    if (!passes_.empty()) {
      for (const std::string& name : SimMetricNames()) {
        metrics.push_back({name, passes_[0].result.sim.at(name)});
      }
    }
  } else {
    // The traced pass with the median wall time represents the run.
    std::vector<const Pass*> traced;
    for (const Pass& pass : passes_) {
      if (pass.traced) traced.push_back(&pass);
    }
    if (!traced.empty()) {
      std::sort(traced.begin(), traced.end(), [](const Pass* a, const Pass* b) {
        return a->result.wall_s < b->result.wall_s;
      });
      const Pass* median = traced[(traced.size() - 1) / 2];
      for (const auto& [name, metric] : LayerMetrics(*median)) {
        metrics.push_back({name, metric});
      }
      if (!args_.trace_out.empty()) {
        dyno::Status st = median->tracer->WriteChromeTrace(args_.trace_out);
        if (!st.ok()) std::fprintf(stderr, "dynobench: %s\n", st.ToString().c_str());
      }
    }
  }
  if (!passes_.empty()) {
    const PassResult& first = passes_[0].result;
    std::fprintf(stderr,
                 "dynobench: workload=%s seed=%llu passes=%zu setups=%zu "
                 "expected_failures=%d query_tail_sim_s=p%.1f of %.0f "
                 "samples\n",
                 args_.workload.c_str(), (unsigned long long)args_.seed,
                 passes_.size(), setup_s_.size(), first.expected_failures,
                 first.layer.at("query_tail_percentile"),
                 first.layer.at("query_samples"));
  }
  std::fprintf(stderr, "dynobench: setup_s samples:");
  for (double s : setup_s_) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\ndynobench: wall_s samples:");
  for (const Pass& pass : passes_) {
    std::fprintf(stderr, " %.3f%s", pass.result.wall_s, pass.traced ? "t" : "");
  }
  std::fprintf(stderr, "\n");
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dynobench

int main(int argc, char** argv) {
  using namespace dynobench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dynobench --workload fig7|service|degraded --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  if (RefuseInheritedKnobs()) return 2;
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, DeriveSeeds(args.seed));
  if (workload == nullptr) {
    std::fprintf(stderr, "dynobench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.workload == "service") {
    // The library's only switches for the columnar format and zone maps are
    // these two variables; set here, for this workload alone.
    setenv("DYNO_COLUMNAR", "1", 1);
    setenv("DYNO_ZONE_MAPS", "1", 1);
  }
  Runner runner(args, workload.get());
  return runner.Run();
}
