// The benchmark's three workloads: `fig7` (the paper's Fig. 7 grid),
// `service` (QueryService as an open loop in simulated time) and `degraded`
// (DYNOPT with every fault domain on). NOTES.md records why each exists.

#ifndef DYNOBENCH_WORKLOADS_H_
#define DYNOBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace dynobench {

/// Sums of the QueryRunReports of every DYNO query run in a pass.
struct ReportTotals {
  SimMillis pilot_ms = 0;
  SimMillis optimizer_ms = 0;
  SimMillis stats_overhead_ms = 0;
  int optimizer_calls = 0;
  int plan_changes = 0;
  int broadcast_fallbacks = 0;
  int jobs_run = 0;
  int job_retries = 0;
  int oom_retries = 0;

  void Add(const dyno::QueryRunReport& report);
};

/// What one pass of a workload measured and checked.
struct PassResult {
  double wall_s = 0.0;
  int attempted = 0;
  /// Runs that returned an unexpected error or wrong rows.
  int failed = 0;
  /// Paper-documented failures (a baseline's broadcast OutOfMemory): they
  /// count in failed_frac but are not errors of the program.
  int expected_failures = 0;
  std::vector<std::string> errors;
  /// Deterministic simulated-clock metrics; must repeat bit for bit.
  MetricMap sim;
  /// Workload-specific per-layer values of this pass, by metric name.
  std::map<std::string, double> layer;
  ReportTotals reports;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Scale factors of the scenarios one pass runs on, in order.
  virtual std::vector<std::string> ScaleFactors() const = 0;
  /// Cluster of the measured scenarios.
  virtual dyno::ClusterConfig Cluster() const { return PaperCluster(); }
  /// Seed of the generated TPC-H data.
  virtual uint64_t TpchSeed(const Seeds& seeds) const { return seeds.tpch; }

  /// Computes clean reference results once per process on a clean
  /// paper-cluster scenario of ScaleFactors()[0]; false when the workload
  /// needs none.
  virtual bool NeedsReference() const { return false; }
  virtual dyno::Status Reference(Scenario* clean) {
    (void)clean;
    return dyno::Status::OK();
  }

  /// Runs one pass on freshly set-up scenarios, recording spans into
  /// `tracer` (disabled outside traced passes).
  virtual PassResult Run(const std::vector<Scenario*>& scenarios,
                         Tracer* tracer) = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Seeds& seeds);

/// Names of the end-to-end simulated-clock metrics every workload reports.
const std::vector<std::string>& SimMetricNames();

}  // namespace dynobench

#endif  // DYNOBENCH_WORKLOADS_H_
