// Shared pieces of the repository benchmark: the paper cluster, seeded
// scenario construction, order-insensitive result digests, the in-memory
// span recorder, the timing submit gate and the kernel probes.
//
// Everything here drives the library through its public entry points; the
// benchmark changes no library code.

#ifndef DYNOBENCH_HARNESS_H_
#define DYNOBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dyno/driver.h"
#include "mr/cluster_config.h"
#include "mr/engine.h"
#include "optimizer/cost_model.h"
#include "storage/catalog.h"
#include "storage/dfs.h"

namespace dynobench {

using dyno::SimMillis;

/// Host monotonic clock, in seconds.
double NowSeconds();

double Median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it. With fewer
/// than eleven samples no such percentile exists and the maximum is
/// reported instead (`percentile` = 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// Geometric mean of positive values (0 for an empty input).
double GeoMean(const std::vector<double>& values);

/// One value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Every random stream of a run, derived from the one workload seed.
struct Seeds {
  uint64_t tpch = 0;
  uint64_t pilot = 0;
  uint64_t fault = 0;
  uint64_t service = 0;
};
Seeds DeriveSeeds(uint64_t workload_seed);

/// The paper cluster of bench/bench_common.cc (15 nodes, 140/84 slots,
/// 5 s job startup, 64 KiB task memory, data-dominated rates), set through
/// the typed structs: one execution thread, faults off with
/// `use_env_defaults = false`, memory model off.
dyno::ClusterConfig PaperCluster();

/// Simulator scale of a paper scale factor ("SF100", "SF300", "SF1000").
double ScaleFor(const std::string& sf);

/// One simulated cluster holding generated TPC-H data at one scale factor.
struct Scenario {
  std::string sf;
  dyno::Dfs dfs;
  std::unique_ptr<dyno::Catalog> catalog;
  std::unique_ptr<dyno::MapReduceEngine> engine;
  dyno::CostModelParams cost;
  double generate_s = 0.0;  ///< Host time of GenerateTpch alone.
};

/// Builds the engine and generates TPC-H at `sf` from `tpch_seed`.
dyno::Result<std::unique_ptr<Scenario>> MakeScenario(
    const std::string& sf, const dyno::ClusterConfig& cluster,
    uint64_t tpch_seed);

/// DYNOPT options as the Fig. 7 bench runs them (pilot k = 128), with every
/// retry knob set explicitly so no environment default is consulted.
dyno::DynoOptions DynoptOptions(const Scenario& scenario, uint64_t pilot_seed,
                                dyno::ExecutionStrategy strategy);

/// Order-insensitive digest of a result file: row count plus a commutative
/// sum of per-row hashes that ignore the order of a row's top-level fields
/// (different join orders emit the same columns in different orders).
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
dyno::Result<Digest> DigestFile(const dyno::DfsFile& file);

/// In-memory span recorder for the traced run. Spans nest by a stack (the
/// benchmark is single-threaded apart from the service's baton-serialized
/// session threads, which never overlap). A disabled tracer records
/// nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: `layer` is the module the span times, `name` the call.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, std::string name,
          std::string tags = "");
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  /// Per-layer self time: each span's duration minus the part covered by
  /// its direct children, summed by layer.
  std::map<std::string, double> SelfSeconds() const;
  /// Summed duration of the spans of `layer` named `name`.
  double TotalSeconds(const std::string& layer, const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON.
  dyno::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    std::string tags;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  bool enabled_;
  double origin_s_ = NowSeconds();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Counts and host time seen by the benchmark's submit gate.
struct GateStats {
  double mr_wall_s = 0.0;
  double pilot_wall_s = 0.0;
  double agg_wall_s = 0.0;
  uint64_t pilot_jobs = 0;
  uint64_t map_tasks = 0;
  uint64_t reduce_tasks = 0;
  uint64_t map_input_bytes = 0;
  uint64_t shuffle_bytes = 0;
  SimMillis map_slot_ms = 0;
  SimMillis reduce_slot_ms = 0;
  uint64_t spill_merge_passes = 0;
  uint64_t peak_task_memory_bytes = 0;
};

/// Installs a gate that forwards every batch unchanged to SubmitAllDirect,
/// times it and classifies it: `pilr:*` jobs are pilot jobs,
/// `groupby`/`orderby` aggregation jobs, everything else plan jobs.
void InstallTimingGate(dyno::MapReduceEngine* engine, Tracer* tracer,
                       GateStats* stats);

/// Kernel probes over a scenario's own generated splits.
struct KernelProbes {
  double decode_ns_per_row = 0.0;
  double encoded_size_ns_per_row = 0.0;
  double crc32c_ns_per_kb = 0.0;
};
dyno::Result<KernelProbes> RunKernelProbes(const dyno::Catalog& catalog);

/// Sizes of a scenario's base tables.
struct StorageSizes {
  uint64_t rows = 0;
  uint64_t physical_bytes = 0;
  uint64_t logical_bytes = 0;
};
dyno::Result<StorageSizes> MeasureStorage(const dyno::Catalog& catalog);

/// Process peak resident set size in MiB.
double PeakRssMb();

}  // namespace dynobench

#endif  // DYNOBENCH_HARNESS_H_
