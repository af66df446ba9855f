#ifndef DYNO_MR_ENGINE_H_
#define DYNO_MR_ENGINE_H_

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "mr/cluster_config.h"
#include "mr/job.h"
#include "storage/dfs.h"

namespace dyno {

namespace obs {
class MetricsRegistry;
class TraceSink;
}  // namespace obs

class Value;

/// Encodes one sorted spill run — a sequence of (key, value) pairs — into a
/// CRC-framed row-format Split (alternating encoded keys and values, so
/// num_records == 2 * pairs). Spill runs live in DFS files next to the job
/// output (`<output>.spill/t<task>`) while a spilling reduce task is the
/// winning attempt, and are decoded back through the same checksum path as
/// any other split: a flipped bit or truncation is DataLoss, never a wrong
/// answer (DESIGN.md §6.10).
Split EncodeSpillRun(const std::vector<std::pair<Value, Value>>& pairs);

/// Decodes a spill run back into (key, value) pairs. Verifies the CRC frame
/// first; corruption or an odd record count returns DataLoss.
Result<std::vector<std::pair<Value, Value>>> DecodeSpillRun(
    const Split& run);

/// The MapReduce cluster simulator. Jobs execute their *real* data flow
/// (map functions run over decoded rows, emissions are partitioned, sorted
/// and reduced, outputs are materialized to the DFS) while a discrete-event
/// scheduler charges simulated time: map/reduce slots are shared FIFO
/// across concurrently submitted jobs, every job pays a startup latency,
/// and each phase is billed by the byte/CPU rates in ClusterConfig.
///
/// The cluster clock persists across submissions, so end-to-end query time
/// is simply the clock delta around a sequence of Submit/SubmitAll calls.
///
/// One thread runs the simulation: each scheduling pass executes the
/// wave of launched tasks' data flows into buffered outcomes, then commits
/// them in launch order. Simulated timestamps, counters and DFS outputs
/// depend only on the configuration and the workload, so two runs of the
/// same configuration are byte-identical.
///
/// ClusterConfig::faults enables a deterministic fault model — transient
/// task failures with retry/backoff, straggler slowdowns, and speculative
/// execution — whose draws all happen at launch time from per-job streams
/// seeded by the configuration, so the guarantee holds under faults too
/// (DESIGN.md §6.2).
///
/// The cluster's nodes are fault domains (DESIGN.md §6.4): slots are
/// divided across ClusterConfig::num_nodes, completed map outputs of
/// map-reduce jobs are resident on the node that produced them, and a node
/// crash (FaultConfig::node_failure_rate or a scripted crash) kills the
/// node's running attempts, invalidates its resident map outputs, and
/// forces dependent reducers through a shuffle re-fetch after the lost
/// maps re-execute on surviving nodes. Node liveness persists across
/// submissions (like the clock); set_config() re-provisions all nodes.
class MapReduceEngine {
 public:
  /// Liveness of one simulated node. `recover_at` < 0 means the node is
  /// down for good (FaultConfig::node_recovery_ms <= 0).
  struct NodeState {
    bool alive = true;
    SimMillis recover_at = 0;
  };

  MapReduceEngine(Dfs* dfs, ClusterConfig config);

  /// Runs one job to completion. The returned JobResult carries a non-OK
  /// status if the job failed (e.g. a broadcast build side exceeded task
  /// memory); a Status return means the spec itself was invalid, and then
  /// nothing ran and no output path was created.
  Result<JobResult> Submit(const JobSpec& spec);

  /// Runs several jobs concurrently, sharing cluster slots (the paper's
  /// PILR_MT and the MO/two-at-a-time execution strategies). Results are in
  /// spec order. When a submit gate is installed (see set_submit_gate) the
  /// call is routed through it instead of executing directly. The batch is
  /// validated as a whole before any job starts: one invalid spec, or two
  /// specs writing the same output path, makes the call return a Status
  /// having created no output for any job of the batch.
  Result<std::vector<JobResult>> SubmitAll(const std::vector<JobSpec>& specs);

  /// Executes a batch immediately, bypassing any installed submit gate.
  /// This is the gate owner's path back into the engine: the QueryService
  /// intercepts per-driver SubmitAll calls, merges the batches of every
  /// waiting session into one combined wave, and runs that wave here so
  /// jobs from different queries genuinely share cluster slots.
  Result<std::vector<JobResult>> SubmitAllDirect(
      const std::vector<JobSpec>& specs);

  /// Scheduling hook for a multi-query service: when set, Submit/SubmitAll
  /// hand the batch to the gate and return whatever it returns. The gate
  /// runs on the submitting thread; it is expected to eventually execute
  /// the jobs via SubmitAllDirect (possibly merged with other sessions'
  /// batches) and hand each session its own results back, in spec order.
  using SubmitGate =
      std::function<Result<std::vector<JobResult>>(std::vector<JobSpec>)>;
  void set_submit_gate(SubmitGate gate) { submit_gate_ = std::move(gate); }
  bool has_submit_gate() const { return static_cast<bool>(submit_gate_); }

  /// Current simulated cluster time.
  SimMillis now() const { return now_; }

  /// Advances the clock by `ms` (models client-side work between jobs, e.g.
  /// optimizer calls).
  void AdvanceClock(SimMillis ms) { now_ += ms; }

  Dfs* dfs() const { return dfs_; }
  const ClusterConfig& config() const { return config_; }

  /// Replaces the cluster configuration (used by benches that sweep rates).
  /// Re-provisions the node fleet: every node comes back alive.
  void set_config(const ClusterConfig& config) {
    config_ = ResolveFaultEnv(config);
    node_states_.assign(std::max(1, config_.num_nodes), NodeState{});
    scripted_crashes_consumed_ = 0;
  }

  /// Per-node liveness (index < ClusterConfig::num_nodes).
  const std::vector<NodeState>& node_states() const { return node_states_; }

  /// Attaches an observability sink/registry (non-owning, may be null).
  /// The engine records job/phase/attempt spans into the sink and bumps
  /// counters and latency histograms in the registry. Recording follows the
  /// simulation's deterministic event order, so two runs of the same
  /// configuration serialize byte-identical traces. Components driving the
  /// engine (pilot, optimizer, driver) reach the same sink through the
  /// accessors.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Per-query slot accounting: total committed attempt time (map + reduce
  /// slot occupancy, SimMillis) keyed by JobSpec::query_id, accumulated
  /// when jobs finish. Jobs with an empty query_id are not tracked. Read by
  /// the QueryService's least-attained fair-share policy and by
  /// bench_concurrency's utilization figure; updated only on the scheduler
  /// thread.
  const std::map<std::string, SimMillis>& query_slot_ms() const {
    return query_slot_ms_;
  }

  /// Cumulative committed attempt time across *all* jobs regardless of
  /// query_id, in slot-milliseconds. The single-query analogue of
  /// query_slot_ms(); the driver's retry-budget accounting falls back to
  /// deltas of this when it runs without a query id.
  SimMillis busy_slot_ms_total() const { return busy_slot_ms_total_; }

  /// Busy-slot fraction of the most recent SubmitAllDirect wave:
  /// committed slot-ms during the wave divided by (wave duration × total
  /// map+reduce slots), clamped to [0, 1]. 0 until a wave has run. The
  /// QueryService's load-shedding gate reads this as its running-slot
  /// pressure signal; updated only on the scheduler thread.
  double last_wave_pressure() const { return last_wave_pressure_; }

 private:
  /// One SubmitAllDirect batch's discrete-event simulation (engine.cc).
  class Simulation;

  /// Fills config.faults from DYNO_* env vars when the caller did not
  /// configure injection explicitly (FaultConfig::use_env_defaults).
  static ClusterConfig ResolveFaultEnv(ClusterConfig config);

  Dfs* dfs_;
  ClusterConfig config_;
  SimMillis now_ = 0;
  /// Node liveness, persisted across submissions like the clock.
  std::vector<NodeState> node_states_;
  /// How many FaultConfig::scripted_node_crashes already fired.
  size_t scripted_crashes_consumed_ = 0;
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  SubmitGate submit_gate_;
  /// Committed slot time per JobSpec::query_id (see query_slot_ms()).
  std::map<std::string, SimMillis> query_slot_ms_;
  /// Committed slot time across all jobs (see busy_slot_ms_total()).
  SimMillis busy_slot_ms_total_ = 0;
  /// Busy-slot fraction of the last wave (see last_wave_pressure()).
  double last_wave_pressure_ = 0.0;
};

}  // namespace dyno

#endif  // DYNO_MR_ENGINE_H_
