#include "mr/engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <queue>
#include <utility>

#include "columnar/batch_eval.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "mr/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dyno {

void Counters::MergeFrom(const Counters& other) {
  map_input_records += other.map_input_records;
  map_input_bytes += other.map_input_bytes;
  map_output_records += other.map_output_records;
  map_output_bytes += other.map_output_bytes;
  reduce_input_records += other.reduce_input_records;
  output_records += other.output_records;
  output_bytes += other.output_bytes;
}

void JobTotals::Add(const JobTotals& other) {
  task_failures_injected += other.task_failures_injected;
  task_retries += other.task_retries;
  speculative_launches += other.speculative_launches;
  speculative_wins += other.speculative_wins;
  node_crashes_observed += other.node_crashes_observed;
  attempts_killed_by_node += other.attempts_killed_by_node;
  maps_invalidated += other.maps_invalidated;
  shuffle_fetch_retries += other.shuffle_fetch_retries;
  block_corruptions += other.block_corruptions;
  checksum_refetches += other.checksum_refetches;
  records_quarantined += other.records_quarantined;
  reduce_spills += other.reduce_spills;
  spill_bytes_written += other.spill_bytes_written;
  spill_bytes_read += other.spill_bytes_read;
  peak_task_memory_bytes =
      std::max(peak_task_memory_bytes, other.peak_task_memory_bytes);
}

namespace {

/// A map task to run: which input and which split of it.
struct MapTaskRef {
  int input_index;
  int split_index;
};

enum class JobPhase { kStartingUp, kMap, kShuffle, kReduce, kDone };

/// A queued logical task. `not_before` gates retries: a task re-enters the
/// queue immediately after its attempt fails but only becomes launchable
/// once its backoff elapses, keeping queue order deterministic.
struct PendingTask {
  int task_id = 0;
  SimMillis not_before = 0;
};

/// Attempt bookkeeping for one logical task (fault model).
struct TaskRunState {
  int failures = 0;             ///< Failed attempts so far.
  bool completed = false;       ///< Some attempt has finished.
  bool data_committed = false;  ///< A successful attempt's data is staged.
  bool speculated = false;      ///< A backup attempt was launched.
  bool primary_in_flight = false;
  bool backup_in_flight = false;
  SimMillis launch_time = 0;      ///< Launch of the in-flight primary.
  SimMillis expected_finish = 0;  ///< That attempt's completion time.
  SimMillis base_duration = 0;    ///< Its duration before straggler factor.
  int node = -1;                  ///< Node hosting the completed output.
  Status last_error;              ///< Most recent attempt failure.

  /// Poison-record state (map tasks only; survives node-crash resets — the
  /// records are a property of the data, not of any attempt). Positions are
  /// drawn once, at the task's first launch.
  bool poison_drawn = false;
  std::vector<uint64_t> poison;  ///< Sorted poison record indexes.
  int poison_failures = 0;       ///< Attempts that died on a poison record.
  bool skip_mode = false;        ///< Re-running with record skipping on.
};

/// One logical task's staged data: everything its successful attempt
/// produced, held per task until the job finishes (or, for map outputs of
/// map-reduce jobs, until a node crash invalidates it). Assembling job
/// outputs from this in task-id order at finish time is what keeps results
/// byte-identical whether or not tasks were re-executed out of order.
struct TaskData {
  bool valid = false;
  Counters counters;  ///< This task's contribution alone.
  Split output;       ///< Map-only or reduce output records.
  std::vector<std::pair<Value, Value>> emissions;  ///< Map of a reduce job.
  /// Encoded key + value bytes of each emission, sized once at Emit.
  std::vector<uint32_t> emission_bytes;
  uint64_t emitted_bytes = 0;
  double observer_charge = 0.0;  ///< CPU units the observer replay costs.
  Split quarantine;   ///< Poison records skipped by this (map) task.
  std::vector<uint64_t> quarantine_indexes;  ///< Their record indexes.
  /// CRC-framed spill runs of a reduce task that sorted externally; written
  /// to the job's `.spill/` sibling DFS file at durable completion.
  std::vector<Split> spill_runs;
};

/// Execution state for one concurrently running job.
struct RunningJob {
  const JobSpec* spec = nullptr;
  int job_index = 0;
  JobPhase phase = JobPhase::kStartingUp;
  SimMillis ready_time = 0;  ///< submit + startup latency.

  std::vector<MapTaskRef> map_defs;  ///< task_id -> (input, split).
  std::vector<TaskRunState> map_states;
  std::vector<TaskData> map_data;  ///< task_id -> staged outputs.
  std::deque<PendingTask> pending_map;
  int map_tasks_remaining = 0;  ///< Logical tasks not completed/skipped.
  int active_map_tasks = 0;
  int map_seq = 0;  ///< Tasks launched so far (distributed-cache billing).

  /// Reduce-side state.
  int num_reduce_tasks = 0;
  std::vector<std::vector<std::pair<Value, Value>>> partitions;
  /// Encoded bytes of each partition bucket, summed as it is (re)built.
  std::vector<uint64_t> partition_bytes;
  std::vector<TaskRunState> reduce_states;
  std::vector<TaskData> reduce_data;
  std::deque<PendingTask> pending_reduce;
  int reduce_tasks_remaining = 0;
  int active_reduce_tasks = 0;
  bool reduce_opened = false;  ///< First shuffle completed at least once.
  /// Bumped when a node crash invalidates map outputs mid-shuffle or later;
  /// a kShuffleDone event with a stale epoch is ignored.
  int shuffle_epoch = 0;
  /// Emission bytes already billed to the network, so a re-shuffle after a
  /// crash transfers only the re-executed maps' bytes.
  uint64_t shuffled_bytes = 0;

  /// Durations of completed attempts, per phase — the speculation median.
  std::vector<SimMillis> completed_map_ms;
  std::vector<SimMillis> completed_reduce_ms;

  /// When the reduce phase opened (shuffle done) — trace span start.
  SimMillis reduce_start = 0;

  /// Per-job fault stream (engaged only when injection is enabled), seeded
  /// from the config seed and the job name so draws are independent of
  /// cross-job scheduling interleavings.
  std::optional<Rng> fault_rng;

  std::shared_ptr<DfsFile> output;
  JobResult result;
  double observer_cpu_units = 0.0;
  bool failed = false;

  /// Running total of quarantined poison records across completed map
  /// tasks (checked against the max_skipped_records budget; decremented
  /// when a node crash invalidates a completed task).
  uint64_t records_quarantined = 0;

  /// DFS paths of spill-run files written by completed reduce tasks;
  /// deleted when the job ends (they are scratch, not output).
  std::vector<std::string> spill_paths;

  bool Finished() const { return phase == JobPhase::kDone; }
};

enum class EventKind {
  kJobReady,
  kMapDone,
  kShuffleDone,
  kReduceDone,
  kNodeCrash,
  kNodeRecover,
  /// No-op: exists to force a scheduling pass at a known time (a retry
  /// backoff expiring, an in-flight task crossing the speculation cutoff).
  kWakeup,
};

struct Event {
  SimMillis time;
  uint64_t seq;  ///< Tie-breaker for determinism.
  EventKind kind;
  int job_index;
  int task_id = -1;               ///< Logical task (kMapDone/kReduceDone).
  bool attempt_failed = false;    ///< The attempt died (injected or real).
  bool poison_failure = false;    ///< It died on a poison record.
  bool speculative = false;       ///< This is a backup attempt finishing.
  SimMillis attempt_duration = 0;
  int node = -1;           ///< kNodeCrash/kNodeRecover target.
  bool scripted = false;   ///< Crash from FaultConfig::scripted_node_crashes.
  int shuffle_epoch = 0;   ///< kShuffleDone staleness check.
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Everything one task's data flow produces. Filled on a worker thread,
/// then merged into the RunningJob on the scheduler thread in deterministic
/// launch order — the worker never touches shared job state.
struct TaskOutcome {
  Status status;
  Split output;  ///< Records written via ctx->Output().
  std::vector<std::pair<Value, Value>> emissions;
  std::vector<uint32_t> emission_bytes;  ///< Parallel to `emissions`.
  uint64_t emitted_bytes = 0;
  uint64_t input_records = 0;
  uint64_t input_bytes = 0;  ///< Map only; partial when the attempt errored.
  /// Row-encoded size of the input scanned (== input_bytes for row splits).
  /// Feeds counters.map_input_bytes so statistics are format-independent.
  uint64_t input_logical_bytes = 0;
  /// Columnar batches decoded by this attempt (scan.batches metric).
  uint64_t batches_decoded = 0;
  uint64_t reduce_input_records = 0;
  uint64_t reduce_input_bytes = 0;
  double cpu_units = 0.0;  ///< Excludes observer charges (added at commit).
  bool poison_failure = false;  ///< The attempt died on a poison record.
  Split quarantine;  ///< Poison records skipped in skip mode.
  std::vector<uint64_t> quarantine_indexes;
  /// Encoded spill runs produced by an externally-sorted reduce attempt
  /// (empty when the task sorted in memory).
  std::vector<Split> spill_runs_written;
};

/// One launched task: the inputs decided by the scheduler plus the outcome
/// produced by the worker.
struct TaskLaunch {
  RunningJob* job = nullptr;
  bool is_map = true;
  int task_id = 0;
  MapTaskRef map_ref{0, 0};
  const Split* split = nullptr;  ///< Input split (map tasks).
  int partition = -1;            ///< Reduce tasks.
  int task_index = 0;
  SimMillis setup_ms = 0;  ///< Side-data load charge, decided at launch.
  std::vector<std::pair<Value, Value>> bucket;  ///< Reduce input.
  /// Node the attempt was placed on (always >= 0 once launched).
  int node = 0;
  /// Fault draws, decided at launch on the scheduler thread. An attempt
  /// marked `inject_failure` never runs its data flow (the simulated
  /// container dies `fail_fraction` of the way through); `slowdown` > 1
  /// stretches the attempt's simulated duration. `crash_node` schedules a
  /// crash of the hosting node `crash_fraction` of the way through the
  /// attempt (the commit computes the absolute time once the duration is
  /// known).
  bool inject_failure = false;
  double fail_fraction = 0.0;
  double slowdown = 1.0;
  bool crash_node = false;
  double crash_fraction = 0.0;
  /// Data-integrity draws (also decided at launch on the scheduler thread).
  /// A map attempt re-reads its input block once per corrupt replica; all
  /// `replicas` copies corrupt is `block_data_loss` (no data flow runs). A
  /// reduce attempt re-fetches its bucket once per corrupt fetch; more
  /// corrupt fetches than max_shuffle_fetch_retries is `shuffle_data_loss`.
  int replicas = 1;
  int corrupt_replica_reads = 0;
  bool block_data_loss = false;
  int corrupt_fetches = 0;
  bool shuffle_data_loss = false;
  /// Poison-record plan for this map attempt (points into the logical
  /// task's TaskRunState, stable for the wave's lifetime).
  const std::vector<uint64_t>* poison = nullptr;
  bool skip_mode = false;
  /// Reduce-memory plan, decided at launch on the scheduler thread
  /// (DESIGN.md §6.10). `spill_runs` > 1 means the attempt's simulated
  /// sort state exceeds the task memory budget and it sorts externally in
  /// that many runs, merged in `spill_merge_passes` bounded-memory passes;
  /// the commit bills the pass I/O from `bucket_bytes`. `corrupt_spill`
  /// (drawn like the other corruption faults) makes run 0 read back
  /// corrupt, failing the attempt with DataLoss.
  int spill_runs = 0;
  int spill_merge_passes = 0;
  /// Encoded bytes of the partition bucket (its `partition_bytes` total);
  /// every byte figure of a reduce attempt is billed from it.
  uint64_t bucket_bytes = 0;
  /// Simulated memory this attempt holds: expanded state when in-memory,
  /// the task budget when spilling. Feeds JobResult::peak_task_memory_bytes.
  uint64_t task_memory_bytes = 0;
  bool corrupt_spill = false;
  TaskOutcome outcome;
};

/// One attempt in flight, keyed by the seq of its completion event. A node
/// crash kills attempts by erasing their registry entry; the completion
/// event of a killed attempt is then simply ignored (its node's slots went
/// down with the node).
struct InFlightAttempt {
  int job_index = 0;
  bool is_map = true;
  int task_id = 0;
  bool speculative = false;
  int node = 0;
};

/// MapContext implementation that buffers into the task's own outcome.
class TaskMapContext : public MapContext {
 public:
  TaskMapContext(TaskOutcome* out, int task_index)
      : out_(out), task_index_(task_index) {}

  void Emit(Value key, Value value) override {
    size_t bytes = key.EncodedSize() + value.EncodedSize();
    out_->emitted_bytes += bytes;
    out_->emission_bytes.push_back(static_cast<uint32_t>(bytes));
    out_->emissions.emplace_back(std::move(key), std::move(value));
  }

  void Output(Value record) override {
    record.EncodeTo(&out_->output.data);
    out_->output.num_records += 1;
  }

  void ChargeCpu(double units) override { extra_cpu_ += units; }

  int task_index() const override { return task_index_; }

  double extra_cpu() const { return extra_cpu_; }

 private:
  TaskOutcome* out_;
  int task_index_;
  double extra_cpu_ = 0.0;
};

class TaskReduceContext : public ReduceContext {
 public:
  explicit TaskReduceContext(TaskOutcome* out) : out_(out) {}

  void Output(Value record) override {
    record.EncodeTo(&out_->output.data);
    out_->output.num_records += 1;
  }

  void ChargeCpu(double units) override { extra_cpu_ += units; }

  double extra_cpu() const { return extra_cpu_; }

 private:
  TaskOutcome* out_;
  double extra_cpu_ = 0.0;
};

SimMillis CeilDiv(double amount, double rate) {
  if (amount <= 0.0) return 0;
  return static_cast<SimMillis>(std::ceil(amount / rate));
}

/// Runs one map task's data flow. Worker-thread safe: reads only the
/// immutable spec/split and writes only the task-local outcome. (User map
/// functions may still touch shared state of their own — e.g. Coordinator
/// counters — which must be internally synchronized and commutative.)
void ExecuteMapTask(const MapInput& input, const Split& split,
                    int task_index, const std::vector<uint64_t>* poison,
                    bool skip_mode, TaskOutcome* out) {
  // Verified read: the block checksum is checked before any record is
  // decoded (as HDFS does). At-rest corruption of the stored bytes
  // surfaces here as DataLoss, never as silently wrong rows.
  {
    Status verify = VerifySplit(split);
    if (!verify.ok()) {
      out->status = verify;
      return;
    }
  }
  TaskMapContext ctx(out, task_index);

  // Columnar splits are decoded whole-block into rows first; any frame
  // defect that slipped past the checksum is still DataLoss, never a wrong
  // answer. Row splits stream record-at-a-time as they always have.
  const bool is_columnar = split.format == SplitFormat::kColumnar;
  std::vector<Value> batch_rows;
  if (is_columnar) {
    // The whole block was read to decode it, so billing is all-or-nothing.
    out->input_bytes =
        input.bill_logical_read ? split.logical_bytes : split.num_bytes();
    out->input_logical_bytes = split.logical_bytes;
    Result<std::vector<Value>> rows = DecodeSplitRows(split);
    if (!rows.ok()) {
      out->status = rows.status();
      return;
    }
    out->batches_decoded += 1;
    batch_rows = std::move(*rows);
  }

  // Pushed-down filter over a columnar batch runs batch-at-a-time: the
  // selection vector is computed up front (vectorized conjuncts at a CPU
  // discount) and consulted per row below. The keep bits are identical to
  // row-at-a-time evaluation, so results never depend on the format.
  std::vector<uint8_t> batch_keep;
  if (is_columnar && input.scan_filter != nullptr) {
    Result<columnar::BatchFilterResult> filtered =
        columnar::EvalFilterOverRows(input.scan_filter, batch_rows);
    if (!filtered.ok()) {
      out->status = filtered.status();
      return;
    }
    out->cpu_units += filtered->cpu_units;
    batch_keep = std::move(filtered->keep);
  }

  SplitReader reader(&split);
  size_t poison_next = 0;
  uint64_t record_index = 0;
  const uint64_t num_rows =
      is_columnar ? batch_rows.size() : split.num_records;
  while (true) {
    const Value* record = nullptr;
    Value row_storage;
    if (is_columnar) {
      if (record_index >= num_rows) break;
      record = &batch_rows[record_index];
    } else {
      if (reader.AtEnd()) break;
      Result<Value> next = reader.Next();
      if (!next.ok()) {
        out->status = next.status();
        return;
      }
      row_storage = std::move(*next);
      record = &row_storage;
      // Accumulated per record so an attempt that errors mid-split still
      // reports how much of the split it actually scanned (billed as read
      // time for the failed attempt).
      out->input_bytes = reader.offset();
      out->input_logical_bytes = reader.offset();
    }
    out->input_records += 1;
    if (poison != nullptr && poison_next < poison->size() &&
        (*poison)[poison_next] == record_index) {
      ++poison_next;
      if (!skip_mode) {
        // The map function "throws" on this record, killing the attempt.
        out->cpu_units += 1.0;
        out->poison_failure = true;
        out->status = Status::Internal(
            StrFormat("map function threw on poison record %llu",
                      (unsigned long long)record_index));
        return;
      }
      // Skip mode: the record is read (and billed) but never reaches the
      // map function; it goes to the quarantine instead of any output.
      out->cpu_units += 1.0;
      record->EncodeTo(&out->quarantine.data);
      out->quarantine.num_records += 1;
      out->quarantine_indexes.push_back(record_index);
      ++record_index;
      continue;
    }
    if (input.scan_filter != nullptr) {
      bool pass;
      if (is_columnar) {
        pass = batch_keep[record_index] != 0;
      } else {
        // Row splits evaluate the pushed-down filter record-at-a-time at
        // its full declared cost.
        out->cpu_units += input.scan_filter_cpu;
        Result<Value> v = input.scan_filter->Eval(*record);
        if (!v.ok()) {
          out->status = v.status();
          return;
        }
        pass = v->type() == Value::Type::kBool && v->bool_value();
      }
      ++record_index;
      out->cpu_units += 1.0;
      if (!pass) continue;
      out->cpu_units += input.cpu_per_record;
    } else {
      ++record_index;
      out->cpu_units += 1.0 + input.cpu_per_record;
    }
    Status st = input.map_fn(*record, &ctx);
    if (!st.ok()) {
      out->status = st;
      return;
    }
  }
  if (input.flush_fn) {
    Status st = input.flush_fn(&ctx);
    if (!st.ok()) {
      out->status = st;
      return;
    }
  }
  out->cpu_units += ctx.extra_cpu();
}

/// Runs one reduce task's data flow over its (moved-in) partition bucket,
/// whose encoded size the launch already knows (`bucket_bytes`).
/// `spill_runs` > 1 switches the sort to the bounded-memory external path:
/// the bucket is cut input-order into that many chunks, each chunk is
/// stable-sorted and round-tripped through the CRC-framed spill-run codec
/// (the encoded runs are staged in the outcome for the DFS write at durable
/// completion), and the decoded runs are stable-merged with ties going to
/// the lowest run index — which is exactly one full stable sort, so spilled
/// output is row-for-row identical to the in-memory path. `corrupt_spill`
/// models a flipped bit in run 0's stored bytes: the checksum must reject
/// it and the attempt dies with DataLoss (never a wrong answer).
void ExecuteReduceTask(const JobSpec& spec,
                       std::vector<std::pair<Value, Value>> bucket,
                       uint64_t bucket_bytes, int spill_runs,
                       bool corrupt_spill, TaskOutcome* out) {
  out->reduce_input_bytes = bucket_bytes;
  out->reduce_input_records = bucket.size();
  auto key_less = [](const std::pair<Value, Value>& a,
                     const std::pair<Value, Value>& b) {
    return a.first.Compare(b.first) < 0;
  };
  if (spill_runs > 1 && !bucket.empty()) {
    const size_t n = bucket.size();
    const size_t per_run =
        (n + static_cast<size_t>(spill_runs) - 1) /
        static_cast<size_t>(spill_runs);
    std::vector<std::vector<std::pair<Value, Value>>> decoded;
    for (size_t start = 0; start < n; start += per_run) {
      const size_t end = std::min(n, start + per_run);
      std::vector<std::pair<Value, Value>> run(
          std::make_move_iterator(bucket.begin() + start),
          std::make_move_iterator(bucket.begin() + end));
      std::stable_sort(run.begin(), run.end(), key_less);
      out->spill_runs_written.push_back(EncodeSpillRun(run));
    }
    if (corrupt_spill) {
      Split bad = out->spill_runs_written.front();
      if (!bad.data.empty()) bad.data[0] ^= 0x01;
      if (DecodeSpillRun(bad).ok()) {
        out->status = Status::Internal(
            "checksum failed to detect a corrupted spill run");
        return;
      }
      out->status = Status::DataLoss(StrFormat(
          "spill run 0 of reduce task in %s failed checksum verification "
          "on read-back",
          spec.name.c_str()));
      return;
    }
    for (const Split& s : out->spill_runs_written) {
      Result<std::vector<std::pair<Value, Value>>> run = DecodeSpillRun(s);
      if (!run.ok()) {
        out->status = run.status();
        return;
      }
      decoded.push_back(std::move(*run));
    }
    // Bounded-memory merge of the sorted runs; ties go to the lowest run
    // index, matching what one stable sort of the whole bucket yields.
    bucket.clear();
    bucket.reserve(n);
    std::vector<size_t> pos(decoded.size(), 0);
    while (true) {
      int best = -1;
      for (size_t r = 0; r < decoded.size(); ++r) {
        if (pos[r] >= decoded[r].size()) continue;
        if (best < 0 ||
            decoded[r][pos[r]].first.Compare(
                decoded[best][pos[best]].first) < 0) {
          best = static_cast<int>(r);
        }
      }
      if (best < 0) break;
      bucket.push_back(std::move(decoded[best][pos[best]]));
      ++pos[best];
    }
  } else {
    std::stable_sort(bucket.begin(), bucket.end(), key_less);
  }

  TaskReduceContext ctx(out);
  out->cpu_units += static_cast<double>(bucket.size());
  size_t i = 0;
  while (i < bucket.size()) {
    size_t j = i + 1;
    while (j < bucket.size() &&
           bucket[j].first.Compare(bucket[i].first) == 0) {
      ++j;
    }
    std::vector<Value> values;
    values.reserve(j - i);
    for (size_t k = i; k < j; ++k) values.push_back(bucket[k].second);
    Status st = spec.reduce_fn(bucket[i].first, values, &ctx);
    if (!st.ok()) {
      out->status = st;
      return;
    }
    i = j;
  }
  out->cpu_units += ctx.extra_cpu();

  // n log n sort charge for the merge-sort of this partition.
  if (!bucket.empty()) {
    out->cpu_units += static_cast<double>(bucket.size()) *
                      std::log2(static_cast<double>(bucket.size()) + 1.0);
  }
}

}  // namespace

Split EncodeSpillRun(const std::vector<std::pair<Value, Value>>& pairs) {
  Split run;
  for (const auto& [key, value] : pairs) {
    key.EncodeTo(&run.data);
    value.EncodeTo(&run.data);
  }
  run.num_records = 2 * pairs.size();
  run.logical_bytes = run.data.size();
  run.crc32c = Crc32c(run.data);
  return run;
}

Result<std::vector<std::pair<Value, Value>>> DecodeSpillRun(
    const Split& run) {
  DYNO_RETURN_IF_ERROR(VerifySplit(run));
  if (run.num_records % 2 != 0) {
    return Status::DataLoss(StrFormat(
        "spill run holds %llu records, not an even key/value count",
        (unsigned long long)run.num_records));
  }
  std::vector<std::pair<Value, Value>> pairs;
  pairs.reserve(run.num_records / 2);
  SplitReader reader(&run);
  while (!reader.AtEnd()) {
    Result<Value> key = reader.Next();
    if (!key.ok()) return key.status();
    if (reader.AtEnd()) {
      return Status::DataLoss("spill run ends with a dangling key");
    }
    Result<Value> value = reader.Next();
    if (!value.ok()) return value.status();
    pairs.emplace_back(std::move(*key), std::move(*value));
  }
  return pairs;
}

ClusterConfig MapReduceEngine::ResolveFaultEnv(ClusterConfig config) {
  if (config.faults.use_env_defaults && !config.faults.enabled()) {
    config.faults.ApplyEnvOverrides();
  }
  // The memory knobs ride the same gate: env-driven only when the caller
  // did not configure a memory mode in code.
  if (config.faults.use_env_defaults &&
      config.reduce_memory_mode == ClusterConfig::ReduceMemoryMode::kUnbounded) {
    config.ApplyMemoryEnvOverrides();
  }
  return config;
}

MapReduceEngine::MapReduceEngine(Dfs* dfs, ClusterConfig config)
    : dfs_(dfs), config_(ResolveFaultEnv(std::move(config))) {
  node_states_.assign(std::max(1, config_.num_nodes), NodeState{});
}

MapReduceEngine::~MapReduceEngine() = default;

Result<JobResult> MapReduceEngine::Submit(const JobSpec& spec) {
  DYNO_ASSIGN_OR_RETURN(std::vector<JobResult> results, SubmitAll({spec}));
  return results[0];
}

Result<std::vector<JobResult>> MapReduceEngine::SubmitAll(
    const std::vector<JobSpec>& specs) {
  if (submit_gate_) return submit_gate_(specs);
  return SubmitAllDirect(specs);
}

Result<std::vector<JobResult>> MapReduceEngine::SubmitAllDirect(
    const std::vector<JobSpec>& specs) {
  // Wave-pressure bookkeeping (see last_wave_pressure()): compare committed
  // slot time against the slot capacity available over the wave's duration.
  const SimMillis wave_start_ms = now_;
  const SimMillis busy_before_ms = busy_slot_ms_total_;

  // Whether failed task attempts are retried (Hadoop semantics) instead of
  // failing the whole job at the first error (legacy fail-fast).
  const bool retries_enabled = config_.faults.enabled();
  const int max_attempts = std::max(1, config_.faults.max_task_attempts);

  // Effective reduce-memory mode of one job: the per-job override wins,
  // otherwise the cluster-wide knob applies (DESIGN.md §6.10).
  auto job_memory_mode = [&](const RunningJob& job) {
    if (job.spec->reduce_memory_mode >= 0) {
      return static_cast<ClusterConfig::ReduceMemoryMode>(
          job.spec->reduce_memory_mode);
    }
    return config_.reduce_memory_mode;
  };

  // Cache instrument pointers once per submission; the hot paths below then
  // pay only a relaxed atomic per update.
  obs::Counter* m_jobs = nullptr;
  obs::Counter* m_map_attempts = nullptr;
  obs::Counter* m_reduce_attempts = nullptr;
  obs::Counter* m_retries = nullptr;
  obs::Counter* m_injected = nullptr;
  obs::Counter* m_spec_launches = nullptr;
  obs::Counter* m_spec_wins = nullptr;
  obs::Counter* m_node_crashes = nullptr;
  obs::Counter* m_node_recoveries = nullptr;
  obs::Counter* m_node_kills = nullptr;
  obs::Counter* m_maps_invalidated = nullptr;
  obs::Counter* m_shuffle_retries = nullptr;
  obs::Counter* m_block_corruptions = nullptr;
  obs::Counter* m_checksum_refetches = nullptr;
  obs::Counter* m_quarantined = nullptr;
  obs::Counter* m_integrity_failures = nullptr;
  /// Registered lazily on the first committed columnar decode (see below).
  obs::Counter* m_scan_batches = nullptr;
  /// Memory-model counters, registered lazily on first use so runs that
  /// never spill or OOM keep their exact metric registry.
  obs::Counter* m_spilled_tasks = nullptr;
  obs::Counter* m_spill_bytes = nullptr;
  obs::Counter* m_oom_failures = nullptr;
  obs::Histogram* h_map_ms = nullptr;
  obs::Histogram* h_reduce_ms = nullptr;
  obs::Histogram* h_job_ms = nullptr;
  if (metrics_ != nullptr) {
    m_jobs = metrics_->GetCounter("mr.jobs");
    m_map_attempts = metrics_->GetCounter("mr.map_attempts");
    m_reduce_attempts = metrics_->GetCounter("mr.reduce_attempts");
    m_retries = metrics_->GetCounter("mr.task_retries");
    m_injected = metrics_->GetCounter("mr.task_failures_injected");
    m_spec_launches = metrics_->GetCounter("mr.speculative_launches");
    m_spec_wins = metrics_->GetCounter("mr.speculative_wins");
    m_node_crashes = metrics_->GetCounter("mr.node_crashes");
    m_node_recoveries = metrics_->GetCounter("mr.node_recoveries");
    m_node_kills = metrics_->GetCounter("mr.node_attempt_kills");
    m_maps_invalidated = metrics_->GetCounter("mr.maps_invalidated");
    m_shuffle_retries = metrics_->GetCounter("mr.shuffle_fetch_retries");
    m_block_corruptions = metrics_->GetCounter("mr.integrity_block_corruptions");
    m_checksum_refetches =
        metrics_->GetCounter("mr.integrity_shuffle_refetches");
    m_quarantined = metrics_->GetCounter("mr.integrity_records_quarantined");
    m_integrity_failures =
        metrics_->GetCounter("mr.integrity_data_loss_failures");
    h_map_ms = metrics_->GetHistogram("mr.map_attempt_ms");
    h_reduce_ms = metrics_->GetHistogram("mr.reduce_attempt_ms");
    h_job_ms = metrics_->GetHistogram("mr.job_ms");
  }

  // --- Validate and initialize job states. ---
  std::vector<RunningJob> jobs(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& spec = specs[i];
    if (spec.inputs.empty()) {
      return Status::InvalidArgument("job has no inputs: " + spec.name);
    }
    if (spec.output_path.empty()) {
      return Status::InvalidArgument("job has no output path: " + spec.name);
    }
    if (spec.reduce_memory_mode < -1 || spec.reduce_memory_mode > 2) {
      return Status::InvalidArgument(
          StrFormat("bad reduce_memory_mode %d in %s",
                    spec.reduce_memory_mode, spec.name.c_str()));
    }
    RunningJob& job = jobs[i];
    job.spec = &spec;
    job.job_index = static_cast<int>(i);
    job.ready_time =
        now_ + (spec.reuse_warm_containers ? 0 : config_.job_startup_ms);
    job.result.submit_time_ms = now_;
    for (size_t in = 0; in < spec.inputs.size(); ++in) {
      const MapInput& input = spec.inputs[in];
      if (input.file == nullptr) {
        return Status::InvalidArgument("null input file in " + spec.name);
      }
      if (input.split_indexes.empty()) {
        // With split_indexes_exact, an empty list is a fully-pruned scan:
        // this input contributes zero map tasks.
        if (input.split_indexes_exact) continue;
        for (size_t s = 0; s < input.file->splits().size(); ++s) {
          job.map_defs.push_back({static_cast<int>(in), static_cast<int>(s)});
        }
      } else {
        for (int s : input.split_indexes) {
          if (s < 0 || static_cast<size_t>(s) >= input.file->splits().size()) {
            return Status::InvalidArgument(
                StrFormat("split index %d out of range in %s", s,
                          spec.name.c_str()));
          }
          job.map_defs.push_back({static_cast<int>(in), s});
        }
      }
    }
    job.map_states.assign(job.map_defs.size(), TaskRunState{});
    job.map_data.assign(job.map_defs.size(), TaskData{});
    job.map_tasks_remaining = static_cast<int>(job.map_defs.size());
    for (size_t t = 0; t < job.map_defs.size(); ++t) {
      job.pending_map.push_back({static_cast<int>(t), 0});
    }
    if (retries_enabled) {
      // Per-job fault stream. Jobs are identified by name for legacy
      // submissions; when a query id is present it salts the seed so two
      // concurrent queries submitting identically-named jobs (e.g. "scan")
      // draw independent faults instead of sharing one RNG stream.
      uint64_t fault_seed = HashBytes(spec.name, Mix64(config_.faults.seed));
      if (!spec.query_id.empty()) {
        fault_seed = HashBytes(spec.query_id, fault_seed);
      }
      job.fault_rng.emplace(fault_seed);
    }
    auto output = dfs_->Create(spec.output_path);
    if (!output.ok()) return output.status();
    job.output = *output;
  }

  if (trace_ != nullptr) {
    for (const RunningJob& job : jobs) {
      obs::TraceEvent ev =
          obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                          "job_submit")
              .Arg("job", job.spec->name)
              .ArgInt("map_tasks", (int64_t)job.map_defs.size())
              .ArgBool("map_only", job.spec->reduce_fn == nullptr);
      // The query tag is appended last and only for query-scoped jobs, so
      // legacy (empty query_id) traces keep their exact historical bytes.
      if (!job.spec->query_id.empty()) {
        ev = std::move(ev).Arg("query", job.spec->query_id);
      }
      trace_->Record(std::move(ev));
    }
  }

  // Size the worker pool to the configured thread count. The pool persists
  // across submissions and is resized lazily when the config changes.
  int want_threads = config_.execution_threads;
  if (want_threads <= 1) {
    pool_.reset();
  } else if (pool_ == nullptr || pool_->size() != want_threads) {
    pool_ = std::make_unique<WorkerPool>(want_threads);
  }

  // --- Discrete-event simulation. ---
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  uint64_t seq = 0;
  for (RunningJob& job : jobs) {
    events.push({job.ready_time, seq++, EventKind::kJobReady, job.job_index});
  }

  // --- Node fault domains: slots live on nodes. ---
  const int num_nodes = static_cast<int>(node_states_.size());
  // Slots divided evenly across nodes, remainder to the low ids. Total
  // capacity is exactly map_slots/reduce_slots, so with every node alive
  // scheduling behaves as the flat slot pool did.
  auto node_capacity = [&](int total, int node) {
    return total / num_nodes + (node < total % num_nodes ? 1 : 0);
  };
  std::vector<int> free_map(num_nodes, 0);
  std::vector<int> free_reduce(num_nodes, 0);
  int free_map_slots = 0;
  int free_reduce_slots = 0;
  int alive_nodes = 0;
  // Nodes whose recovery time passed while the engine was idle rejoin now;
  // still-pending recoveries re-enter the event queue (it does not persist
  // across submissions).
  for (int n = 0; n < num_nodes; ++n) {
    NodeState& ns = node_states_[n];
    if (!ns.alive && ns.recover_at >= 0 && ns.recover_at <= now_) {
      ns.alive = true;
    }
    if (!ns.alive && ns.recover_at > now_) {
      Event ev{ns.recover_at, seq++, EventKind::kNodeRecover, -1};
      ev.node = n;
      events.push(ev);
    }
    if (ns.alive) {
      ++alive_nodes;
      free_map[n] = node_capacity(config_.map_slots, n);
      free_reduce[n] = node_capacity(config_.reduce_slots, n);
      free_map_slots += free_map[n];
      free_reduce_slots += free_reduce[n];
    }
  }
  // Scripted crashes that have not fired yet (test/chaos hook); re-pushed
  // every submission until they fire, consumed exactly once.
  for (size_t c = scripted_crashes_consumed_;
       c < config_.faults.scripted_node_crashes.size(); ++c) {
    const auto& script = config_.faults.scripted_node_crashes[c];
    Event ev{std::max(script.at_ms, now_), seq++, EventKind::kNodeCrash, -1};
    ev.node = script.node;
    ev.scripted = true;
    events.push(ev);
  }

  // Attempts currently executing, keyed by the seq of their completion
  // event. Killing an attempt = erasing its entry; its completion event is
  // then ignored. std::map iterates in seq (launch) order, keeping crash
  // handling deterministic.
  std::map<uint64_t, InFlightAttempt> in_flight;

  // Picks the alive node with the most free slots of the phase (lowest id
  // wins ties); prefers any node other than `exclude` (a backup attempt
  // should not land next to its primary). Returns -1 if nothing is free.
  auto pick_node = [&](bool is_map, int exclude) {
    const std::vector<int>& free = is_map ? free_map : free_reduce;
    int best = -1;
    for (int n = 0; n < num_nodes; ++n) {
      if (!node_states_[n].alive || free[n] <= 0 || n == exclude) continue;
      if (best < 0 || free[n] > free[best]) best = n;
    }
    if (best < 0 && exclude >= 0) {
      for (int n = 0; n < num_nodes; ++n) {
        if (!node_states_[n].alive || free[n] <= 0) continue;
        if (best < 0 || free[n] > free[best]) best = n;
      }
    }
    return best;
  };

  int unfinished = static_cast<int>(jobs.size());

  // Tears down a failed job once its last in-flight task has drained (or
  // immediately when none are in flight). The single home for the teardown
  // sequence formerly duplicated across fail_job and the kMapDone /
  // kReduceDone handlers.
  // Closes out a job's observability record (success or failure): the
  // whole-job span plus job-level counters/latency.
  auto record_job_end = [&](RunningJob* job) {
    SimMillis elapsed = now_ - job->result.submit_time_ms;
    if (h_job_ms != nullptr) h_job_ms->Observe(elapsed);
    if (m_jobs != nullptr) m_jobs->Add();
    if (!job->spec->query_id.empty()) {
      query_slot_ms_[job->spec->query_id] +=
          job->result.map_slot_ms + job->result.reduce_slot_ms;
    }
    busy_slot_ms_total_ += job->result.map_slot_ms + job->result.reduce_slot_ms;
    if (trace_ == nullptr) return;
    obs::TraceEvent ev =
        obs::TraceEvent(job->result.submit_time_ms, elapsed,
                        obs::TraceLane::kEngine, "mr", "job")
                       .Arg("job", job->spec->name)
                       .ArgBool("ok", job->result.status.ok())
                       .ArgInt("map_tasks_run", job->result.map_tasks_run)
                       .ArgInt("map_tasks_skipped",
                               job->result.map_tasks_skipped)
                       .ArgInt("reduce_tasks_run", job->result.reduce_tasks_run)
                       .ArgInt("retries", job->result.task_retries)
                       .ArgInt("failures_injected",
                               job->result.task_failures_injected)
                       .ArgInt("speculative_launches",
                               job->result.speculative_launches)
                       .ArgInt("speculative_wins",
                               job->result.speculative_wins)
                       .ArgInt("node_attempt_kills",
                               job->result.attempts_killed_by_node)
                       .ArgInt("maps_invalidated",
                               job->result.maps_invalidated)
                       .ArgInt("shuffle_fetch_retries",
                               job->result.shuffle_fetch_retries)
                       .ArgInt("block_corruptions",
                               job->result.block_corruptions)
                       .ArgInt("checksum_refetches",
                               job->result.checksum_refetches)
                       .ArgInt("records_quarantined",
                               (int64_t)job->result.records_quarantined)
                       .ArgInt("output_records",
                               (int64_t)job->result.counters.output_records);
    // Memory args only under an active memory mode, so knob-off traces
    // keep their exact historical bytes (golden traces predate them).
    if (job_memory_mode(*job) != ClusterConfig::ReduceMemoryMode::kUnbounded) {
      ev = std::move(ev)
               .ArgInt("reduce_spills", job->result.reduce_spills)
               .ArgInt("spill_runs", job->result.spill_runs)
               .ArgInt("spill_bytes_written",
                       (int64_t)job->result.spill_bytes_written)
               .ArgInt("peak_task_memory",
                       (int64_t)job->result.peak_task_memory_bytes);
    }
    if (!job->spec->query_id.empty()) {
      ev = std::move(ev).Arg("query", job->spec->query_id);
    }
    trace_->Record(std::move(ev));
  };

  // Spill-run files are scratch: they exist between a spilling reduce
  // task's durable completion and the end of its job, and are removed on
  // both the success and the failure path.
  auto cleanup_spill_files = [&](RunningJob* job) {
    for (const std::string& p : job->spill_paths) dfs_->Delete(p).ok();
    job->spill_paths.clear();
  };

  auto drain_failed_job = [&](RunningJob* job) {
    if (!job->failed || job->phase == JobPhase::kDone) return;
    if (job->active_map_tasks != 0 || job->active_reduce_tasks != 0) return;
    job->phase = JobPhase::kDone;
    job->result.finish_time_ms = now_;
    dfs_->Delete(job->spec->output_path).ok();
    job->output = nullptr;
    cleanup_spill_files(job);
    record_job_end(job);
    --unfinished;
  };

  auto fail_job = [&](RunningJob* job, Status status) {
    job->failed = true;
    job->result.status = std::move(status);
    job->pending_map.clear();
    job->pending_reduce.clear();
    drain_failed_job(job);
  };

  auto finish_job = [&](RunningJob* job) {
    // Assemble counters and output splits from the per-task staged data in
    // task-id / partition order — the exact order a fault-free run commits
    // in — so job outputs stay byte-identical even when node crashes forced
    // out-of-order re-execution of some tasks.
    Counters& totals = job->result.counters;
    std::vector<Split> quarantine_splits;
    for (TaskData& d : job->map_data) {
      if (!d.valid) continue;
      totals.MergeFrom(d.counters);
      if (!job->spec->reduce_fn && d.output.num_records > 0) {
        totals.output_bytes += d.output.num_bytes();
        job->output->AppendSplit(std::move(d.output));
      }
      if (d.quarantine.num_records > 0) {
        quarantine_splits.push_back(std::move(d.quarantine));
      }
      d = TaskData{};
    }
    for (TaskData& d : job->reduce_data) {
      if (!d.valid) continue;
      totals.MergeFrom(d.counters);
      if (d.output.num_records > 0) {
        totals.output_bytes += d.output.num_bytes();
        job->output->AppendSplit(std::move(d.output));
      }
      d = TaskData{};
    }
    if (!quarantine_splits.empty()) {
      // The per-job quarantine file: poison records in map-task order, a
      // durable sibling of the job output (Hadoop's skip mode keeps them
      // under "_logs/skip"). Replaces any leftover from a previous run of
      // a re-submitted job. Assembled in task-id order, so its bytes are
      // as deterministic as the output's.
      std::string qpath = job->spec->output_path + ".quarantine";
      dfs_->Delete(qpath).ok();
      auto qfile = dfs_->Create(qpath);
      if (qfile.ok()) {
        for (Split& s : quarantine_splits) {
          (*qfile)->AppendSplit(std::move(s));
        }
        job->result.quarantine_path = qpath;
      }
    }
    job->result.records_quarantined = job->records_quarantined;
    job->phase = JobPhase::kDone;
    job->result.finish_time_ms = now_;
    job->result.observer_overhead_ms = static_cast<SimMillis>(
        std::ceil(job->observer_cpu_units / config_.cpu_units_per_ms));
    if (trace_ != nullptr && job->spec->reduce_fn) {
      trace_->Record(obs::TraceEvent(job->reduce_start,
                                     now_ - job->reduce_start,
                                     obs::TraceLane::kEngine, "mr",
                                     "reduce_phase")
                         .Arg("job", job->spec->name)
                         .ArgInt("reduce_tasks", job->num_reduce_tasks));
    }
    cleanup_spill_files(job);
    record_job_end(job);
    --unfinished;
  };

  // Charges for loading broadcast side data, honoring the distributed-cache
  // mode (first `num_nodes` tasks pay; later waves find it cached locally).
  auto side_load_ms = [&](RunningJob* job) -> SimMillis {
    uint64_t bytes = job->spec->side_load_bytes;
    if (bytes == 0) return 0;
    if (job->spec->side_data_via_distributed_cache &&
        job->map_seq >= config_.num_nodes) {
      return 0;
    }
    return CeilDiv(static_cast<double>(bytes),
                   config_.side_load_bytes_per_ms);
  };

  // Launch-time fault draws, on the scheduler thread, from the job's own
  // stream — the order of draws depends only on the (deterministic) launch
  // order, never on worker timing.
  auto draw_faults = [&](RunningJob* job, TaskLaunch* launch) {
    if (!job->fault_rng.has_value()) return;
    const FaultConfig& f = config_.faults;
    if (f.task_failure_rate > 0.0 &&
        job->fault_rng->Bernoulli(f.task_failure_rate)) {
      launch->inject_failure = true;
      // The container dies somewhere in the latter 75% of the attempt.
      launch->fail_fraction = 0.25 + 0.75 * job->fault_rng->NextDouble();
    }
    if (f.straggler_rate > 0.0 &&
        job->fault_rng->Bernoulli(f.straggler_rate)) {
      launch->slowdown = std::max(1.0, f.straggler_slowdown);
    }
    if (f.node_failure_rate > 0.0 &&
        job->fault_rng->Bernoulli(f.node_failure_rate)) {
      // The hosting node dies somewhere during this attempt; the absolute
      // crash time is computed at commit, once the duration is known.
      launch->crash_node = true;
      launch->crash_fraction = job->fault_rng->NextDouble();
    }
    // --- Data-integrity draws (consume stream draws only when the
    // corruption knobs are on, so corruption-free runs keep the exact draw
    // sequence of earlier engine versions). ---
    if (launch->is_map) {
      launch->replicas = std::max(
          1,
          job->spec->inputs[launch->map_ref.input_index].file->replicas());
      if (f.block_corruption_rate > 0.0) {
        // Sequential replica reads: each independently corrupt with the
        // configured rate; stop at the first clean copy.
        int bad = 0;
        while (bad < launch->replicas &&
               job->fault_rng->Bernoulli(f.block_corruption_rate)) {
          ++bad;
        }
        launch->corrupt_replica_reads = bad;
      }
      if (f.poison_record_rate > 0.0) {
        TaskRunState& mst = job->map_states[launch->task_id];
        if (!mst.poison_drawn) {
          mst.poison_drawn = true;
          for (uint64_t r = 0; r < launch->split->num_records; ++r) {
            if (job->fault_rng->Bernoulli(f.poison_record_rate)) {
              mst.poison.push_back(r);
            }
          }
        }
      }
    } else if (f.shuffle_corruption_rate > 0.0 &&
               !job->partitions[launch->task_id].empty()) {
      const int tries = 1 + std::max(0, f.max_shuffle_fetch_retries);
      int bad = 0;
      while (bad < tries &&
             job->fault_rng->Bernoulli(f.shuffle_corruption_rate)) {
        ++bad;
      }
      launch->corrupt_fetches = bad;
    }
    // A spilling reduce attempt's run read-back can hit a flipped bit too.
    // The draw is consumed only when the attempt actually spills (possible
    // only with the memory mode on), so corruption campaigns without the
    // memory model keep their exact historical draw sequence.
    if (!launch->is_map && launch->spill_runs > 1 &&
        f.block_corruption_rate > 0.0 &&
        job->fault_rng->Bernoulli(f.block_corruption_rate)) {
      launch->corrupt_spill = true;
    }
    // Scripted corruption (exact placement for tests, no draws consumed).
    if (!f.scripted_corruptions.empty()) {
      const TaskRunState& st = launch->is_map
                                   ? job->map_states[launch->task_id]
                                   : job->reduce_states[launch->task_id];
      for (const auto& sc : f.scripted_corruptions) {
        const bool is_block =
            sc.target == FaultConfig::ScriptedCorruption::Target::kBlock;
        if (is_block != launch->is_map || sc.job != job->spec->name ||
            sc.task_id != launch->task_id || sc.attempt != st.failures + 1) {
          continue;
        }
        // An unscoped script matches any query (single-driver legacy); a
        // scoped one only hits the query it names.
        if (!sc.query.empty() && sc.query != job->spec->query_id) continue;
        if (launch->is_map) {
          launch->corrupt_replica_reads =
              std::clamp(sc.count, 0, launch->replicas);
        } else if (sc.target ==
                   FaultConfig::ScriptedCorruption::Target::kSpill) {
          // Fires only when the attempt actually spills: an in-memory
          // attempt has no run files to corrupt.
          if (launch->spill_runs > 1) launch->corrupt_spill = sc.count > 0;
        } else if (!job->partitions[launch->task_id].empty()) {
          launch->corrupt_fetches = std::clamp(
              sc.count, 0, 1 + std::max(0, f.max_shuffle_fetch_retries));
        }
      }
    }
    if (launch->is_map && launch->corrupt_replica_reads > 0 &&
        launch->corrupt_replica_reads >= launch->replicas) {
      launch->block_data_loss = true;
    }
    if (!launch->is_map &&
        launch->corrupt_fetches > std::max(0, f.max_shuffle_fetch_retries)) {
      launch->shuffle_data_loss = true;
    }
  };

  // Capped + jittered exponential backoff before re-queueing a failed
  // attempt (the legacy retry_backoff_ms * 2^n grew unbounded). The jitter
  // is drawn from the job's fault stream on the scheduler thread, so it
  // de-synchronizes concurrent retries while staying bit-identical across
  // execution thread counts.
  auto retry_backoff = [&](RunningJob* job, int failures) -> SimMillis {
    const FaultConfig& f = config_.faults;
    SimMillis backoff =
        f.retry_backoff_ms * (SimMillis{1} << std::min(failures - 1, 16));
    if (f.max_backoff_ms > 0) backoff = std::min(backoff, f.max_backoff_ms);
    if (f.retry_jitter_fraction > 0.0 && backoff > 0 &&
        job->fault_rng.has_value()) {
      backoff += static_cast<SimMillis>(f.retry_jitter_fraction *
                                        static_cast<double>(backoff) *
                                        job->fault_rng->NextDouble());
    }
    return backoff;
  };

  // Transition after the map phase drains.
  auto on_map_phase_complete = [&](RunningJob* job) {
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(job->ready_time, now_ - job->ready_time,
                                     obs::TraceLane::kEngine, "mr",
                                     "map_phase")
                         .Arg("job", job->spec->name)
                         .ArgInt("tasks_run", job->result.map_tasks_run)
                         .ArgInt("tasks_skipped",
                                 job->result.map_tasks_skipped));
    }
    if (!job->spec->reduce_fn) {
      finish_job(job);
      return;
    }
    job->phase = JobPhase::kShuffle;
    uint64_t total_emitted = 0;
    for (const TaskData& d : job->map_data) {
      if (d.valid) total_emitted += d.emitted_bytes;
    }
    if (job->num_reduce_tasks == 0) {
      // First shuffle: fix the reducer count for the job's lifetime (a
      // re-shuffle after a node crash must not re-deal the keys).
      int reducers = job->spec->num_reduce_tasks;
      if (reducers <= 0) {
        reducers = static_cast<int>(
            total_emitted / config_.bytes_per_reduce_task + 1);
        reducers = std::clamp(reducers, 1, config_.reduce_slots);
      }
      job->num_reduce_tasks = reducers;
      job->result.reduce_tasks_planned = reducers;
      job->reduce_states.assign(reducers, TaskRunState{});
      job->reduce_data.assign(reducers, TaskData{});
      job->reduce_tasks_remaining = reducers;
    }
    const int reducers = job->num_reduce_tasks;
    // (Re)build the partition buckets of not-yet-completed reducers from
    // the staged emissions in task-id order — the same order a fault-free
    // run's commits feed the shuffle, so reducer input (and thus output)
    // bytes are identical whether or not maps were re-executed. Emissions
    // are retained per task while node crashes are possible, since a lost
    // node forces exactly this rebuild.
    const bool retain_emissions = config_.faults.node_faults();
    job->partitions.assign(reducers, {});
    job->partition_bytes.assign(reducers, 0);
    for (TaskData& d : job->map_data) {
      if (!d.valid) continue;
      for (size_t i = 0; i < d.emissions.size(); ++i) {
        auto& kv = d.emissions[i];
        size_t p = kv.first.Hash() % static_cast<size_t>(reducers);
        if (job->reduce_states[p].completed) continue;
        job->partition_bytes[p] += d.emission_bytes[i];
        if (retain_emissions) {
          job->partitions[p].push_back(kv);
        } else {
          job->partitions[p].emplace_back(std::move(kv.first),
                                          std::move(kv.second));
        }
      }
      if (!retain_emissions) {
        d.emissions.clear();
        d.emissions.shrink_to_fit();
        d.emission_bytes.clear();
        d.emission_bytes.shrink_to_fit();
      }
    }
    // Memory check at shuffle start (DESIGN.md §6.10): each reducer's
    // simulated sort/hash state is its partition bytes scaled by
    // reduce_memory_factor. Strict mode fails the job with OutOfMemory as
    // soon as any reducer is over budget; spill mode fails only when a
    // reducer would need more runs than max_spill_runs (its merge state no
    // longer fits either) — that residual OOM is what the driver's
    // doubled-reducer retry rung resolves.
    const auto memory_mode = job_memory_mode(*job);
    if (memory_mode != ClusterConfig::ReduceMemoryMode::kUnbounded) {
      const double budget =
          std::max(1.0, static_cast<double>(config_.memory_per_task_bytes));
      for (int p = 0; p < reducers; ++p) {
        if (job->reduce_states[p].completed) continue;
        const double state =
            std::ceil(static_cast<double>(job->partition_bytes[p]) *
                      config_.reduce_memory_factor);
        if (state <= budget) continue;
        bool over = memory_mode == ClusterConfig::ReduceMemoryMode::kStrict;
        if (!over) {
          const double runs = std::ceil(state / budget);
          over = runs > static_cast<double>(std::max(1, config_.max_spill_runs));
        }
        if (!over) continue;
        if (m_oom_failures == nullptr && metrics_ != nullptr) {
          m_oom_failures = metrics_->GetCounter("mr.memory_oom_failures");
        }
        if (m_oom_failures != nullptr) m_oom_failures->Add();
        fail_job(job,
                 Status::OutOfMemory(StrFormat(
                     "reduce task %d of %s needs %.0f bytes of sort state "
                     "(task memory %llu, %s mode)",
                     p, job->spec->name.c_str(), state,
                     (unsigned long long)config_.memory_per_task_bytes,
                     memory_mode == ClusterConfig::ReduceMemoryMode::kStrict
                         ? "strict"
                         : "spill")));
        return;
      }
    }
    // Shuffle is billed at the cluster's aggregate cross-network rate: the
    // all-to-all transfer is bisection-bandwidth bound, not per-reducer
    // parallel, which is what makes repartitioning a large relation so much
    // more expensive than broadcasting a small one (paper §2.2.1). Only
    // bytes not already transferred are billed, so a re-shuffle after a
    // crash pays for the re-executed maps' output alone.
    uint64_t transfer =
        total_emitted - std::min(total_emitted, job->shuffled_bytes);
    job->shuffled_bytes = total_emitted;
    SimMillis shuffle_ms = CeilDiv(static_cast<double>(transfer),
                                   config_.shuffle_bytes_per_ms);
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, shuffle_ms,
                                     obs::TraceLane::kEngine, "mr",
                                     "shuffle_phase")
                         .Arg("job", job->spec->name)
                         .ArgInt("bytes", (int64_t)transfer)
                         .ArgInt("reducers", reducers));
    }
    Event done{now_ + shuffle_ms, seq++, EventKind::kShuffleDone,
               job->job_index};
    done.shuffle_epoch = job->shuffle_epoch;
    events.push(done);
  };

  // Applies a logical task's durable completion: replays its staged output
  // records through the job's output observer (scheduler thread only, so
  // observer state is never updated concurrently; observers must be
  // commutative across tasks, which the stats collectors are) and, for
  // reduce tasks, releases the partition bucket retained for retries. Runs
  // at *completion* rather than commit so an attempt killed by a node crash
  // after committing never double-applies when the task re-runs.
  auto apply_durable_completion = [&](RunningJob* job, bool is_map,
                                      int task_id) {
    TaskData& d = is_map ? job->map_data[task_id] : job->reduce_data[task_id];
    // Quarantined records become durable with the completing task (even for
    // map tasks of map-reduce jobs, whose *output* stays volatile until job
    // end); a node crash that invalidates the task un-accounts them. They
    // never reach the output or the observer — excluded, not emitted.
    if (is_map && d.valid && d.quarantine.num_records > 0) {
      job->records_quarantined += d.quarantine.num_records;
      job->result.records_quarantined = job->records_quarantined;
      if (m_quarantined != nullptr) {
        m_quarantined->Add(static_cast<int64_t>(d.quarantine.num_records));
      }
      if (trace_ != nullptr) {
        for (uint64_t idx : d.quarantine_indexes) {
          trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks,
                                         "mr", "record_quarantined")
                             .Arg("job", job->spec->name)
                             .ArgInt("task", task_id)
                             .ArgInt("record", static_cast<int64_t>(idx)));
        }
      }
      const int budget = config_.faults.max_skipped_records;
      if (budget >= 0 &&
          job->records_quarantined > static_cast<uint64_t>(budget)) {
        if (m_integrity_failures != nullptr) m_integrity_failures->Add();
        fail_job(job,
                 Status::DataLoss(StrFormat(
                     "job %s quarantined %llu records, over the "
                     "max_skipped_records budget of %d",
                     job->spec->name.c_str(),
                     (unsigned long long)job->records_quarantined, budget)));
        return;
      }
    }
    if (is_map && job->spec->reduce_fn) return;  // Volatile until job end.
    if (d.valid && job->spec->output_observer && d.output.num_records > 0) {
      SplitReader reader(&d.output);
      while (!reader.AtEnd()) {
        Result<Value> record = reader.Next();
        if (!record.ok()) break;  // Unreachable: we encoded these records.
        job->spec->output_observer(*record);
      }
    }
    if (d.valid) job->observer_cpu_units += d.observer_charge;
    if (!is_map && d.valid && !d.spill_runs.empty()) {
      // The winning attempt's spill runs become durable DFS scratch under a
      // sibling path of the job output; the path carries its own write
      // epoch, so spill files never perturb the table versioning of the
      // output itself. Removed at job end (cleanup_spill_files).
      std::string spath =
          StrFormat("%s.spill/t%d", job->spec->output_path.c_str(), task_id);
      dfs_->Delete(spath).ok();
      auto sfile = dfs_->Create(spath);
      if (sfile.ok()) {
        for (Split& s : d.spill_runs) (*sfile)->AppendSplit(std::move(s));
        job->spill_paths.push_back(std::move(spath));
      }
      d.spill_runs.clear();
      d.spill_runs.shrink_to_fit();
    }
    if (!is_map) {
      job->partitions[task_id].clear();
      job->partitions[task_id].shrink_to_fit();
    }
  };

  auto median_ms = [](const std::vector<SimMillis>& v) -> SimMillis {
    std::vector<SimMillis> copy(v);
    size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
    return copy[mid];
  };

  // Schedules a no-op wakeup at the earliest time an in-flight attempt of
  // `job` crosses the speculation cutoff, so stragglers are re-examined
  // even when no other event falls in between.
  auto push_speculation_wakeup = [&](RunningJob* job, bool is_map) {
    if (!retries_enabled || !config_.faults.speculative_execution) return;
    const auto& durations =
        is_map ? job->completed_map_ms : job->completed_reduce_ms;
    if (durations.empty()) return;
    const auto& states = is_map ? job->map_states : job->reduce_states;
    SimMillis cutoff = static_cast<SimMillis>(
        std::ceil(config_.faults.speculative_slowness_threshold *
                  static_cast<double>(median_ms(durations))));
    SimMillis best = -1;
    for (const TaskRunState& st : states) {
      if (!st.primary_in_flight || st.completed || st.speculated ||
          !st.data_committed) {
        continue;
      }
      SimMillis fire = st.launch_time + cutoff + 1;
      if (fire <= now_ || fire >= st.expected_finish) continue;
      if (best < 0 || fire < best) best = fire;
    }
    if (best >= 0) {
      Event wake{best, seq++, EventKind::kWakeup, job->job_index};
      events.push(wake);
    }
  };

  // Commits one finished task attempt back into its job: simulated
  // duration, per-task staged data (TaskData), in-flight registration and
  // completion event. Runs on the scheduler thread in launch order. Nothing
  // is merged into job-level counters or outputs here — that happens at
  // completion/finish time — so an attempt later killed by a node crash
  // leaves no residue in the job.
  auto commit_task = [&](TaskLaunch& t) {
    RunningJob* job = t.job;
    TaskOutcome& o = t.outcome;
    bool already_failed = job->failed;
    bool attempt_ok = !t.inject_failure && !t.block_data_loss &&
                      !t.shuffle_data_loss && o.status.ok();
    TaskRunState& st =
        t.is_map ? job->map_states[t.task_id] : job->reduce_states[t.task_id];
    double cpu = o.cpu_units;
    // Observer CPU is billed to the attempt now (durations must not depend
    // on when the replay runs), but the replay itself happens at durable
    // completion (apply_durable_completion), so a killed attempt never
    // feeds the observer.
    double obs_charge = 0.0;
    if (attempt_ok && !already_failed && job->spec->output_observer) {
      obs_charge = static_cast<double>(o.output.num_records) *
                   job->spec->observer_cpu_per_record;
      cpu += obs_charge;
    }
    SimMillis duration = 0;
    if (t.is_map) {
      // Pilot jobs bill block reads at the split's logical size so their
      // event timeline (and thus the sample the stop condition admits) is
      // identical whichever physical format the table was written in.
      const MapInput& map_input = job->spec->inputs[t.map_ref.input_index];
      const uint64_t block_bytes = map_input.bill_logical_read
                                       ? t.split->logical_bytes
                                       : t.split->num_bytes();
      if (t.inject_failure) {
        // The attempt dies `fail_fraction` of the way through. Its data
        // flow never ran, so model the full attempt from the split's size
        // and record count, then bill the completed fraction.
        double est_cpu = static_cast<double>(t.split->num_records) *
                         (1.0 + map_input.cpu_per_record);
        SimMillis full = t.setup_ms +
                         CeilDiv(static_cast<double>(block_bytes),
                                 config_.map_read_bytes_per_ms) +
                         CeilDiv(est_cpu, config_.cpu_units_per_ms);
        duration = std::max<SimMillis>(
            1, static_cast<SimMillis>(
                   std::ceil(static_cast<double>(full) * t.fail_fraction)));
        ++job->result.task_failures_injected;
      } else if (t.block_data_loss) {
        // Every replica of the input block read back corrupt: the attempt
        // billed one full block read per replica tried, verified each
        // against its checksum, and has nothing left to fall back to.
        duration = std::max<SimMillis>(
            1, t.setup_ms +
                   static_cast<SimMillis>(t.replicas) *
                       CeilDiv(static_cast<double>(block_bytes),
                               config_.map_read_bytes_per_ms));
      } else {
        // An errored attempt scanned only `input_bytes` of its split and
        // its partial spill is discarded, not written. Corrupt-but-healed
        // replica reads each bill one extra full block read.
        uint64_t written_bytes = 0;
        if (o.status.ok()) {
          written_bytes =
              job->spec->reduce_fn ? o.emitted_bytes : o.output.num_bytes();
        }
        duration = t.setup_ms +
                   static_cast<SimMillis>(t.corrupt_replica_reads) *
                       CeilDiv(static_cast<double>(block_bytes),
                               config_.map_read_bytes_per_ms) +
                   CeilDiv(static_cast<double>(o.input_bytes),
                           config_.map_read_bytes_per_ms) +
                   CeilDiv(cpu, config_.cpu_units_per_ms) +
                   CeilDiv(static_cast<double>(written_bytes),
                           config_.map_write_bytes_per_ms);
        if (!already_failed && o.status.ok()) {
          TaskData& d = job->map_data[t.task_id];
          d.valid = true;
          d.counters = Counters{};
          d.counters.map_input_records = o.input_records;
          d.counters.map_input_bytes = o.input_logical_bytes;
          if (o.batches_decoded > 0 && metrics_ != nullptr) {
            // Registered lazily so row-only runs keep their exact metric
            // registry (golden traces and dumps predate this counter).
            if (m_scan_batches == nullptr) {
              m_scan_batches = metrics_->GetCounter("scan.batches");
            }
            m_scan_batches->Add(o.batches_decoded);
          }
          d.counters.map_output_records = o.emissions.size();
          d.counters.map_output_bytes = o.emitted_bytes;
          d.counters.output_records = o.output.num_records;
          d.emitted_bytes = o.emitted_bytes;
          d.emissions = std::move(o.emissions);
          d.emission_bytes = std::move(o.emission_bytes);
          d.output = std::move(o.output);
          d.observer_charge = obs_charge;
          d.quarantine = std::move(o.quarantine);
          d.quarantine_indexes = std::move(o.quarantine_indexes);
        }
      }
    } else {
      if (t.inject_failure) {
        // Same idea for a dying reduce attempt: its bucket was left in
        // place (nothing ran), so size the full attempt from it and from
        // the bytes the launch read off the partition total.
        double n = static_cast<double>(job->partitions[t.task_id].size());
        double est_cpu = n + n * std::log2(n + 1.0);
        SimMillis full = CeilDiv(static_cast<double>(t.bucket_bytes),
                                 config_.reduce_read_bytes_per_ms) +
                         CeilDiv(est_cpu, config_.cpu_units_per_ms);
        duration = std::max<SimMillis>(
            1, static_cast<SimMillis>(
                   std::ceil(static_cast<double>(full) * t.fail_fraction)));
        ++job->result.task_failures_injected;
      } else if (t.shuffle_data_loss) {
        // Every shuffle fetch of the bucket (the first plus each allowed
        // re-fetch) came back corrupt; each transfer is billed. The bucket
        // stayed in place for the retry.
        duration = std::max<SimMillis>(
            1, static_cast<SimMillis>(t.corrupt_fetches) *
                   CeilDiv(static_cast<double>(t.bucket_bytes),
                           config_.reduce_read_bytes_per_ms));
      } else {
        uint64_t written_bytes = o.status.ok() ? o.output.num_bytes() : 0;
        duration = static_cast<SimMillis>(t.corrupt_fetches) *
                       CeilDiv(static_cast<double>(o.reduce_input_bytes),
                               config_.reduce_read_bytes_per_ms) +
                   CeilDiv(static_cast<double>(o.reduce_input_bytes),
                           config_.reduce_read_bytes_per_ms) +
                   CeilDiv(cpu, config_.cpu_units_per_ms) +
                   CeilDiv(static_cast<double>(written_bytes),
                           config_.reduce_write_bytes_per_ms);
        if (t.spill_runs > 1) {
          // External-sort I/O: run formation writes the bucket once, each
          // further merge pass re-reads and re-writes it, and the final
          // pass re-reads it into the reduce stream — pass_bytes of writes
          // and pass_bytes of reads in total. A corrupt run is discovered
          // on the first read-back, so a DataLoss attempt bills one pass.
          const int passes = o.status.ok() ? t.spill_merge_passes : 1;
          const double pass_bytes = static_cast<double>(t.bucket_bytes) *
                                    static_cast<double>(passes);
          duration +=
              CeilDiv(pass_bytes, config_.reduce_write_bytes_per_ms) +
              CeilDiv(pass_bytes, config_.reduce_read_bytes_per_ms);
          job->result.reduce_spills += 1;
          job->result.spill_runs += t.spill_runs;
          job->result.spill_merge_passes += passes;
          job->result.spill_bytes_written += static_cast<uint64_t>(pass_bytes);
          job->result.spill_bytes_read += static_cast<uint64_t>(pass_bytes);
          if (metrics_ != nullptr) {
            // Registered lazily: runs that never spill keep their exact
            // metric registry (like scan.batches above).
            if (m_spilled_tasks == nullptr) {
              m_spilled_tasks =
                  metrics_->GetCounter("mr.memory_spilled_tasks");
              m_spill_bytes = metrics_->GetCounter("mr.memory_spill_bytes");
            }
            m_spilled_tasks->Add();
            m_spill_bytes->Add(2 * static_cast<int64_t>(pass_bytes));
          }
          if (trace_ != nullptr) {
            trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks,
                                           "mr", "task_spill")
                               .Arg("job", job->spec->name)
                               .ArgInt("task", t.task_id)
                               .ArgInt("attempt", st.failures + 1)
                               .ArgInt("runs", t.spill_runs)
                               .ArgInt("merge_passes", passes)
                               .ArgInt("bytes", (int64_t)t.bucket_bytes)
                               .ArgBool("ok", o.status.ok()));
          }
        }
        if (!already_failed && o.status.ok()) {
          TaskData& d = job->reduce_data[t.task_id];
          d.valid = true;
          d.counters = Counters{};
          d.counters.reduce_input_records = o.reduce_input_records;
          d.counters.output_records = o.output.num_records;
          d.output = std::move(o.output);
          d.observer_charge = obs_charge;
          d.spill_runs = std::move(o.spill_runs_written);
        }
      }
      job->result.peak_task_memory_bytes = std::max(
          job->result.peak_task_memory_bytes, t.task_memory_bytes);
    }
    SimMillis base = duration;
    if (t.slowdown > 1.0) {
      duration = static_cast<SimMillis>(
          std::ceil(static_cast<double>(duration) * t.slowdown));
    }
    st.primary_in_flight = true;
    st.launch_time = now_;
    st.expected_finish = now_ + duration;
    st.base_duration = base;
    st.node = t.node;
    if (attempt_ok) {
      st.data_committed = true;
    } else if (t.inject_failure) {
      st.last_error = Status::Internal(StrFormat(
          "injected failure: %s task %d of %s, attempt %d",
          t.is_map ? "map" : "reduce", t.task_id, job->spec->name.c_str(),
          st.failures + 1));
    } else if (t.block_data_loss) {
      st.last_error = Status::DataLoss(StrFormat(
          "all %d replicas of the input block for map task %d of %s failed "
          "checksum verification (attempt %d)",
          t.replicas, t.task_id, job->spec->name.c_str(), st.failures + 1));
    } else if (t.shuffle_data_loss) {
      st.last_error = Status::DataLoss(StrFormat(
          "shuffle fetch for reduce task %d of %s failed checksum "
          "verification %d times, exhausting %d re-fetches (attempt %d)",
          t.task_id, job->spec->name.c_str(), t.corrupt_fetches,
          std::max(0, config_.faults.max_shuffle_fetch_retries),
          st.failures + 1));
    } else {
      st.last_error = o.status;
    }
    // Data-integrity accounting: corrupt replica reads and shuffle
    // re-fetches are counted whether or not the attempt survived them.
    if (t.corrupt_replica_reads > 0) {
      job->result.block_corruptions += t.corrupt_replica_reads;
      if (m_block_corruptions != nullptr) {
        m_block_corruptions->Add(t.corrupt_replica_reads);
      }
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks, "mr",
                                       "block_corruption")
                           .Arg("job", job->spec->name)
                           .ArgInt("task", t.task_id)
                           .ArgInt("attempt", st.failures + 1)
                           .ArgInt("bad_replicas", t.corrupt_replica_reads)
                           .ArgBool("healed", !t.block_data_loss));
      }
    }
    if (t.corrupt_fetches > 0) {
      int refetches = std::min(
          t.corrupt_fetches, std::max(0, config_.faults.max_shuffle_fetch_retries));
      job->result.checksum_refetches += refetches;
      job->result.shuffle_fetch_retries += refetches;
      if (m_checksum_refetches != nullptr && refetches > 0) {
        m_checksum_refetches->Add(refetches);
      }
      if (m_shuffle_retries != nullptr && refetches > 0) {
        m_shuffle_retries->Add(refetches);
      }
      if (trace_ != nullptr) {
        trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks, "mr",
                                       "shuffle_checksum_retry")
                           .Arg("job", job->spec->name)
                           .ArgInt("task", t.task_id)
                           .ArgInt("attempt", st.failures + 1)
                           .ArgInt("refetches", refetches)
                           .ArgBool("exhausted", t.shuffle_data_loss));
      }
    }
    if (t.is_map) {
      if (m_map_attempts != nullptr) m_map_attempts->Add();
      if (h_map_ms != nullptr) h_map_ms->Observe(duration);
      job->result.map_slot_ms += duration;
    } else {
      if (m_reduce_attempts != nullptr) m_reduce_attempts->Add();
      if (h_reduce_ms != nullptr) h_reduce_ms->Observe(duration);
      job->result.reduce_slot_ms += duration;
    }
    if (t.inject_failure && m_injected != nullptr) m_injected->Add();
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, duration, obs::TraceLane::kTasks,
                                     "mr",
                                     t.is_map ? "map_attempt"
                                              : "reduce_attempt")
                         .Arg("job", job->spec->name)
                         .ArgInt("task", t.task_id)
                         .ArgInt("attempt", st.failures + 1)
                         .ArgBool("ok", attempt_ok)
                         .ArgBool("injected_failure", t.inject_failure)
                         .ArgDouble("slowdown", t.slowdown));
    }
    // A drawn node crash lands partway through this attempt. The crash
    // event is pushed before the completion event so a crash falling on the
    // attempt's own finish time still kills it first (lower seq wins ties).
    if (t.crash_node) {
      SimMillis crash_after = std::max<SimMillis>(
          1, static_cast<SimMillis>(std::ceil(static_cast<double>(duration) *
                                              t.crash_fraction)));
      Event crash{now_ + crash_after, seq++, EventKind::kNodeCrash, -1};
      crash.node = t.node;
      events.push(crash);
    }
    Event done{now_ + duration, seq++,
               t.is_map ? EventKind::kMapDone : EventKind::kReduceDone,
               job->job_index};
    done.task_id = t.task_id;
    done.attempt_failed = !attempt_ok;
    done.poison_failure = o.poison_failure;
    done.attempt_duration = duration;
    in_flight[done.seq] = InFlightAttempt{job->job_index, t.is_map, t.task_id,
                                          /*speculative=*/false, t.node};
    events.push(done);
    // Legacy fail-fast: with the fault model off, the first real task
    // error kills the whole job at commit time.
    if (!retries_enabled && !already_failed && !o.status.ok()) {
      fail_job(job, o.status);
    }
  };

  // Launches a backup attempt for the slowest committed in-flight task of
  // one phase, when the phase has idle slots, nothing launchable pending,
  // and that task has been running `speculative_slowness_threshold` times
  // longer than the phase's median completed duration. The backup runs no
  // data flow — the primary's outcome is already committed — it is a pure
  // timing race: whichever attempt's completion event fires first wins,
  // and the loser still occupies its slot until its own finish time.
  auto maybe_speculate = [&](RunningJob& job, bool is_map) {
    int& free_slots = is_map ? free_map_slots : free_reduce_slots;
    if (free_slots <= 0 || !job.fault_rng.has_value()) return;
    const auto& durations =
        is_map ? job.completed_map_ms : job.completed_reduce_ms;
    if (durations.empty()) return;
    const auto& pending = is_map ? job.pending_map : job.pending_reduce;
    for (const PendingTask& p : pending) {
      if (p.not_before <= now_) return;  // Real work should use the slot.
    }
    auto& states = is_map ? job.map_states : job.reduce_states;
    double threshold = config_.faults.speculative_slowness_threshold *
                       static_cast<double>(median_ms(durations));
    int slowest = -1;
    SimMillis slowest_elapsed = -1;
    for (size_t t = 0; t < states.size(); ++t) {
      const TaskRunState& st = states[t];
      if (!st.primary_in_flight || st.completed || st.speculated ||
          !st.data_committed) {
        continue;
      }
      SimMillis elapsed = now_ - st.launch_time;
      if (static_cast<double>(elapsed) <= threshold) continue;
      if (elapsed > slowest_elapsed) {
        slowest_elapsed = elapsed;
        slowest = static_cast<int>(t);
      }
    }
    if (slowest < 0) return;
    TaskRunState& st = states[slowest];
    // The backup re-runs the same attempt from scratch on another node
    // (never the primary's, when avoidable — the point of speculation under
    // node faults), with its own straggler draw on the unslowed duration.
    int bnode = pick_node(is_map, /*exclude=*/st.node);
    if (bnode < 0) return;
    double slowdown = 1.0;
    if (config_.faults.straggler_rate > 0.0 &&
        job.fault_rng->Bernoulli(config_.faults.straggler_rate)) {
      slowdown = std::max(1.0, config_.faults.straggler_slowdown);
    }
    SimMillis duration = std::max<SimMillis>(
        1, static_cast<SimMillis>(
               std::ceil(static_cast<double>(st.base_duration) * slowdown)));
    --free_slots;
    std::vector<int>& free = is_map ? free_map : free_reduce;
    --free[bnode];
    if (is_map) {
      ++job.active_map_tasks;
    } else {
      ++job.active_reduce_tasks;
    }
    st.speculated = true;
    st.backup_in_flight = true;
    ++job.result.speculative_launches;
    if (m_spec_launches != nullptr) m_spec_launches->Add();
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, duration, obs::TraceLane::kTasks,
                                     "mr", "speculative_attempt")
                         .Arg("job", job.spec->name)
                         .ArgInt("task", slowest)
                         .ArgBool("map", is_map)
                         .ArgDouble("slowdown", slowdown));
    }
    Event done{now_ + duration, seq++,
               is_map ? EventKind::kMapDone : EventKind::kReduceDone,
               job.job_index};
    done.task_id = slowest;
    done.speculative = true;
    done.attempt_duration = duration;
    in_flight[done.seq] = InFlightAttempt{job.job_index, is_map, slowest,
                                          /*speculative=*/true, bnode};
    events.push(done);
  };

  // Assigns free slots to pending tasks (FIFO across jobs), executes the
  // resulting wave of task data flows — in parallel on the worker pool when
  // one is configured — and commits the outcomes in launch order. All
  // launch decisions, including stop-condition checks and fault draws,
  // observe only *committed* state: no task is in flight while they are
  // made, which is what makes the simulation bit-identical for any thread
  // count.
  auto schedule = [&]() {
    std::vector<TaskLaunch> wave;
    for (RunningJob& job : jobs) {
      if (job.phase == JobPhase::kMap && now_ >= job.ready_time) {
        // The stop condition is evaluated once per scheduling pass, before
        // the wave launches: concurrently launched tasks cannot observe
        // each other's output (they couldn't on a real cluster either);
        // tasks already running always finish their whole split (§4.2).
        if (!job.pending_map.empty() && job.spec->stop_condition &&
            job.spec->stop_condition()) {
          job.result.map_tasks_skipped +=
              static_cast<int>(job.pending_map.size());
          job.map_tasks_remaining -=
              static_cast<int>(job.pending_map.size());
          job.pending_map.clear();
        }
        std::deque<PendingTask> deferred;
        while (free_map_slots > 0 && !job.pending_map.empty()) {
          PendingTask next = job.pending_map.front();
          job.pending_map.pop_front();
          if (next.not_before > now_) {
            deferred.push_back(next);  // Backoff not elapsed yet.
            continue;
          }
          TaskLaunch launch;
          launch.job = &job;
          launch.is_map = true;
          launch.task_id = next.task_id;
          launch.map_ref = job.map_defs[next.task_id];
          launch.split = &job.spec->inputs[launch.map_ref.input_index]
                              .file->splits()[launch.map_ref.split_index];
          launch.setup_ms = side_load_ms(&job);
          launch.task_index = job.map_seq;
          ++job.map_seq;
          if (job.map_states[next.task_id].failures > 0) {
            ++job.result.task_retries;
            if (m_retries != nullptr) m_retries->Add();
          }
          draw_faults(&job, &launch);
          {
            // Poison positions are a property of the split's data: every
            // attempt of this logical task sees the same plan. Skip mode is
            // per-task state flipped after repeated poison failures.
            const TaskRunState& mst = job.map_states[next.task_id];
            if (!mst.poison.empty()) launch.poison = &mst.poison;
            launch.skip_mode = mst.skip_mode;
          }
          // free_map_slots > 0 guarantees some alive node has a free slot.
          launch.node = pick_node(/*is_map=*/true, /*exclude=*/-1);
          --free_map[launch.node];
          --free_map_slots;
          ++job.active_map_tasks;
          wave.push_back(std::move(launch));
        }
        while (!deferred.empty()) {
          job.pending_map.push_front(deferred.back());
          deferred.pop_back();
        }
        if (!job.failed && job.pending_map.empty() &&
            job.map_tasks_remaining == 0 && job.phase == JobPhase::kMap) {
          on_map_phase_complete(&job);
        }
      }
      if (job.phase == JobPhase::kReduce) {
        std::deque<PendingTask> deferred;
        while (free_reduce_slots > 0 && !job.pending_reduce.empty()) {
          PendingTask next = job.pending_reduce.front();
          job.pending_reduce.pop_front();
          if (next.not_before > now_) {
            deferred.push_back(next);
            continue;
          }
          TaskLaunch launch;
          launch.job = &job;
          launch.is_map = false;
          launch.task_id = next.task_id;
          launch.partition = next.task_id;
          if (job.reduce_states[next.task_id].failures > 0) {
            ++job.result.task_retries;
            if (m_retries != nullptr) m_retries->Add();
          }
          // Reduce-memory plan, decided before the fault draws (which gate
          // the spill-corruption draw on it). The simulated sort/hash state
          // is the bucket's bytes scaled by reduce_memory_factor; over
          // budget in spill mode, the attempt sorts externally in
          // ceil(state / budget) runs (capped at one run per record) and
          // merges them fan_in-at-a-time. on_map_phase_complete already
          // failed the job if the plan would exceed max_spill_runs.
          {
            const auto mode = job_memory_mode(job);
            launch.bucket_bytes = job.partition_bytes[next.task_id];
            const double state =
                std::ceil(static_cast<double>(launch.bucket_bytes) *
                          config_.reduce_memory_factor);
            launch.task_memory_bytes = static_cast<uint64_t>(state);
            const double budget = std::max(
                1.0, static_cast<double>(config_.memory_per_task_bytes));
            if (mode == ClusterConfig::ReduceMemoryMode::kSpill &&
                state > budget) {
              int runs = static_cast<int>(std::ceil(state / budget));
              runs = std::min<int>(
                  runs,
                  static_cast<int>(std::max<size_t>(
                      1, job.partitions[next.task_id].size())));
              if (runs > 1) {
                launch.spill_runs = runs;
                const int fan = std::max(2, config_.spill_merge_fan_in);
                int passes = 0;
                long long width = 1;
                while (width < runs) {
                  width *= fan;
                  ++passes;
                }
                launch.spill_merge_passes = std::max(1, passes);
                // A spilling task holds only the budget; the rest lives in
                // its run files.
                launch.task_memory_bytes = config_.memory_per_task_bytes;
              }
            }
          }
          draw_faults(&job, &launch);
          if (launch.inject_failure) {
            // The attempt dies before finishing; its bucket stays in place
            // for the retry (the commit sizes the attempt from it).
          } else if (retries_enabled) {
            // Keep the bucket for a possible retry after a *real* reduce
            // error; released when an attempt commits successfully.
            launch.bucket = job.partitions[next.task_id];
          } else {
            launch.bucket = std::move(job.partitions[next.task_id]);
          }
          launch.node = pick_node(/*is_map=*/false, /*exclude=*/-1);
          --free_reduce[launch.node];
          --free_reduce_slots;
          ++job.active_reduce_tasks;
          wave.push_back(std::move(launch));
        }
        while (!deferred.empty()) {
          job.pending_reduce.push_front(deferred.back());
          deferred.pop_back();
        }
      }
    }
    // Backup attempts claim only slots left over after real work, across
    // all jobs (never starving another job's pending tasks).
    if (retries_enabled && config_.faults.speculative_execution) {
      for (RunningJob& job : jobs) {
        if (job.failed) continue;
        if (job.phase == JobPhase::kMap && now_ >= job.ready_time) {
          maybe_speculate(job, /*is_map=*/true);
        }
        if (job.phase == JobPhase::kReduce) {
          maybe_speculate(job, /*is_map=*/false);
        }
      }
    }
    if (wave.empty()) return;

    auto execute = [](TaskLaunch& t) {
      // Attempts with an injected failure never run their data flow: the
      // simulated container dies. Re-running user code here would repeat
      // its side effects (Coordinator counters), which real retried tasks
      // do too, but would break the simulator's exactly-once accounting.
      if (t.inject_failure) return;
      // Drawn corruption is exercised against the *real* checksum machinery:
      // each corrupt copy is modeled by flipping one byte of a scratch copy
      // of the payload and verifying the stored CRC rejects it. The shared
      // split / bucket is never mutated, so healed re-reads decode the
      // intact original bytes.
      if (t.corrupt_replica_reads > 0 && t.is_map && t.split != nullptr &&
          !t.split->data.empty()) {
        Split corrupt = *t.split;
        corrupt.data[0] ^= 0x01;
        if (VerifySplit(corrupt).ok()) {
          t.outcome.status = Status::Internal(
              "checksum failed to detect a corrupted block replica");
          return;
        }
      }
      if (t.corrupt_fetches > 0 && !t.is_map && !t.bucket.empty()) {
        std::string frame;
        t.bucket.front().first.EncodeTo(&frame);
        t.bucket.front().second.EncodeTo(&frame);
        const uint32_t sent = Crc32c(frame);
        frame[0] ^= 0x01;
        if (Crc32c(frame) == sent) {
          t.outcome.status = Status::Internal(
              "checksum failed to detect a corrupted shuffle frame");
          return;
        }
      }
      // Data-loss attempts never get a clean copy: no data flow runs.
      if (t.block_data_loss || t.shuffle_data_loss) return;
      if (t.is_map) {
        ExecuteMapTask(t.job->spec->inputs[t.map_ref.input_index], *t.split,
                       t.task_index, t.poison, t.skip_mode, &t.outcome);
      } else {
        ExecuteReduceTask(*t.job->spec, std::move(t.bucket), t.bucket_bytes,
                          t.spill_runs, t.corrupt_spill, &t.outcome);
      }
    };
    if (pool_ != nullptr && wave.size() > 1) {
      std::vector<std::function<void()>> closures;
      closures.reserve(wave.size());
      for (TaskLaunch& t : wave) {
        closures.push_back([&t, &execute] { execute(t); });
      }
      pool_->RunBatch(std::move(closures));
    } else {
      for (TaskLaunch& t : wave) execute(t);
    }
    for (TaskLaunch& t : wave) commit_task(t);
    // New launches can only cross the speculation cutoff later; make sure
    // a pass happens when the earliest one does.
    for (RunningJob& job : jobs) {
      if (job.failed) continue;
      if (job.phase == JobPhase::kMap || job.phase == JobPhase::kShuffle) {
        push_speculation_wakeup(&job, /*is_map=*/true);
      }
      if (job.phase == JobPhase::kReduce) {
        push_speculation_wakeup(&job, /*is_map=*/false);
      }
    }
  };

  // True when the nodes that could ever host this job's tasks are all down
  // for good (no recovery scheduled): the job can never finish.
  auto cluster_doomed_for = [&](const RunningJob& job) {
    int pot_map = 0;
    int pot_reduce = 0;
    for (int n = 0; n < num_nodes; ++n) {
      if (node_states_[n].alive || node_states_[n].recover_at >= 0) {
        pot_map += node_capacity(config_.map_slots, n);
        pot_reduce += node_capacity(config_.reduce_slots, n);
      }
    }
    return pot_map == 0 ||
           (job.spec->reduce_fn != nullptr && pot_reduce == 0);
  };

  auto fail_doomed = [&](RunningJob* job) {
    fail_job(job, Status::Unavailable(StrFormat(
                      "no node that could run %s will ever come back "
                      "(cluster permanently degraded)",
                      job->spec->name.c_str())));
  };

  // A node dies: its slots leave the pool, every attempt running on it is
  // killed (a kill, not a failure — the task re-queues without charging an
  // attempt, Hadoop's KILLED vs FAILED), and the completed map outputs
  // resident on it are invalidated for any map-reduce job that still needs
  // them, regressing those jobs to the map phase for re-execution.
  auto handle_node_crash = [&](int node, bool scripted) {
    if (scripted) ++scripted_crashes_consumed_;
    if (node < 0 || node >= num_nodes) return;
    NodeState& ns = node_states_[node];
    if (!ns.alive) return;  // Already down; nothing new to lose.
    ns.alive = false;
    ns.recover_at = config_.faults.node_recovery_ms > 0
                        ? now_ + config_.faults.node_recovery_ms
                        : -1;
    if (ns.recover_at >= 0) {
      Event rec{ns.recover_at, seq++, EventKind::kNodeRecover, -1};
      rec.node = node;
      events.push(rec);
    }
    --alive_nodes;
    free_map_slots -= free_map[node];
    free_reduce_slots -= free_reduce[node];
    free_map[node] = 0;
    free_reduce[node] = 0;
    if (m_node_crashes != nullptr) m_node_crashes->Add();

    // Kill the node's in-flight attempts, in launch (seq) order. Their
    // slots went down with the node, so nothing is refunded; their pending
    // completion events will find no registry entry and be ignored.
    int killed = 0;
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->second.node != node) {
        ++it;
        continue;
      }
      const InFlightAttempt a = it->second;
      it = in_flight.erase(it);
      ++killed;
      RunningJob& job = jobs[a.job_index];
      if (a.is_map) {
        --job.active_map_tasks;
      } else {
        --job.active_reduce_tasks;
      }
      auto& states = a.is_map ? job.map_states : job.reduce_states;
      TaskRunState& st = states[a.task_id];
      if (a.speculative) {
        st.backup_in_flight = false;
        st.speculated = false;  // Eligible for a fresh backup later.
      } else {
        st.primary_in_flight = false;
      }
      ++job.result.attempts_killed_by_node;
      if (m_node_kills != nullptr) m_node_kills->Add();
      if (!job.failed && !st.completed && !st.primary_in_flight &&
          !st.backup_in_flight) {
        auto& pending = a.is_map ? job.pending_map : job.pending_reduce;
        pending.push_back({a.task_id, now_});
      }
    }

    // Invalidate the completed map outputs that lived on the node, for
    // every map-reduce job that still needs them. (Map-only outputs and
    // reduce outputs model durable DFS writes and survive; a reduce phase
    // with no reducer left to launch has already fetched everything.)
    for (RunningJob& job : jobs) {
      if (job.failed || job.Finished() || job.spec->reduce_fn == nullptr) {
        continue;
      }
      bool needs_map_outputs =
          job.phase == JobPhase::kMap || job.phase == JobPhase::kShuffle ||
          (job.phase == JobPhase::kReduce && !job.pending_reduce.empty());
      if (!needs_map_outputs) continue;
      int invalidated = 0;
      for (size_t t = 0; t < job.map_states.size(); ++t) {
        TaskRunState& st = job.map_states[t];
        if (!st.completed || st.node != node) continue;
        // Any attempt of this task still racing elsewhere is killed too:
        // the logical task is being reset, and a late completion would
        // otherwise re-complete it against cleared data. These kills DO
        // refund their (live-node) slots.
        for (auto it = in_flight.begin(); it != in_flight.end();) {
          const InFlightAttempt& a = it->second;
          if (a.job_index != job.job_index || !a.is_map ||
              a.task_id != static_cast<int>(t)) {
            ++it;
            continue;
          }
          ++free_map[a.node];
          ++free_map_slots;
          --job.active_map_tasks;
          ++job.result.attempts_killed_by_node;
          if (m_node_kills != nullptr) m_node_kills->Add();
          it = in_flight.erase(it);
        }
        TaskData& d = job.map_data[t];
        job.shuffled_bytes -= std::min(job.shuffled_bytes, d.emitted_bytes);
        // Quarantined records accounted by the lost attempt are un-counted;
        // the re-run re-quarantines (and re-accounts) the same positions.
        uint64_t unquarantined = d.quarantine_indexes.size();
        job.records_quarantined -=
            std::min(job.records_quarantined, unquarantined);
        job.result.records_quarantined = job.records_quarantined;
        d = TaskData{};
        // Real failures outlive the kill, and so does the poison plan: the
        // positions are a property of the split's data, and skip mode is a
        // decision already made for this logical task.
        int failures = st.failures;
        bool poison_drawn = st.poison_drawn;
        std::vector<uint64_t> poison = std::move(st.poison);
        int poison_failures = st.poison_failures;
        bool skip_mode = st.skip_mode;
        st = TaskRunState{};
        st.failures = failures;
        st.poison_drawn = poison_drawn;
        st.poison = std::move(poison);
        st.poison_failures = poison_failures;
        st.skip_mode = skip_mode;
        ++job.map_tasks_remaining;
        job.pending_map.push_back({static_cast<int>(t), now_});
        ++invalidated;
      }
      if (invalidated == 0) continue;
      job.result.maps_invalidated += invalidated;
      if (m_maps_invalidated != nullptr) m_maps_invalidated->Add(invalidated);
      if (job.phase == JobPhase::kReduce) {
        // The reducers still waiting to launch hit shuffle-fetch failures:
        // they stay queued behind the re-shuffle of the re-executed maps.
        int blocked = static_cast<int>(job.pending_reduce.size());
        job.result.shuffle_fetch_retries += blocked;
        if (m_shuffle_retries != nullptr) m_shuffle_retries->Add(blocked);
        if (trace_ != nullptr) {
          trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine,
                                         "mr", "shuffle_fetch_retry")
                             .Arg("job", job.spec->name)
                             .ArgInt("blocked_reducers", blocked)
                             .ArgInt("node", node));
        }
      }
      if (job.phase != JobPhase::kMap) ++job.shuffle_epoch;
      job.phase = JobPhase::kMap;
    }

    for (RunningJob& job : jobs) {
      if (!job.Finished() && !job.failed) {
        ++job.result.node_crashes_observed;
      }
    }
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                                     "node_crash")
                         .ArgInt("node", node)
                         .ArgBool("scripted", scripted)
                         .ArgInt("attempts_killed", killed)
                         .ArgInt("alive_nodes", alive_nodes));
    }
    // Permanent-failure classification: with no capacity left and none ever
    // coming back, unfinished jobs can never run.
    for (RunningJob& job : jobs) {
      if (!job.failed && !job.Finished() && cluster_doomed_for(job)) {
        fail_doomed(&job);
      }
    }
    // Failed jobs whose last in-flight attempts were just killed have no
    // completion event left to drain them.
    for (RunningJob& job : jobs) {
      if (job.failed) drain_failed_job(&job);
    }
  };

  auto handle_node_recover = [&](const Event& ev) {
    if (ev.node < 0 || ev.node >= num_nodes) return;
    NodeState& ns = node_states_[ev.node];
    if (ns.alive || ns.recover_at != ev.time) return;  // Stale event.
    ns.alive = true;
    ns.recover_at = 0;
    ++alive_nodes;
    // The node rejoins with empty disks: full slot capacity, no resident
    // map outputs (those were invalidated at crash time).
    free_map[ev.node] = node_capacity(config_.map_slots, ev.node);
    free_reduce[ev.node] = node_capacity(config_.reduce_slots, ev.node);
    free_map_slots += free_map[ev.node];
    free_reduce_slots += free_reduce[ev.node];
    if (m_node_recoveries != nullptr) m_node_recoveries->Add();
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                                     "node_recover")
                         .ArgInt("node", ev.node)
                         .ArgInt("alive_nodes", alive_nodes));
    }
  };

  auto handle_event = [&](const Event& ev) {
    // Node events carry no job index; dispatch them before binding one.
    if (ev.kind == EventKind::kNodeCrash) {
      handle_node_crash(ev.node, ev.scripted);
      return;
    }
    if (ev.kind == EventKind::kNodeRecover) {
      handle_node_recover(ev);
      return;
    }
    RunningJob& job = jobs[ev.job_index];
    switch (ev.kind) {
      case EventKind::kJobReady:
        if (!job.failed && job.phase == JobPhase::kStartingUp &&
            cluster_doomed_for(job)) {
          // Submitted against a permanently dead cluster (every crash
          // already classified the jobs it doomed; this catches jobs
          // submitted afterwards).
          fail_doomed(&job);
          break;
        }
        if (!job.failed && job.phase == JobPhase::kStartingUp) {
          // Check the broadcast memory budget at task-launch time: the build
          // side is loaded by the first task wave, which is when Jaql's
          // broadcast join discovers it does not fit and dies.
          double need = static_cast<double>(job.spec->side_memory_bytes) *
                        config_.broadcast_memory_factor;
          if (job.spec->side_memory_bytes > 0) {
            job.result.peak_task_memory_bytes =
                std::max(job.result.peak_task_memory_bytes,
                         static_cast<uint64_t>(need));
          }
          if (need > static_cast<double>(config_.memory_per_task_bytes)) {
            if (m_oom_failures == nullptr && metrics_ != nullptr) {
              m_oom_failures = metrics_->GetCounter("mr.memory_oom_failures");
            }
            if (m_oom_failures != nullptr) m_oom_failures->Add();
            fail_job(&job,
                     Status::OutOfMemory(StrFormat(
                         "broadcast build side of %s needs %.0f bytes "
                         "(task memory %llu)",
                         job.spec->name.c_str(), need,
                         static_cast<unsigned long long>(
                             config_.memory_per_task_bytes))));
          } else {
            job.phase = JobPhase::kMap;
          }
        }
        break;
      case EventKind::kMapDone: {
        auto flight = in_flight.find(ev.seq);
        if (flight == in_flight.end()) break;  // Killed by a node crash.
        const int node = flight->second.node;
        in_flight.erase(flight);
        ++free_map[node];
        ++free_map_slots;
        --job.active_map_tasks;
        if (job.failed) {
          drain_failed_job(&job);
          break;
        }
        TaskRunState& st = job.map_states[ev.task_id];
        if (ev.speculative) {
          st.backup_in_flight = false;
          if (!st.completed) {
            // The backup beat its primary; the primary's own completion
            // event will only give back its slot.
            st.completed = true;
            st.node = node;
            --job.map_tasks_remaining;
            ++job.result.map_tasks_run;
            ++job.result.speculative_wins;
            if (m_spec_wins != nullptr) m_spec_wins->Add();
            if (trace_ != nullptr) {
              trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks,
                                             "mr", "speculative_win")
                                 .Arg("job", job.spec->name)
                                 .ArgInt("task", ev.task_id)
                                 .ArgBool("map", true));
            }
            job.completed_map_ms.push_back(ev.attempt_duration);
            apply_durable_completion(&job, /*is_map=*/true, ev.task_id);
          }
        } else if (ev.attempt_failed) {
          st.primary_in_flight = false;
          ++st.failures;
          if (ev.poison_failure) {
            // A map function "threw" on a poison record. After two such
            // attempt deaths the task re-runs in skip mode, quarantining
            // the poison records instead of failing (Hadoop skip mode).
            ++st.poison_failures;
            if (st.poison_failures >= 2) st.skip_mode = true;
          }
          if (st.failures >= max_attempts) {
            // A DataLoss last error keeps its code through the job failure:
            // it is the signal that lets the driver's retry ladder classify
            // the failure as data corruption, not engine logic.
            std::string detail = StrFormat(
                "map task %d of %s failed %d attempts; last: %s", ev.task_id,
                job.spec->name.c_str(), st.failures,
                st.last_error.ToString().c_str());
            if (st.last_error.code() == StatusCode::kDataLoss) {
              if (m_integrity_failures != nullptr) m_integrity_failures->Add();
              fail_job(&job, Status::DataLoss(std::move(detail)));
            } else {
              fail_job(&job, Status::Internal(std::move(detail)));
            }
            break;
          }
          SimMillis backoff = retry_backoff(&job, st.failures);
          job.pending_map.push_back({ev.task_id, now_ + backoff});
          if (backoff > 0) {
            events.push(
                {now_ + backoff, seq++, EventKind::kWakeup, job.job_index});
          }
        } else {
          st.primary_in_flight = false;
          if (!st.completed) {
            st.completed = true;
            st.node = node;
            --job.map_tasks_remaining;
            ++job.result.map_tasks_run;
            job.completed_map_ms.push_back(ev.attempt_duration);
            apply_durable_completion(&job, /*is_map=*/true, ev.task_id);
          }
          // else: the primary lost its race against a faster backup; it
          // only held a slot until now.
        }
        // fail_job can fire inside apply_durable_completion (quarantine
        // budget); a failed job must not advance phases.
        if (!job.failed && job.pending_map.empty() &&
            job.map_tasks_remaining == 0 && job.phase == JobPhase::kMap) {
          on_map_phase_complete(&job);
        } else if (!job.failed) {
          push_speculation_wakeup(&job, /*is_map=*/true);
        }
        break;
      }
      case EventKind::kShuffleDone:
        // A stale epoch means a node crash invalidated map outputs while
        // this shuffle was in flight; the job re-entered the map phase and
        // will re-shuffle when the re-executed maps drain.
        if (!job.failed && ev.shuffle_epoch == job.shuffle_epoch &&
            job.phase == JobPhase::kShuffle) {
          job.phase = JobPhase::kReduce;
          if (!job.reduce_opened) {
            job.reduce_opened = true;
            job.reduce_start = now_;
            for (int r = 0; r < job.num_reduce_tasks; ++r) {
              job.pending_reduce.push_back({r, 0});
            }
          }
          // else: re-shuffle after invalidation — the reducers that were
          // blocked on the fetch failure are already queued in
          // pending_reduce (and freshly re-bucketed); just resume them.
        }
        break;
      case EventKind::kReduceDone: {
        auto flight = in_flight.find(ev.seq);
        if (flight == in_flight.end()) break;  // Killed by a node crash.
        const int node = flight->second.node;
        in_flight.erase(flight);
        ++free_reduce[node];
        ++free_reduce_slots;
        --job.active_reduce_tasks;
        if (job.failed) {
          drain_failed_job(&job);
          break;
        }
        TaskRunState& st = job.reduce_states[ev.task_id];
        if (ev.speculative) {
          st.backup_in_flight = false;
          if (!st.completed) {
            st.completed = true;
            st.node = node;
            --job.reduce_tasks_remaining;
            ++job.result.reduce_tasks_run;
            ++job.result.speculative_wins;
            if (m_spec_wins != nullptr) m_spec_wins->Add();
            if (trace_ != nullptr) {
              trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks,
                                             "mr", "speculative_win")
                                 .Arg("job", job.spec->name)
                                 .ArgInt("task", ev.task_id)
                                 .ArgBool("map", false));
            }
            job.completed_reduce_ms.push_back(ev.attempt_duration);
            apply_durable_completion(&job, /*is_map=*/false, ev.task_id);
          }
        } else if (ev.attempt_failed) {
          st.primary_in_flight = false;
          ++st.failures;
          if (st.failures >= max_attempts) {
            std::string detail = StrFormat(
                "reduce task %d of %s failed %d attempts; last: %s",
                ev.task_id, job.spec->name.c_str(), st.failures,
                st.last_error.ToString().c_str());
            if (st.last_error.code() == StatusCode::kDataLoss) {
              if (m_integrity_failures != nullptr) m_integrity_failures->Add();
              fail_job(&job, Status::DataLoss(std::move(detail)));
            } else {
              fail_job(&job, Status::Internal(std::move(detail)));
            }
            break;
          }
          SimMillis backoff = retry_backoff(&job, st.failures);
          job.pending_reduce.push_back({ev.task_id, now_ + backoff});
          if (backoff > 0) {
            events.push(
                {now_ + backoff, seq++, EventKind::kWakeup, job.job_index});
          }
        } else {
          st.primary_in_flight = false;
          if (!st.completed) {
            st.completed = true;
            st.node = node;
            --job.reduce_tasks_remaining;
            ++job.result.reduce_tasks_run;
            job.completed_reduce_ms.push_back(ev.attempt_duration);
            apply_durable_completion(&job, /*is_map=*/false, ev.task_id);
          }
        }
        if (job.pending_reduce.empty() && job.reduce_tasks_remaining == 0 &&
            job.phase == JobPhase::kReduce) {
          finish_job(&job);
        } else {
          push_speculation_wakeup(&job, /*is_map=*/false);
        }
        break;
      }
      case EventKind::kWakeup:
        // Nothing to do: the point was to trigger the scheduling pass that
        // follows event handling at this timestamp.
        break;
      case EventKind::kNodeCrash:
      case EventKind::kNodeRecover:
        break;  // Dispatched before the switch; unreachable here.
    }
  };

  while (unfinished > 0) {
    schedule();
    if (events.empty()) {
      if (unfinished > 0) {
        return Status::Internal("scheduler deadlock: jobs pending, no events");
      }
      break;
    }
    Event ev = events.top();
    events.pop();
    now_ = std::max(now_, ev.time);
    handle_event(ev);
    // Drain every event at this same timestamp before rescheduling, so all
    // slots freed at one simulated instant are refilled as a single wave —
    // that wave is what the worker pool executes in parallel.
    while (!events.empty() && events.top().time <= now_) {
      Event next = events.top();
      events.pop();
      handle_event(next);
    }
  }

  const SimMillis wave_elapsed_ms = now_ - wave_start_ms;
  const int total_slots =
      std::max(1, config_.map_slots) + std::max(0, config_.reduce_slots);
  if (wave_elapsed_ms > 0) {
    double pressure =
        static_cast<double>(busy_slot_ms_total_ - busy_before_ms) /
        (static_cast<double>(wave_elapsed_ms) *
         static_cast<double>(total_slots));
    last_wave_pressure_ = std::clamp(pressure, 0.0, 1.0);
  }

  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (RunningJob& job : jobs) {
    job.result.output = job.output;
    results.push_back(std::move(job.result));
  }
  return results;
}

}  // namespace dyno
