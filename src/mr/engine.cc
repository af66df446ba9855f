#include "mr/engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "columnar/batch_eval.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/knobs.h"
#include "common/random.h"
#include "common/string_util.h"
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

/// The two kinds of task. Map and reduce tasks share one lifecycle (launch,
/// commit, completion, retry, speculation, node-crash kill); every piece of
/// per-kind state is an array indexed by this.
enum TaskKind : int { kMapTask = 0, kReduceTask = 1 };
constexpr TaskKind kTaskKinds[] = {kMapTask, kReduceTask};

const char* KindName(TaskKind kind) {
  return kind == kMapTask ? "map" : "reduce";
}

/// A queued logical task. `not_before` gates retries: a task re-enters the
/// queue immediately after its attempt fails but only becomes launchable
/// once its backoff elapses, keeping queue order deterministic.
struct PendingTask {
  int task_id = 0;
  SimMillis not_before = 0;
};

/// What a logical task's attempts have done so far. A node crash that loses
/// a completed map output resets exactly this part of its TaskRunState.
struct AttemptState {
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
};

/// Attempt bookkeeping for one logical task (fault model). The fields past
/// AttemptState outlive a node-crash reset: real failures still count
/// against the attempt budget, and the poison plan is a property of the
/// data, not of any attempt.
struct TaskRunState : AttemptState {
  int failures = 0;  ///< Failed attempts so far.

  /// Poison-record state (map tasks only). Positions are drawn once, at the
  /// task's first launch.
  bool poison_drawn = false;
  std::vector<uint64_t> poison;  ///< Sorted poison record indexes.
  /// Attempts that died on a poison record; from the second one on, the
  /// task re-runs in skip mode.
  int poison_failures = 0;
};

/// What one task attempt's data flow produces for its job: its counters,
/// filled where the data flow reads and emits, and its staged records.
/// Fields the other kind of task never fills stay zero.
struct TaskStaged {
  Counters counters;  ///< This task's contribution alone.
  Split output;       ///< Map-only or reduce output records.
  MapEmissions emissions;  ///< Map of a reduce job.
  Split quarantine;   ///< Poison records skipped by this (map) task.
  std::vector<uint64_t> quarantine_indexes;  ///< Their record indexes.
  /// CRC-framed spill runs of a reduce task that sorted externally; written
  /// to the job's `.spill/` sibling DFS file at durable completion.
  std::vector<Split> spill_runs;
};

/// One logical task's staged data: everything its successful attempt
/// produced, held per task until the job finishes (or, for map outputs of
/// map-reduce jobs, until a node crash invalidates it). Assembling job
/// outputs from this in task-id order at finish time is what keeps results
/// byte-identical whether or not tasks were re-executed out of order.
struct TaskData : TaskStaged {
  bool valid = false;
  double observer_charge = 0.0;  ///< CPU units the observer replay costs.
};

/// Durations of a phase's completed attempts, one per logical task
/// completed, kept as a running upper median: the lower half in a max-heap
/// and the upper ceil(n/2) in a min-heap, whose top is the value of rank
/// n/2 in sorted order. Insertion is O(log n).
class RunningMedian {
 public:
  void Add(SimMillis v) {
    if (!upper_.empty() && v < upper_.top()) {
      lower_.push(v);
    } else {
      upper_.push(v);
    }
    if (upper_.size() > lower_.size() + 1) {
      lower_.push(upper_.top());
      upper_.pop();
    } else if (lower_.size() > upper_.size()) {
      upper_.push(lower_.top());
      lower_.pop();
    }
  }
  size_t size() const { return lower_.size() + upper_.size(); }
  bool empty() const { return upper_.empty(); }
  /// The value of rank size()/2; requires !empty().
  SimMillis Median() const { return upper_.top(); }

 private:
  std::priority_queue<SimMillis> lower_;
  std::priority_queue<SimMillis, std::vector<SimMillis>,
                      std::greater<SimMillis>>
      upper_;
};

/// One phase's logical tasks of a running job, indexed by task id: map
/// tasks by their MapTaskRef, reduce tasks by partition.
struct PhaseTasks {
  std::vector<TaskRunState> states;
  std::vector<TaskData> data;  ///< task_id -> staged outputs.
  std::deque<PendingTask> pending;
  int remaining = 0;  ///< Logical tasks not completed/skipped.
  int active = 0;     ///< Attempts in flight, backups included.
  SimMillis slot_ms = 0;  ///< Committed attempt time (JobResult::*_slot_ms).
  /// Durations of completed attempts, one per logical task completed (its
  /// size is JobResult::*_tasks_run) — the speculation median.
  RunningMedian completed_ms;

  /// Sizes the phase to `n` fresh logical tasks.
  void Open(size_t n) {
    states.assign(n, TaskRunState{});
    data.assign(n, TaskData{});
    remaining = static_cast<int>(n);
  }
};

/// Execution state for one concurrently running job.
struct RunningJob {
  const JobSpec* spec = nullptr;
  int job_index = 0;
  JobPhase phase = JobPhase::kStartingUp;
  SimMillis ready_time = 0;  ///< submit + startup latency.

  PhaseTasks tasks[2];  ///< Indexed by TaskKind.
  std::vector<MapTaskRef> map_defs;  ///< Map task_id -> (input, split).
  int map_seq = 0;  ///< Map tasks launched so far (distributed-cache billing).

  /// Reduce-side state. The reducer count, the size of
  /// tasks[kReduceTask], is fixed at the first shuffle.
  std::vector<std::vector<Emission>> partitions;
  /// Encoded bytes of each partition bucket, summed as it is (re)built.
  std::vector<uint64_t> partition_bytes;
  bool reduce_opened = false;  ///< First shuffle completed at least once.
  /// Bumped when a node crash invalidates map outputs mid-shuffle or later;
  /// a kShuffleDone event with a stale epoch is ignored.
  int shuffle_epoch = 0;
  /// Emission bytes already billed to the network, so a re-shuffle after a
  /// crash transfers only the re-executed maps' bytes.
  uint64_t shuffled_bytes = 0;

  /// When the reduce phase opened (shuffle done) — trace span start.
  SimMillis reduce_start = 0;

  /// Per-job fault stream (engaged only when injection is enabled), seeded
  /// from the config seed and the job name so draws are independent of
  /// cross-job scheduling interleavings.
  std::optional<Rng> fault_rng;

  std::shared_ptr<DfsFile> output;
  /// The job's result, built as it runs. Its records_quarantined is the
  /// running total over completed map tasks, checked against the
  /// max_skipped_records budget and decremented when a node crash
  /// invalidates a completed task.
  JobResult result;
  double observer_cpu_units = 0.0;
  /// Output records of the tasks whose data is committed, each logical
  /// task counted once: JobSpec::stop_after_output_records compares
  /// against it.
  uint64_t committed_output_records = 0;
  bool failed = false;

  /// DFS paths of spill-run files written by completed reduce tasks;
  /// deleted when the job ends (they are scratch, not output).
  std::vector<std::string> spill_paths;

  bool Finished() const { return phase == JobPhase::kDone; }
};

enum class EventKind {
  kJobReady,
  kTaskDone,
  kShuffleDone,
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
  int task_id = -1;               ///< Logical task (kTaskDone).
  TaskKind task_kind = kMapTask;  ///< Its kind (kTaskDone).
  bool attempt_failed = false;    ///< The attempt died (injected or real).
  bool poison_failure = false;    ///< It died on a poison record.
  bool speculative = false;       ///< This is a backup attempt finishing.
  SimMillis attempt_duration = 0;
  /// kNodeCrash/kNodeRecover target; for kTaskDone, the attempt's node.
  int node = -1;
  bool scripted = false;   ///< Crash from FaultConfig::scripted_node_crashes.
  int shuffle_epoch = 0;   ///< kShuffleDone staleness check.
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Everything one task's data flow produces. Filled by Execute, then
/// committed into the RunningJob in deterministic launch order — the data
/// flow never touches shared job state.
/// counters.map_input_bytes is the row-encoded size scanned, so statistics
/// are format-independent.
struct TaskOutcome : TaskStaged {
  Status status;
  /// Bytes of input read: the split (partial when the map attempt errored)
  /// or the reduce bucket.
  uint64_t input_bytes = 0;
  /// Columnar batches decoded by this attempt (scan.batches metric).
  uint64_t batches_decoded = 0;
  double cpu_units = 0.0;  ///< Excludes observer charges (added at commit).
  bool poison_failure = false;  ///< The attempt died on a poison record.
};

/// One reducer's memory plan (DESIGN.md §6.10), computed from its
/// partition bytes both by the shuffle's OutOfMemory check and at launch.
struct MemoryPlan {
  /// Simulated sort/hash state: the bucket's bytes scaled by
  /// reduce_memory_factor.
  double state = 0.0;
  /// Memory the task holds: the whole state when in memory, the task
  /// budget when spilling. Feeds JobResult::peak_task_memory_bytes.
  uint64_t task_memory_bytes = 0;
  /// > 1 when the task sorts externally in that many runs, merged in
  /// `merge_passes` bounded-memory passes.
  int spill_runs = 0;
  int merge_passes = 0;
  /// The job cannot run this reducer: over budget in strict mode, or
  /// needing more than max_spill_runs runs in spill mode.
  bool oom = false;
};

/// One launched task: the inputs decided by the scheduler plus the outcome
/// its data flow produced.
struct TaskLaunch {
  RunningJob* job = nullptr;
  TaskKind kind = kMapTask;
  int task_id = 0;
  MapTaskRef map_ref{0, 0};
  const Split* split = nullptr;  ///< Input split (map tasks).
  int task_index = 0;
  SimMillis setup_ms = 0;  ///< Side-data load charge, decided at launch.
  std::vector<Emission> bucket;  ///< Reduce input.
  /// Node the attempt was placed on (always >= 0 once launched).
  int node = 0;
  /// Fault draws, decided at launch. An attempt marked `inject_failure`
  /// never runs its data flow (the simulated container dies `fail_fraction`
  /// of the way through); `slowdown` > 1 stretches the attempt's simulated
  /// duration. `crash_node` schedules a crash of the hosting node
  /// `crash_fraction` of the way through the attempt (the commit computes
  /// the absolute time once the duration is known).
  bool inject_failure = false;
  double fail_fraction = 0.0;
  double slowdown = 1.0;
  bool crash_node = false;
  double crash_fraction = 0.0;
  /// Data-integrity draws (also decided at launch).
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
  /// Reduce-memory plan, decided at launch; the commit bills a spill's pass
  /// I/O from `bucket_bytes`. `corrupt_spill` (drawn like the other
  /// corruption faults) makes run 0 read back corrupt, failing the attempt
  /// with DataLoss.
  MemoryPlan memory;
  /// Encoded bytes of the partition bucket (its `partition_bytes` total);
  /// every byte figure of a reduce attempt is billed from it.
  uint64_t bucket_bytes = 0;
  bool corrupt_spill = false;
  TaskOutcome outcome;

  bool is_map() const { return kind == kMapTask; }
};

/// The map and reduce context of one task: both buffer into the task's
/// own outcome (reduce functions never see Emit or task_index). Output
/// records are encoded into `output_buffer`, which the simulation reuses
/// from task to task; Finish() stages an exact-size copy of it.
class TaskContext : public MapContext, public ReduceContext {
 public:
  TaskContext(TaskOutcome* out, int task_index, std::string* output_buffer)
      : out_(out), task_index_(task_index), output_buffer_(output_buffer) {
    output_buffer_->clear();
  }

  void EmitEncoded(Value key, std::string payload) override {
    size_t bytes = key.EncodedSize() + payload.size();
    out_->counters.map_output_records += 1;
    out_->counters.map_output_bytes += bytes;
    out_->emissions.bytes.push_back(static_cast<uint32_t>(bytes));
    out_->emissions.pairs.emplace_back(std::move(key), std::move(payload));
  }

  std::string_view Encoding(const Value& value) override {
    if (&value == record_) return record_bytes_;
    // Encoded into a reused buffer, so a staged payload is one exact-size
    // copy rather than a string grown append by append.
    encode_buffer_.clear();
    value.EncodeTo(&encode_buffer_);
    return encode_buffer_;
  }

  /// Names the row-split record being mapped and the bytes it was read
  /// from; null while no such record is (columnar rows, flush hooks).
  void Mapping(const Value* record, std::string_view bytes) {
    record_ = record;
    record_bytes_ = bytes;
  }

  void Output(Value record) override {
    record.EncodeTo(output_buffer_);
    out_->output.num_records += 1;
    out_->counters.output_records += 1;
  }

  void ChargeCpu(double units) override { extra_cpu_ += units; }

  int task_index() const override { return task_index_; }

  /// Ends a data flow that succeeded: bills the CPU its functions charged
  /// and stages the output payload and the emissions at their exact size.
  void Finish() {
    out_->cpu_units += extra_cpu_;
    out_->output.data = std::string(*output_buffer_);
    out_->emissions.ShrinkToFit();
  }

 private:
  TaskOutcome* out_;
  int task_index_;
  std::string* output_buffer_;
  std::string encode_buffer_;  ///< Encoding's scratch encoding of a value.
  const Value* record_ = nullptr;
  std::string_view record_bytes_;
  double extra_cpu_ = 0.0;
};

SimMillis CeilDiv(double amount, double rate) {
  if (amount <= 0.0) return 0;
  return static_cast<SimMillis>(std::ceil(amount / rate));
}

/// Runs one map task's data flow. Reads only the immutable spec/split and
/// writes only the task-local outcome; the map functions it calls mutate no
/// shared state.
void ExecuteMapTask(const MapInput& input, const Split& split,
                    int task_index, const std::vector<uint64_t>* poison,
                    bool skip_mode, std::string* output_buffer,
                    TaskOutcome* out) {
  // Verified read: the block checksum is checked before any record is
  // decoded (as HDFS does). At-rest corruption of the stored bytes
  // surfaces here as DataLoss, never as silently wrong rows.
  out->status = VerifySplit(split);
  if (!out->status.ok()) return;
  TaskContext ctx(out, task_index, output_buffer);

  // A columnar split's frame is opened whole: its own CRC and every value
  // are checked before any row is built, so a frame defect that slipped
  // past the block checksum is still DataLoss, never a wrong answer. Rows
  // are then built late, only where a record is mapped or quarantined.
  // Row splits stream record-at-a-time as they always have.
  const bool is_columnar = split.format == SplitFormat::kColumnar;
  std::optional<columnar::FrameRows> frame_rows;
  std::vector<uint8_t> batch_keep;
  if (is_columnar) {
    // The whole block was read to open it, so billing is all-or-nothing.
    out->input_bytes =
        input.bill_logical_read ? split.logical_bytes : split.num_bytes();
    out->counters.map_input_bytes = split.logical_bytes;
    Result<columnar::FrameReader> frame = OpenColumnarFrame(split);
    if (!frame.ok()) {
      out->status = frame.status();
      return;
    }
    out->batches_decoded += 1;
    frame_rows.emplace(std::move(*frame));
    // A pushed-down filter runs batch-at-a-time over the frame: the
    // selection vector is computed up front (vectorized conjuncts at a CPU
    // discount) and consulted per row below. The keep bits are identical
    // to row-at-a-time evaluation, so results never depend on the format.
    if (input.scan_filter != nullptr) {
      Result<columnar::BatchFilterResult> filtered =
          columnar::EvalFilterOverFrame(input.scan_filter, &*frame_rows);
      if (!filtered.ok()) {
        out->status = filtered.status();
        return;
      }
      out->cpu_units += filtered->cpu_units;
      batch_keep = std::move(filtered->keep);
    }
  }

  SplitReader reader(&split);
  size_t record_start = 0;
  size_t poison_next = 0;
  for (uint64_t record_index = 0;; ++record_index) {
    Value record;
    if (is_columnar) {
      if (record_index >= frame_rows->size()) break;
    } else {
      if (reader.AtEnd()) break;
      record_start = reader.offset();
      Result<Value> next = reader.Next();
      if (!next.ok()) {
        out->status = next.status();
        return;
      }
      record = std::move(*next);
      // Accumulated per record so an attempt that errors mid-split still
      // reports how much of the split it actually scanned (billed as read
      // time for the failed attempt).
      out->input_bytes = reader.offset();
      out->counters.map_input_bytes = reader.offset();
    }
    out->counters.map_input_records += 1;
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
      // map function; it goes to the quarantine instead of any output. Its
      // columnar row is built even when the pushed filter drops it.
      out->cpu_units += 1.0;
      if (is_columnar) record = frame_rows->Take(record_index);
      record.EncodeTo(&out->quarantine.data);
      out->quarantine.num_records += 1;
      out->quarantine_indexes.push_back(record_index);
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
        Result<Value> v = input.scan_filter->Eval(record);
        if (!v.ok()) {
          out->status = v.status();
          return;
        }
        pass = v->type() == Value::Type::kBool && v->bool_value();
      }
      out->cpu_units += 1.0;
      if (!pass) continue;
      out->cpu_units += input.cpu_per_record;
    } else {
      out->cpu_units += 1.0 + input.cpu_per_record;
    }
    if (is_columnar) {
      record = frame_rows->Take(record_index);
    } else {
      ctx.Mapping(&record, std::string_view(split.data).substr(
                               record_start, reader.offset() - record_start));
    }
    out->status = input.map_fn(record, &ctx);
    if (!out->status.ok()) return;
  }
  ctx.Mapping(nullptr, {});
  if (input.flush_fn) {
    out->status = input.flush_fn(&ctx);
    if (!out->status.ok()) return;
  }
  ctx.Finish();
}

/// Decodes one emission's payload, which must hold exactly one value. A
/// payload that does not is DataLoss: the reducer never skips a record.
Status DecodePayload(const std::string& payload, Value* value) {
  size_t offset = 0;
  Result<Value> decoded = Value::Decode(payload, &offset);
  if (!decoded.ok()) {
    return Status::DataLoss("shuffle payload does not decode: " +
                            decoded.status().ToString());
  }
  if (offset != payload.size()) {
    return Status::DataLoss(StrFormat(
        "shuffle payload holds %zu bytes past its value",
        payload.size() - offset));
  }
  *value = std::move(*decoded);
  return Status::OK();
}

/// Runs one reduce task's data flow over its (moved-in) partition bucket,
/// whose encoded size the launch already knows (`bucket_bytes`). Each key
/// group's payloads are decoded into the values handed to the reduce
/// function.
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
                       std::vector<Emission> bucket,
                       uint64_t bucket_bytes, int spill_runs,
                       bool corrupt_spill, std::string* output_buffer,
                       TaskOutcome* out) {
  out->input_bytes = bucket_bytes;
  out->counters.reduce_input_records = bucket.size();
  auto key_less = [](const Emission& a, const Emission& b) {
    return a.first.Compare(b.first) < 0;
  };
  if (spill_runs > 1 && !bucket.empty()) {
    const size_t n = bucket.size();
    const size_t per_run =
        (n + static_cast<size_t>(spill_runs) - 1) /
        static_cast<size_t>(spill_runs);
    std::vector<std::vector<Emission>> decoded;
    for (size_t start = 0; start < n; start += per_run) {
      const size_t end = std::min(n, start + per_run);
      std::vector<Emission> run(
          std::make_move_iterator(bucket.begin() + start),
          std::make_move_iterator(bucket.begin() + end));
      std::stable_sort(run.begin(), run.end(), key_less);
      out->spill_runs.push_back(EncodeSpillRun(run));
    }
    if (corrupt_spill) {
      Split bad = out->spill_runs.front();
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
    for (const Split& s : out->spill_runs) {
      Result<std::vector<Emission>> run = DecodeSpillRun(s);
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

  TaskContext ctx(out, /*task_index=*/0, output_buffer);
  out->cpu_units += static_cast<double>(bucket.size());
  size_t i = 0;
  while (i < bucket.size()) {
    size_t j = i + 1;
    while (j < bucket.size() &&
           bucket[j].first.Compare(bucket[i].first) == 0) {
      ++j;
    }
    std::vector<Value> values(j - i);
    for (size_t k = i; k < j; ++k) {
      out->status = DecodePayload(bucket[k].second, &values[k - i]);
      if (!out->status.ok()) return;
    }
    out->status = spec.reduce_fn(bucket[i].first, values, &ctx);
    if (!out->status.ok()) return;
    i = j;
  }
  ctx.Finish();

  // n log n sort charge for the merge-sort of this partition.
  if (!bucket.empty()) {
    out->cpu_units += static_cast<double>(bucket.size()) *
                      std::log2(static_cast<double>(bucket.size()) + 1.0);
  }
}

}  // namespace

Split EncodeSpillRun(const std::vector<Emission>& pairs) {
  Split run;
  for (const auto& [key, payload] : pairs) {
    key.EncodeTo(&run.data);
    run.data += payload;
  }
  run.data.shrink_to_fit();
  run.num_records = 2 * pairs.size();
  run.logical_bytes = run.data.size();
  run.crc32c = Crc32c(run.data);
  return run;
}

Result<std::vector<Emission>> DecodeSpillRun(const Split& run) {
  DYNO_RETURN_IF_ERROR(VerifySplit(run));
  if (run.num_records % 2 != 0) {
    return Status::DataLoss(StrFormat(
        "spill run holds %llu records, not an even key/value count",
        (unsigned long long)run.num_records));
  }
  auto malformed = [](const Status& s) {
    return Status::DataLoss("spill run record does not decode: " +
                            s.ToString());
  };
  const std::string_view data = run.data;
  std::vector<Emission> pairs;
  pairs.reserve(run.num_records / 2);
  size_t offset = 0;
  while (offset < data.size()) {
    Result<Value> key = Value::Decode(data, &offset);
    if (!key.ok()) return malformed(key.status());
    if (offset >= data.size()) {
      return Status::DataLoss("spill run ends with a dangling key");
    }
    const size_t start = offset;
    Status payload = Value::Skip(data, &offset);
    if (!payload.ok()) return malformed(payload);
    pairs.emplace_back(std::move(*key),
                       std::string(data.substr(start, offset - start)));
  }
  if (2 * pairs.size() != run.num_records) {
    return Status::DataLoss(StrFormat(
        "spill run decoded %zu pairs, expected %llu", pairs.size(),
        (unsigned long long)(run.num_records / 2)));
  }
  return pairs;
}

void DealPartitions(const std::vector<MapEmissions*>& maps,
                    const std::vector<bool>& skip, bool keep,
                    std::vector<std::vector<Emission>>* partitions,
                    std::vector<uint64_t>* partition_bytes) {
  const size_t n = partitions->size();
  size_t total = 0;
  for (const MapEmissions* m : maps) total += m->pairs.size();
  // First pass: each emission's partition, hashed once, and each
  // partition's final length.
  std::vector<uint32_t> dealt;
  dealt.reserve(total);
  std::vector<size_t> lengths(n, 0);
  for (const MapEmissions* m : maps) {
    for (const Emission& kv : m->pairs) {
      const size_t p = kv.first.Hash() % n;
      dealt.push_back(static_cast<uint32_t>(p));
      if (!skip[p]) ++lengths[p];
    }
  }
  for (size_t p = 0; p < n; ++p) (*partitions)[p].reserve(lengths[p]);
  size_t next = 0;
  for (MapEmissions* m : maps) {
    for (size_t i = 0; i < m->pairs.size(); ++i) {
      const size_t p = dealt[next++];
      if (skip[p]) continue;
      (*partition_bytes)[p] += m->bytes[i];
      if (keep) {
        (*partitions)[p].push_back(m->pairs[i]);
      } else {
        (*partitions)[p].push_back(std::move(m->pairs[i]));
      }
    }
    if (!keep) *m = MapEmissions{};
  }
}

ClusterConfig MapReduceEngine::ResolveFaultEnv(ClusterConfig config) {
  FaultConfig& faults = config.faults;
  if (faults.use_env_defaults && !faults.enabled()) {
    ReadKnob(Knob::DYNO_FAULT_SEED, &faults.seed);
    ReadKnob(Knob::DYNO_TASK_FAILURE_RATE, &faults.task_failure_rate);
    ReadKnob(Knob::DYNO_STRAGGLER_RATE, &faults.straggler_rate);
    ReadKnob(Knob::DYNO_MAX_TASK_ATTEMPTS, &faults.max_task_attempts);
    ReadKnob(Knob::DYNO_NODE_FAILURE_RATE, &faults.node_failure_rate);
    ReadKnob(Knob::DYNO_NODE_RECOVERY_MS, &faults.node_recovery_ms);
    ReadKnob(Knob::DYNO_BLOCK_CORRUPTION_RATE, &faults.block_corruption_rate);
    ReadKnob(Knob::DYNO_SHUFFLE_CORRUPTION_RATE,
             &faults.shuffle_corruption_rate);
    ReadKnob(Knob::DYNO_POISON_RECORD_RATE, &faults.poison_record_rate);
    ReadKnob(Knob::DYNO_MAX_SKIPPED_RECORDS, &faults.max_skipped_records);
  }
  // The memory knobs ride the same gate, and apply while the mode is still
  // kUnbounded: DYNO_TASK_MEMORY_BYTES then replaces even a code-set budget.
  if (faults.use_env_defaults &&
      config.reduce_memory_mode == ClusterConfig::ReduceMemoryMode::kUnbounded) {
    ReadKnob(Knob::DYNO_TASK_MEMORY_BYTES, &config.memory_per_task_bytes);
    ReadKnob(Knob::DYNO_SPILL, &config.reduce_memory_mode);
  }
  return config;
}

MapReduceEngine::MapReduceEngine(Dfs* dfs, ClusterConfig config)
    : dfs_(dfs), config_(ResolveFaultEnv(std::move(config))) {
  node_states_.assign(std::max(1, config_.num_nodes), NodeState{});
}

Result<JobResult> MapReduceEngine::Submit(const JobSpec& spec) {
  DYNO_ASSIGN_OR_RETURN(std::vector<JobResult> results, SubmitAll({spec}));
  return results[0];
}

Result<std::vector<JobResult>> MapReduceEngine::SubmitAll(
    const std::vector<JobSpec>& specs) {
  if (submit_gate_) return submit_gate_(specs);
  return SubmitAllDirect(specs);
}

/// One SubmitAllDirect batch: the discrete-event simulation of its jobs on
/// the engine's cluster. Built per call and run once; the engine's clock,
/// node liveness and slot accounting are updated in place. Map and reduce
/// tasks share one lifecycle — launch, commit, completion, retry,
/// speculation, node-crash kill — over per-kind state indexed by TaskKind;
/// only their data flow and the phase transitions differ.
class MapReduceEngine::Simulation {
 public:
  Simulation(MapReduceEngine* engine, const std::vector<JobSpec>& specs)
      : engine_(engine),
        specs_(specs),
        config_(engine->config_),
        now_(engine->now_),
        node_states_(engine->node_states_),
        dfs_(engine->dfs_),
        trace_(engine->trace_),
        metrics_(engine->metrics_),
        wave_start_ms_(engine->now_),
        busy_before_ms_(engine->busy_slot_ms_total_),
        retries_enabled_(config_.faults.enabled()),
        max_attempts_(std::max(1, config_.faults.max_task_attempts)),
        num_nodes_(static_cast<int>(node_states_.size())),
        total_slots_{config_.map_slots, config_.reduce_slots} {}

  Result<std::vector<JobResult>> Run() {
    RegisterMetrics();
    DYNO_RETURN_IF_ERROR(StartJobs());
    if (trace_ != nullptr) {
      for (const RunningJob& job : jobs_) {
        obs::TraceEvent ev =
            obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                            "job_submit")
                .Arg("job", job.spec->name)
                .ArgInt("map_tasks", (int64_t)job.map_defs.size())
                .ArgBool("map_only", job.spec->reduce_fn == nullptr);
        // The query tag is appended last and only for query-scoped jobs, so
        // legacy (empty query_id) traces keep their exact historical bytes.
        if (!job.spec->query_id.empty()) {
          std::move(ev).Arg("query", job.spec->query_id);
        }
        trace_->Record(std::move(ev));
      }
    }

    for (RunningJob& job : jobs_) {
      events_.push(
          {job.ready_time, seq_++, EventKind::kJobReady, job.job_index});
    }
    ProvisionNodes();

    while (unfinished_ > 0) {
      Schedule();
      if (events_.empty()) {
        if (unfinished_ > 0) {
          return Status::Internal(
              "scheduler deadlock: jobs pending, no events");
        }
        break;  // The pass itself finished the last job.
      }
      Event ev = events_.top();
      events_.pop();
      now_ = std::max(now_, ev.time);
      HandleEvent(ev);
      // Drain every event at this same timestamp before rescheduling, so
      // all slots freed at one simulated instant are refilled as a single
      // wave.
      while (!events_.empty() && events_.top().time <= now_) {
        Event next = events_.top();
        events_.pop();
        HandleEvent(next);
      }
    }

    const SimMillis wave_elapsed_ms = now_ - wave_start_ms_;
    const int total_slots =
        std::max(1, config_.map_slots) + std::max(0, config_.reduce_slots);
    if (wave_elapsed_ms > 0) {
      double pressure =
          static_cast<double>(engine_->busy_slot_ms_total_ - busy_before_ms_) /
          (static_cast<double>(wave_elapsed_ms) *
           static_cast<double>(total_slots));
      engine_->last_wave_pressure_ = std::clamp(pressure, 0.0, 1.0);
    }

    std::vector<JobResult> results;
    results.reserve(jobs_.size());
    for (RunningJob& job : jobs_) {
      job.result.output = job.output;
      results.push_back(std::move(job.result));
    }
    return results;
  }

 private:
  // Cache instrument pointers once per submission; the hot paths then pay
  // only an add per update, no name lookup.
  void RegisterMetrics() {
    if (metrics_ == nullptr) return;
    m_jobs_ = metrics_->GetCounter("mr.jobs");
    m_attempts_[kMapTask] = metrics_->GetCounter("mr.map_attempts");
    m_attempts_[kReduceTask] = metrics_->GetCounter("mr.reduce_attempts");
    m_retries_ = metrics_->GetCounter("mr.task_retries");
    m_injected_ = metrics_->GetCounter("mr.task_failures_injected");
    m_spec_launches_ = metrics_->GetCounter("mr.speculative_launches");
    m_spec_wins_ = metrics_->GetCounter("mr.speculative_wins");
    m_node_crashes_ = metrics_->GetCounter("mr.node_crashes");
    m_node_recoveries_ = metrics_->GetCounter("mr.node_recoveries");
    m_node_kills_ = metrics_->GetCounter("mr.node_attempt_kills");
    m_maps_invalidated_ = metrics_->GetCounter("mr.maps_invalidated");
    m_shuffle_retries_ = metrics_->GetCounter("mr.shuffle_fetch_retries");
    m_block_corruptions_ =
        metrics_->GetCounter("mr.integrity_block_corruptions");
    m_checksum_refetches_ =
        metrics_->GetCounter("mr.integrity_shuffle_refetches");
    m_quarantined_ = metrics_->GetCounter("mr.integrity_records_quarantined");
    m_integrity_failures_ =
        metrics_->GetCounter("mr.integrity_data_loss_failures");
    h_attempt_ms_[kMapTask] = metrics_->GetHistogram("mr.map_attempt_ms");
    h_attempt_ms_[kReduceTask] = metrics_->GetHistogram("mr.reduce_attempt_ms");
    h_job_ms_ = metrics_->GetHistogram("mr.job_ms");
  }

  /// Validates every spec and initializes its job state, then creates the
  /// job outputs. Nothing is created until the whole batch has validated,
  /// and a failed Create removes the outputs made before it, so a rejected
  /// batch leaves the DFS as it found it.
  Status StartJobs() {
    std::set<std::string> output_paths;
    jobs_.resize(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i) {
      const JobSpec& spec = specs_[i];
      if (spec.inputs.empty()) {
        return Status::InvalidArgument("job has no inputs: " + spec.name);
      }
      if (spec.output_path.empty()) {
        return Status::InvalidArgument("job has no output path: " +
                                       spec.name);
      }
      if (!output_paths.insert(spec.output_path).second) {
        return Status::InvalidArgument("two jobs in one batch write " +
                                       spec.output_path);
      }
      if (spec.reduce_memory_mode < -1 || spec.reduce_memory_mode > 2) {
        return Status::InvalidArgument(
            StrFormat("bad reduce_memory_mode %d in %s",
                      spec.reduce_memory_mode, spec.name.c_str()));
      }
      RunningJob& job = jobs_[i];
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
            job.map_defs.push_back(
                {static_cast<int>(in), static_cast<int>(s)});
          }
        } else {
          for (int s : input.split_indexes) {
            if (s < 0 ||
                static_cast<size_t>(s) >= input.file->splits().size()) {
              return Status::InvalidArgument(
                  StrFormat("split index %d out of range in %s", s,
                            spec.name.c_str()));
            }
            job.map_defs.push_back({static_cast<int>(in), s});
          }
        }
      }
      PhaseTasks& maps = job.tasks[kMapTask];
      maps.Open(job.map_defs.size());
      for (size_t t = 0; t < job.map_defs.size(); ++t) {
        maps.pending.push_back({static_cast<int>(t), 0});
      }
      if (retries_enabled_) {
        // Per-job fault stream. Jobs are identified by name for legacy
        // submissions; when a query id is present it salts the seed so two
        // concurrent queries submitting identically-named jobs (e.g.
        // "scan") draw independent faults instead of sharing one stream.
        uint64_t fault_seed =
            HashBytes(spec.name, Mix64(config_.faults.seed));
        if (!spec.query_id.empty()) {
          fault_seed = HashBytes(spec.query_id, fault_seed);
        }
        job.fault_rng.emplace(fault_seed);
      }
    }
    for (RunningJob& job : jobs_) {
      auto output = dfs_->Create(job.spec->output_path);
      if (!output.ok()) {
        for (RunningJob& created : jobs_) {
          if (created.output == nullptr) break;
          dfs_->Delete(created.spec->output_path).ok();
        }
        return output.status();
      }
      job.output = *output;
    }
    unfinished_ = static_cast<int>(jobs_.size());
    return Status::OK();
  }

  /// Slots of one kind on one node: the cluster total divided evenly across
  /// nodes, remainder to the low ids. Total capacity is exactly
  /// map_slots/reduce_slots, so with every node alive scheduling behaves as
  /// a flat slot pool.
  int Capacity(TaskKind kind, int node) const {
    const int total = total_slots_[kind];
    return total / num_nodes_ + (node < total % num_nodes_ ? 1 : 0);
  }

  /// Node fault domains: slots live on nodes. Nodes whose recovery time
  /// passed while the engine was idle rejoin now; still-pending recoveries
  /// re-enter the event queue (it does not persist across submissions).
  void ProvisionNodes() {
    for (std::vector<int>& free : free_) free.assign(num_nodes_, 0);
    for (int n = 0; n < num_nodes_; ++n) {
      NodeState& ns = node_states_[n];
      if (!ns.alive && ns.recover_at >= 0 && ns.recover_at <= now_) {
        ns.alive = true;
      }
      if (!ns.alive && ns.recover_at > now_) {
        Event ev{ns.recover_at, seq_++, EventKind::kNodeRecover, -1};
        ev.node = n;
        events_.push(ev);
      }
      if (ns.alive) {
        for (TaskKind kind : kTaskKinds) free_[kind][n] = Capacity(kind, n);
      }
    }
    // Scripted crashes that have not fired yet (test/chaos hook); re-pushed
    // every submission until they fire, consumed exactly once.
    for (size_t c = engine_->scripted_crashes_consumed_;
         c < config_.faults.scripted_node_crashes.size(); ++c) {
      const auto& script = config_.faults.scripted_node_crashes[c];
      Event ev{std::max(script.at_ms, now_), seq_++, EventKind::kNodeCrash,
               -1};
      ev.node = script.node;
      ev.scripted = true;
      events_.push(ev);
    }
  }

  int FreeSlots(TaskKind kind) const {
    int total = 0;
    for (int f : free_[kind]) total += f;
    return total;
  }

  int AliveNodes() const {
    return static_cast<int>(std::count_if(
        node_states_.begin(), node_states_.end(),
        [](const NodeState& ns) { return ns.alive; }));
  }

  /// Picks the alive node with the most free slots of the kind (lowest id
  /// wins ties); prefers any node other than `exclude` (a backup attempt
  /// should not land next to its primary). Returns -1 if nothing is free.
  int PickNode(TaskKind kind, int exclude) const {
    const std::vector<int>& free = free_[kind];
    int best = -1;
    for (int n = 0; n < num_nodes_; ++n) {
      if (!node_states_[n].alive || free[n] <= 0 || n == exclude) continue;
      if (best < 0 || free[n] > free[best]) best = n;
    }
    if (best < 0 && exclude >= 0) {
      for (int n = 0; n < num_nodes_; ++n) {
        if (!node_states_[n].alive || free[n] <= 0) continue;
        if (best < 0 || free[n] > free[best]) best = n;
      }
    }
    return best;
  }

  /// Effective reduce-memory mode of one job: the per-job override wins,
  /// otherwise the cluster-wide knob applies (DESIGN.md §6.10).
  ClusterConfig::ReduceMemoryMode MemoryMode(const RunningJob& job) const {
    if (job.spec->reduce_memory_mode >= 0) {
      return static_cast<ClusterConfig::ReduceMemoryMode>(
          job.spec->reduce_memory_mode);
    }
    return config_.reduce_memory_mode;
  }

  /// Bumps a counter looked up at its use, so it is registered only once a
  /// run first hits it: runs that never decode a columnar batch, spill or
  /// OOM keep their exact metric registry (golden dumps predate these).
  void AddLazy(const char* name, uint64_t n = 1) {
    obs::Counter* c = metrics_ ? metrics_->GetCounter(name) : nullptr;
    if (c != nullptr) c->Add(n);
  }

  /// Closes a job on success or failure: marks it done, deletes its spill
  /// files (scratch between a spilling reduce task's durable completion and
  /// the end of its job), counts it, and closes its observability record —
  /// the per-phase totals into its JobResult, the whole-job span, and the
  /// job-level counters/latency.
  void EndJob(RunningJob* job) {
    job->phase = JobPhase::kDone;
    job->result.finish_time_ms = now_;
    for (const std::string& p : job->spill_paths) dfs_->Delete(p).ok();
    job->spill_paths.clear();
    --unfinished_;
    job->result.map_tasks_run =
        static_cast<int>(job->tasks[kMapTask].completed_ms.size());
    job->result.reduce_tasks_run =
        static_cast<int>(job->tasks[kReduceTask].completed_ms.size());
    job->result.map_slot_ms = job->tasks[kMapTask].slot_ms;
    job->result.reduce_slot_ms = job->tasks[kReduceTask].slot_ms;
    SimMillis elapsed = now_ - job->result.submit_time_ms;
    if (h_job_ms_ != nullptr) h_job_ms_->Observe(elapsed);
    if (m_jobs_ != nullptr) m_jobs_->Add();
    const SimMillis slot_ms =
        job->result.map_slot_ms + job->result.reduce_slot_ms;
    if (!job->spec->query_id.empty()) {
      engine_->query_slot_ms_[job->spec->query_id] += slot_ms;
    }
    engine_->busy_slot_ms_total_ += slot_ms;
    if (trace_ == nullptr) return;
    obs::TraceEvent ev =
        obs::TraceEvent(job->result.submit_time_ms, elapsed,
                        obs::TraceLane::kEngine, "mr", "job")
            .Arg("job", job->spec->name)
            .ArgBool("ok", job->result.status.ok())
            .ArgInt("map_tasks_run", job->result.map_tasks_run)
            .ArgInt("map_tasks_skipped", job->result.map_tasks_skipped)
            .ArgInt("reduce_tasks_run", job->result.reduce_tasks_run)
            .ArgInt("retries", job->result.task_retries)
            .ArgInt("failures_injected", job->result.task_failures_injected)
            .ArgInt("speculative_launches", job->result.speculative_launches)
            .ArgInt("speculative_wins", job->result.speculative_wins)
            .ArgInt("node_attempt_kills", job->result.attempts_killed_by_node)
            .ArgInt("maps_invalidated", job->result.maps_invalidated)
            .ArgInt("shuffle_fetch_retries",
                    job->result.shuffle_fetch_retries)
            .ArgInt("block_corruptions", job->result.block_corruptions)
            .ArgInt("checksum_refetches", job->result.checksum_refetches)
            .ArgInt("records_quarantined",
                    (int64_t)job->result.records_quarantined)
            .ArgInt("output_records",
                    (int64_t)job->result.counters.output_records);
    // Memory args only under an active memory mode, so knob-off traces
    // keep their exact historical bytes (golden traces predate them).
    if (MemoryMode(*job) != ClusterConfig::ReduceMemoryMode::kUnbounded) {
      std::move(ev)
          .ArgInt("reduce_spills", job->result.reduce_spills)
          .ArgInt("spill_runs", job->result.spill_runs)
          .ArgInt("spill_bytes_written",
                  (int64_t)job->result.spill_bytes_written)
          .ArgInt("peak_task_memory",
                  (int64_t)job->result.peak_task_memory_bytes);
    }
    if (!job->spec->query_id.empty()) {
      std::move(ev).Arg("query", job->spec->query_id);
    }
    trace_->Record(std::move(ev));
  }

  /// Tears down a failed job once its last in-flight attempt has drained
  /// (or immediately when none are in flight). The single home for the
  /// failure teardown: FailJob, the completion handler and the node-crash
  /// handler all end here.
  void DrainFailedJob(RunningJob* job) {
    if (!job->failed || job->phase == JobPhase::kDone) return;
    for (const PhaseTasks& pt : job->tasks) {
      if (pt.active != 0) return;
    }
    dfs_->Delete(job->spec->output_path).ok();
    job->output = nullptr;
    EndJob(job);
  }

  void FailJob(RunningJob* job, Status status) {
    job->failed = true;
    job->result.status = std::move(status);
    for (PhaseTasks& pt : job->tasks) pt.pending.clear();
    DrainFailedJob(job);
  }

  void FinishJob(RunningJob* job) {
    // Assemble counters and output splits from the per-task staged data in
    // task-id / partition order — the exact order a fault-free run commits
    // in — so job outputs stay byte-identical even when node crashes forced
    // out-of-order re-execution of some tasks. Map outputs of a map-reduce
    // job went to the shuffle, not to the job output.
    const bool map_only = job->spec->reduce_fn == nullptr;
    Counters& totals = job->result.counters;
    std::vector<Split> quarantine_splits;
    for (TaskKind kind : kTaskKinds) {
      for (TaskData& d : job->tasks[kind].data) {
        if (!d.valid) continue;
        totals.MergeFrom(d.counters);
        if (d.output.num_records > 0 && (kind == kReduceTask || map_only)) {
          totals.output_bytes += d.output.num_bytes();
          job->output->AppendSplit(std::move(d.output));
        }
        if (d.quarantine.num_records > 0) {
          quarantine_splits.push_back(std::move(d.quarantine));
        }
        d = TaskData{};
      }
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
    job->result.observer_overhead_ms = static_cast<SimMillis>(
        std::ceil(job->observer_cpu_units / config_.cpu_units_per_ms));
    if (trace_ != nullptr && job->spec->reduce_fn) {
      trace_->Record(obs::TraceEvent(job->reduce_start,
                                     now_ - job->reduce_start,
                                     obs::TraceLane::kEngine, "mr",
                                     "reduce_phase")
                         .Arg("job", job->spec->name)
                         .ArgInt("reduce_tasks",
                                 job->result.reduce_tasks_planned));
    }
    EndJob(job);
  }

  /// Charges for loading broadcast side data, honoring the distributed-
  /// cache mode (first `num_nodes` tasks pay; later waves find it cached
  /// locally).
  SimMillis SideLoadMs(const RunningJob& job) const {
    uint64_t bytes = job.spec->side_load_bytes;
    if (bytes == 0) return 0;
    if (job.spec->side_data_via_distributed_cache &&
        job.map_seq >= config_.num_nodes) {
      return 0;
    }
    return CeilDiv(static_cast<double>(bytes),
                   config_.side_load_bytes_per_ms);
  }

  /// Launch-time fault draws from the job's own stream — the order of draws
  /// depends only on the (deterministic) launch order.
  void DrawFaults(RunningJob* job, TaskLaunch* launch) {
    if (!job->fault_rng.has_value()) return;
    const FaultConfig& f = config_.faults;
    Rng& rng = *job->fault_rng;
    if (f.task_failure_rate > 0.0 && rng.Bernoulli(f.task_failure_rate)) {
      launch->inject_failure = true;
      // The container dies somewhere in the latter 75% of the attempt.
      launch->fail_fraction = 0.25 + 0.75 * rng.NextDouble();
    }
    launch->slowdown = DrawSlowdown(rng);
    if (f.node_failure_rate > 0.0 && rng.Bernoulli(f.node_failure_rate)) {
      // The hosting node dies somewhere during this attempt; the absolute
      // crash time is computed at commit, once the duration is known.
      launch->crash_node = true;
      launch->crash_fraction = rng.NextDouble();
    }
    // --- Data-integrity draws (consume stream draws only when the
    // corruption knobs are on, so corruption-free runs keep the exact draw
    // sequence of earlier engine versions). ---
    TaskRunState& st = job->tasks[launch->kind].states[launch->task_id];
    const int max_fetches = 1 + std::max(0, f.max_shuffle_fetch_retries);
    if (launch->is_map()) {
      launch->replicas = std::max(
          1, job->spec->inputs[launch->map_ref.input_index].file->replicas());
      if (f.block_corruption_rate > 0.0) {
        // Sequential replica reads: each independently corrupt with the
        // configured rate; stop at the first clean copy.
        int bad = 0;
        while (bad < launch->replicas &&
               rng.Bernoulli(f.block_corruption_rate)) {
          ++bad;
        }
        launch->corrupt_replica_reads = bad;
      }
      if (f.poison_record_rate > 0.0 && !st.poison_drawn) {
        st.poison_drawn = true;
        for (uint64_t r = 0; r < launch->split->num_records; ++r) {
          if (rng.Bernoulli(f.poison_record_rate)) st.poison.push_back(r);
        }
      }
    } else if (f.shuffle_corruption_rate > 0.0 &&
               !job->partitions[launch->task_id].empty()) {
      int bad = 0;
      while (bad < max_fetches && rng.Bernoulli(f.shuffle_corruption_rate)) {
        ++bad;
      }
      launch->corrupt_fetches = bad;
    }
    // A spilling reduce attempt's run read-back can hit a flipped bit too.
    // The draw is consumed only when the attempt actually spills (possible
    // only with the memory mode on), so corruption campaigns without the
    // memory model keep their exact historical draw sequence.
    if (launch->memory.spill_runs > 1 && f.block_corruption_rate > 0.0 &&
        rng.Bernoulli(f.block_corruption_rate)) {
      launch->corrupt_spill = true;
    }
    // Scripted corruption (exact placement for tests, no draws consumed).
    for (const auto& sc : f.scripted_corruptions) {
      const bool is_block =
          sc.target == FaultConfig::ScriptedCorruption::Target::kBlock;
      if (is_block != launch->is_map() || sc.job != job->spec->name ||
          sc.task_id != launch->task_id || sc.attempt != st.failures + 1) {
        continue;
      }
      // An unscoped script matches any query (single-driver legacy); a
      // scoped one only hits the query it names.
      if (!sc.query.empty() && sc.query != job->spec->query_id) continue;
      if (launch->is_map()) {
        launch->corrupt_replica_reads =
            std::clamp(sc.count, 0, launch->replicas);
      } else if (sc.target ==
                 FaultConfig::ScriptedCorruption::Target::kSpill) {
        // Fires only when the attempt actually spills: an in-memory
        // attempt has no run files to corrupt.
        if (launch->memory.spill_runs > 1) launch->corrupt_spill = sc.count > 0;
      } else if (!job->partitions[launch->task_id].empty()) {
        launch->corrupt_fetches = std::clamp(sc.count, 0, max_fetches);
      }
    }
    if (launch->is_map() && launch->corrupt_replica_reads > 0 &&
        launch->corrupt_replica_reads >= launch->replicas) {
      launch->block_data_loss = true;
    }
    if (launch->corrupt_fetches > max_fetches - 1) {
      launch->shuffle_data_loss = true;
    }
  }

  /// The straggler draw of one attempt, primary or backup: its slowdown
  /// factor, 1 when it runs at full speed.
  double DrawSlowdown(Rng& rng) const {
    const FaultConfig& f = config_.faults;
    if (f.straggler_rate > 0.0 && rng.Bernoulli(f.straggler_rate)) {
      return std::max(1.0, f.straggler_slowdown);
    }
    return 1.0;
  }

  /// Capped + jittered exponential backoff before re-queueing a failed
  /// attempt (the legacy retry_backoff_ms * 2^n grew unbounded). The jitter
  /// is drawn from the job's fault stream, so it de-synchronizes concurrent
  /// retries while two runs of one configuration stay byte-identical.
  SimMillis RetryBackoff(RunningJob* job, int failures) {
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
  }

  /// Transition after the map phase drains: finish a map-only job, or build
  /// the reduce partitions and start the shuffle.
  void OnMapPhaseComplete(RunningJob* job) {
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(job->ready_time, now_ - job->ready_time,
                                     obs::TraceLane::kEngine, "mr",
                                     "map_phase")
                         .Arg("job", job->spec->name)
                         .ArgInt("tasks_run",
                                 (int64_t)job->tasks[kMapTask]
                                     .completed_ms.size())
                         .ArgInt("tasks_skipped",
                                 job->result.map_tasks_skipped));
    }
    if (!job->spec->reduce_fn) {
      FinishJob(job);
      return;
    }
    job->phase = JobPhase::kShuffle;
    PhaseTasks& reduces = job->tasks[kReduceTask];
    uint64_t total_emitted = 0;
    for (const TaskData& d : job->tasks[kMapTask].data) {
      if (d.valid) total_emitted += d.counters.map_output_bytes;
    }
    if (reduces.states.empty()) {
      // First shuffle: fix the reducer count for the job's lifetime (a
      // re-shuffle after a node crash must not re-deal the keys).
      int reducers = job->spec->num_reduce_tasks;
      if (reducers <= 0) {
        reducers = static_cast<int>(
            total_emitted / config_.bytes_per_reduce_task + 1);
        reducers = std::clamp(reducers, 1, config_.reduce_slots);
      }
      job->result.reduce_tasks_planned = reducers;
      reduces.Open(reducers);
    }
    const int reducers = static_cast<int>(reduces.states.size());
    // (Re)build the partition buckets of not-yet-completed reducers from
    // the staged emissions in task-id order — the same order a fault-free
    // run's commits feed the shuffle, so reducer input (and thus output)
    // bytes are identical whether or not maps were re-executed. Emissions
    // are retained per task while node crashes are possible, since a lost
    // node forces exactly this rebuild.
    std::vector<MapEmissions*> maps;
    for (TaskData& d : job->tasks[kMapTask].data) {
      if (d.valid) maps.push_back(&d.emissions);
    }
    std::vector<bool> completed(reducers);
    for (int p = 0; p < reducers; ++p) {
      completed[p] = reduces.states[p].completed;
    }
    job->partitions.assign(reducers, {});
    job->partition_bytes.assign(reducers, 0);
    DealPartitions(maps, completed, /*keep=*/config_.faults.node_faults(),
                   &job->partitions, &job->partition_bytes);
    // Memory check at shuffle start: the job fails with OutOfMemory as
    // soon as any reducer's plan does. In spill mode that residual OOM is
    // what the driver's doubled-reducer retry rung resolves.
    for (int p = 0; p < reducers; ++p) {
      if (reduces.states[p].completed) continue;
      const MemoryPlan plan = PlanMemory(*job, p);
      if (!plan.oom) continue;
      AddLazy("mr.memory_oom_failures");
      FailJob(job,
              Status::OutOfMemory(StrFormat(
                  "reduce task %d of %s needs %.0f bytes of sort state "
                  "(task memory %llu, %s mode)",
                  p, job->spec->name.c_str(), plan.state,
                  (unsigned long long)config_.memory_per_task_bytes,
                  MemoryMode(*job) == ClusterConfig::ReduceMemoryMode::kStrict
                      ? "strict"
                      : "spill")));
      return;
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
    Event done{now_ + shuffle_ms, seq_++, EventKind::kShuffleDone,
               job->job_index};
    done.shuffle_epoch = job->shuffle_epoch;
    events_.push(done);
  }

  /// Ends a drained phase: the map phase moves on to the shuffle (or
  /// finishes a map-only job), the reduce phase finishes the job. Returns
  /// whether the phase ended.
  bool EndPhaseIfDrained(RunningJob* job, TaskKind kind) {
    const PhaseTasks& pt = job->tasks[kind];
    const JobPhase phase =
        kind == kMapTask ? JobPhase::kMap : JobPhase::kReduce;
    if (job->failed || !pt.pending.empty() || pt.remaining != 0 ||
        job->phase != phase) {
      return false;
    }
    if (kind == kMapTask) {
      OnMapPhaseComplete(job);
    } else {
      FinishJob(job);
    }
    return true;
  }

  /// Applies a logical task's durable completion: replays its staged output
  /// records through the job's output observer (observers must be
  /// commutative across tasks, which the stats collectors are) and, for
  /// reduce tasks, releases the partition bucket retained for retries. Runs
  /// at *completion* rather than commit so an attempt killed by a node
  /// crash after committing never double-applies when the task re-runs.
  void ApplyDurableCompletion(RunningJob* job, TaskKind kind, int task_id) {
    TaskData& d = job->tasks[kind].data[task_id];
    // Quarantined records (map tasks only) become durable with the
    // completing task (even for map tasks of map-reduce jobs, whose
    // *output* stays volatile until job end); a node crash that invalidates
    // the task un-accounts them. They never reach the output or the
    // observer — excluded, not emitted.
    if (d.valid && d.quarantine.num_records > 0) {
      job->result.records_quarantined += d.quarantine.num_records;
      if (m_quarantined_ != nullptr) {
        m_quarantined_->Add(static_cast<int64_t>(d.quarantine.num_records));
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
          job->result.records_quarantined > static_cast<uint64_t>(budget)) {
        if (m_integrity_failures_ != nullptr) m_integrity_failures_->Add();
        FailJob(job,
                Status::DataLoss(StrFormat(
                    "job %s quarantined %llu records, over the "
                    "max_skipped_records budget of %d",
                    job->spec->name.c_str(),
                    (unsigned long long)job->result.records_quarantined,
                    budget)));
        return;
      }
    }
    if (kind == kMapTask && job->spec->reduce_fn) {
      return;  // Volatile until job end.
    }
    if (d.valid && job->spec->output_observer && d.output.num_records > 0) {
      SplitReader reader(&d.output);
      while (!reader.AtEnd()) {
        Result<Value> record = reader.Next();
        if (!record.ok()) break;  // Unreachable: we encoded these records.
        job->spec->output_observer(*record);
      }
    }
    if (d.valid) job->observer_cpu_units += d.observer_charge;
    if (kind == kMapTask) return;
    if (d.valid && !d.spill_runs.empty()) {
      // The winning attempt's spill runs become durable DFS scratch under a
      // sibling path of the job output; the path carries its own write
      // epoch, so spill files never perturb the table versioning of the
      // output itself. Removed at job end (EndJob).
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
    job->partitions[task_id].clear();
    job->partitions[task_id].shrink_to_fit();
  }

  /// Calls `fn(task_id, state)` for each in-flight primary of one phase of
  /// `job` that a backup could race: its data is committed, its task is
  /// not completed and not yet speculated. Walks in_flight_, so the cost is
  /// the attempts in flight, not the phase's tasks; the order is launch
  /// (seq) order, which after a retry is not task order.
  template <typename Fn>
  void ForEachSpeculationCandidate(const RunningJob& job, TaskKind kind,
                                   Fn fn) const {
    const PhaseTasks& pt = job.tasks[kind];
    for (const auto& [seq, a] : in_flight_) {
      if (a.job_index != job.job_index || a.task_kind != kind ||
          a.speculative) {
        continue;
      }
      const TaskRunState& st = pt.states[a.task_id];
      if (!st.primary_in_flight || st.completed || st.speculated ||
          !st.data_committed) {
        continue;
      }
      fn(a.task_id, st);
    }
  }

  /// Schedules a no-op wakeup at the earliest time an in-flight attempt of
  /// one phase of `job` crosses the speculation cutoff, so stragglers are
  /// re-examined even when no other event falls in between.
  void PushSpeculationWakeup(RunningJob* job, TaskKind kind) {
    if (!retries_enabled_ || !config_.faults.speculative_execution) return;
    const PhaseTasks& pt = job->tasks[kind];
    if (pt.active == 0 || pt.completed_ms.empty()) return;
    // MaybeSpeculate backs an attempt up once its elapsed time exceeds
    // threshold * median, that is first at floor(threshold * median) + 1.
    SimMillis cutoff = static_cast<SimMillis>(
        std::floor(config_.faults.speculative_slowness_threshold *
                   static_cast<double>(pt.completed_ms.Median())));
    SimMillis best = -1;
    ForEachSpeculationCandidate(*job, kind,
                                [&](int, const TaskRunState& st) {
      SimMillis fire = st.launch_time + cutoff + 1;
      if (fire <= now_ || fire >= st.expected_finish) return;
      if (best < 0 || fire < best) best = fire;
    });
    if (best >= 0) {
      events_.push({best, seq_++, EventKind::kWakeup, job->job_index});
    }
  }

  /// Commits one finished task attempt back into its job: simulated
  /// duration, per-task staged data (TaskData), in-flight registration and
  /// completion event. Runs in launch order.
  /// Nothing is merged into job-level counters or outputs here — that
  /// happens at completion/finish time — so an attempt later killed by a
  /// node crash leaves no residue in the job.
  void CommitTask(TaskLaunch& t) {
    RunningJob* job = t.job;
    TaskOutcome& o = t.outcome;
    PhaseTasks& pt = job->tasks[t.kind];
    TaskRunState& st = pt.states[t.task_id];
    const bool is_map = t.is_map();
    const bool already_failed = job->failed;
    const bool attempt_ok = !t.inject_failure && !t.block_data_loss &&
                            !t.shuffle_data_loss && o.status.ok();
    double cpu = o.cpu_units;
    // Observer CPU is billed to the attempt now (durations must not depend
    // on when the replay runs), but the replay itself happens at durable
    // completion (ApplyDurableCompletion), so a killed attempt never feeds
    // the observer.
    double obs_charge = 0.0;
    if (attempt_ok && !already_failed && job->spec->output_observer) {
      obs_charge = static_cast<double>(o.output.num_records) *
                   job->spec->observer_cpu_per_record;
      cpu += obs_charge;
    }
    // One full read of the attempt's input: the split's block for a map,
    // the partition bucket for a reduce. Pilot jobs bill block reads at the
    // split's logical size so their event timeline (and thus the sample the
    // stop count admits) is identical whichever physical format the
    // table was written in.
    const MapInput* map_input =
        is_map ? &job->spec->inputs[t.map_ref.input_index] : nullptr;
    uint64_t input_bytes = t.bucket_bytes;
    if (is_map) {
      input_bytes = map_input->bill_logical_read ? t.split->logical_bytes
                                                 : t.split->num_bytes();
    }
    const double read_rate = is_map ? config_.map_read_bytes_per_ms
                                    : config_.reduce_read_bytes_per_ms;
    const SimMillis full_read =
        CeilDiv(static_cast<double>(input_bytes), read_rate);
    SimMillis duration = 0;
    if (t.inject_failure) {
      // The attempt dies `fail_fraction` of the way through. Its data flow
      // never ran (a reduce bucket was left in place), so model the full
      // attempt from the input's size and record count, then bill the
      // completed fraction.
      double est_cpu;
      if (is_map) {
        est_cpu = static_cast<double>(t.split->num_records) *
                  (1.0 + map_input->cpu_per_record);
      } else {
        double n = static_cast<double>(job->partitions[t.task_id].size());
        est_cpu = n + n * std::log2(n + 1.0);
      }
      SimMillis full = t.setup_ms + full_read +
                       CeilDiv(est_cpu, config_.cpu_units_per_ms);
      duration = std::max<SimMillis>(
          1, static_cast<SimMillis>(
                 std::ceil(static_cast<double>(full) * t.fail_fraction)));
      ++job->result.task_failures_injected;
    } else if (t.block_data_loss || t.shuffle_data_loss) {
      // Every copy tried read back corrupt — each replica of the input
      // block, or the shuffle fetch and each allowed re-fetch — and each
      // was billed as one full read, verified against its checksum, with
      // nothing left to fall back to. A reduce bucket stays for the retry.
      const int reads = t.block_data_loss ? t.replicas : t.corrupt_fetches;
      duration = std::max<SimMillis>(
          1, t.setup_ms + static_cast<SimMillis>(reads) * full_read);
    } else {
      // An errored map attempt scanned only `input_bytes` of its split and
      // its partial spill is discarded, not written. Corrupt-but-healed
      // replica reads and shuffle re-fetches each bill one extra full read.
      uint64_t written_bytes = 0;
      if (o.status.ok()) {
        written_bytes = is_map && job->spec->reduce_fn
                            ? o.counters.map_output_bytes
                            : o.output.num_bytes();
      }
      const double write_rate = is_map ? config_.map_write_bytes_per_ms
                                       : config_.reduce_write_bytes_per_ms;
      duration =
          t.setup_ms +
          static_cast<SimMillis>(t.corrupt_replica_reads + t.corrupt_fetches) *
              full_read +
          CeilDiv(static_cast<double>(o.input_bytes), read_rate) +
          CeilDiv(cpu, config_.cpu_units_per_ms) +
          CeilDiv(static_cast<double>(written_bytes), write_rate);
      if (t.memory.spill_runs > 1) duration += BillSpill(t, st.failures + 1);
      if (!already_failed && o.status.ok()) {
        TaskData& d = pt.data[t.task_id];
        // A re-run of a task whose attempt a node crash killed replaces
        // that attempt's data, and its count.
        if (d.valid) job->committed_output_records -= d.output.num_records;
        static_cast<TaskStaged&>(d) = std::move(static_cast<TaskStaged&>(o));
        job->committed_output_records += d.output.num_records;
        d.valid = true;
        d.observer_charge = obs_charge;
        if (o.batches_decoded > 0) AddLazy("scan.batches", o.batches_decoded);
      }
    }
    job->result.peak_task_memory_bytes = std::max(
        job->result.peak_task_memory_bytes, t.memory.task_memory_bytes);
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
          "injected failure: %s task %d of %s, attempt %d", KindName(t.kind),
          t.task_id, job->spec->name.c_str(), st.failures + 1));
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
      if (m_block_corruptions_ != nullptr) {
        m_block_corruptions_->Add(t.corrupt_replica_reads);
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
      int refetches =
          std::min(t.corrupt_fetches,
                   std::max(0, config_.faults.max_shuffle_fetch_retries));
      job->result.checksum_refetches += refetches;
      job->result.shuffle_fetch_retries += refetches;
      if (m_checksum_refetches_ != nullptr && refetches > 0) {
        m_checksum_refetches_->Add(refetches);
      }
      if (m_shuffle_retries_ != nullptr && refetches > 0) {
        m_shuffle_retries_->Add(refetches);
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
    if (m_attempts_[t.kind] != nullptr) m_attempts_[t.kind]->Add();
    if (h_attempt_ms_[t.kind] != nullptr) {
      h_attempt_ms_[t.kind]->Observe(duration);
    }
    pt.slot_ms += duration;
    if (t.inject_failure && m_injected_ != nullptr) m_injected_->Add();
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, duration, obs::TraceLane::kTasks,
                                     "mr",
                                     is_map ? "map_attempt" : "reduce_attempt")
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
      Event crash{now_ + crash_after, seq_++, EventKind::kNodeCrash, -1};
      crash.node = t.node;
      events_.push(crash);
    }
    Event done{now_ + duration, seq_++, EventKind::kTaskDone, job->job_index};
    done.task_id = t.task_id;
    done.task_kind = t.kind;
    done.attempt_failed = !attempt_ok;
    done.poison_failure = o.poison_failure;
    done.attempt_duration = duration;
    done.node = t.node;
    in_flight_[done.seq] = done;
    events_.push(done);
    // Legacy fail-fast: with the fault model off, the first real task
    // error kills the whole job at commit time.
    if (!retries_enabled_ && !already_failed && !o.status.ok()) {
      FailJob(job, o.status);
    }
  }

  /// Bills a spilling reduce attempt's external-sort I/O and accounts the
  /// spill; returns the extra duration. Run formation writes the bucket
  /// once, each further merge pass re-reads and re-writes it, and the final
  /// pass re-reads it into the reduce stream — pass_bytes of writes and
  /// pass_bytes of reads in total. A corrupt run is discovered on the first
  /// read-back, so a DataLoss attempt bills one pass.
  SimMillis BillSpill(const TaskLaunch& t, int attempt) {
    JobResult& r = t.job->result;
    const bool ok = t.outcome.status.ok();
    const int passes = ok ? t.memory.merge_passes : 1;
    const double pass_bytes =
        static_cast<double>(t.bucket_bytes) * static_cast<double>(passes);
    r.reduce_spills += 1;
    r.spill_runs += t.memory.spill_runs;
    r.spill_merge_passes += passes;
    r.spill_bytes_written += static_cast<uint64_t>(pass_bytes);
    r.spill_bytes_read += static_cast<uint64_t>(pass_bytes);
    AddLazy("mr.memory_spilled_tasks");
    AddLazy("mr.memory_spill_bytes", 2 * static_cast<uint64_t>(pass_bytes));
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks, "mr",
                                     "task_spill")
                         .Arg("job", t.job->spec->name)
                         .ArgInt("task", t.task_id)
                         .ArgInt("attempt", attempt)
                         .ArgInt("runs", t.memory.spill_runs)
                         .ArgInt("merge_passes", passes)
                         .ArgInt("bytes", (int64_t)t.bucket_bytes)
                         .ArgBool("ok", ok));
    }
    return CeilDiv(pass_bytes, config_.reduce_write_bytes_per_ms) +
           CeilDiv(pass_bytes, config_.reduce_read_bytes_per_ms);
  }

  /// Launches a backup attempt for the slowest committed in-flight task of
  /// one phase, when the phase has idle slots, nothing launchable pending,
  /// and that task has been running `speculative_slowness_threshold` times
  /// longer than the phase's median completed duration. The backup runs no
  /// data flow — the primary's outcome is already committed — it is a pure
  /// timing race: whichever attempt's completion event fires first wins,
  /// and the loser still occupies its slot until its own finish time.
  void MaybeSpeculate(RunningJob& job, TaskKind kind) {
    if (!job.fault_rng.has_value()) return;
    PhaseTasks& pt = job.tasks[kind];
    if (pt.completed_ms.empty() || FreeSlots(kind) <= 0) return;
    for (const PendingTask& p : pt.pending) {
      if (p.not_before <= now_) return;  // Real work should use the slot.
    }
    double threshold = config_.faults.speculative_slowness_threshold *
                       static_cast<double>(pt.completed_ms.Median());
    // The longest-running candidate; among equals, the lowest task id.
    int slowest = -1;
    SimMillis slowest_elapsed = -1;
    ForEachSpeculationCandidate(job, kind,
                                [&](int task_id, const TaskRunState& st) {
      SimMillis elapsed = now_ - st.launch_time;
      if (static_cast<double>(elapsed) <= threshold) return;
      if (elapsed > slowest_elapsed ||
          (elapsed == slowest_elapsed && task_id < slowest)) {
        slowest_elapsed = elapsed;
        slowest = task_id;
      }
    });
    if (slowest < 0) return;
    TaskRunState& st = pt.states[slowest];
    // The backup re-runs the same attempt from scratch on another node
    // (never the primary's, when avoidable — the point of speculation under
    // node faults), with its own straggler draw on the unslowed duration.
    int bnode = PickNode(kind, /*exclude=*/st.node);
    if (bnode < 0) return;
    const double slowdown = DrawSlowdown(*job.fault_rng);
    SimMillis duration = std::max<SimMillis>(
        1, static_cast<SimMillis>(
               std::ceil(static_cast<double>(st.base_duration) * slowdown)));
    --free_[kind][bnode];
    ++pt.active;
    st.speculated = true;
    st.backup_in_flight = true;
    ++job.result.speculative_launches;
    if (m_spec_launches_ != nullptr) m_spec_launches_->Add();
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, duration, obs::TraceLane::kTasks,
                                     "mr", "speculative_attempt")
                         .Arg("job", job.spec->name)
                         .ArgInt("task", slowest)
                         .ArgBool("map", kind == kMapTask)
                         .ArgDouble("slowdown", slowdown));
    }
    Event done{now_ + duration, seq_++, EventKind::kTaskDone, job.job_index};
    done.task_id = slowest;
    done.task_kind = kind;
    done.speculative = true;
    done.attempt_duration = duration;
    done.node = bnode;
    in_flight_[done.seq] = done;
    events_.push(done);
  }

  /// Whether one phase of `job` may launch (and speculate) tasks now.
  bool Launchable(const RunningJob& job, TaskKind kind) const {
    return kind == kMapTask
               ? job.phase == JobPhase::kMap && now_ >= job.ready_time
               : job.phase == JobPhase::kReduce;
  }

  /// Assigns free slots to pending tasks (FIFO across jobs), executes the
  /// resulting wave of task data flows and then commits the outcomes in
  /// launch order. All launch decisions, including stop-condition checks and
  /// fault draws, observe only *committed* state: no launched task's outcome
  /// is visible while they are made.
  void Schedule() {
    std::vector<TaskLaunch> wave;
    for (RunningJob& job : jobs_) {
      if (Launchable(job, kMapTask)) {
        // The stop count is checked once per scheduling pass, before the
        // wave launches: concurrently launched tasks cannot observe each
        // other's output (they couldn't on a real cluster either); tasks
        // already running always finish their whole split (§4.2).
        PhaseTasks& maps = job.tasks[kMapTask];
        const std::optional<uint64_t>& stop_after =
            job.spec->stop_after_output_records;
        if (!maps.pending.empty() && stop_after.has_value() &&
            job.committed_output_records >= *stop_after) {
          const int skipped = static_cast<int>(maps.pending.size());
          job.result.map_tasks_skipped += skipped;
          maps.remaining -= skipped;
          maps.pending.clear();
        }
        LaunchPending(job, kMapTask, &wave);
        EndPhaseIfDrained(&job, kMapTask);
      }
      if (Launchable(job, kReduceTask)) LaunchPending(job, kReduceTask, &wave);
    }
    // Backup attempts claim only slots left over after real work, across
    // all jobs (never starving another job's pending tasks).
    if (retries_enabled_ && config_.faults.speculative_execution) {
      for (RunningJob& job : jobs_) {
        if (job.failed) continue;
        for (TaskKind kind : kTaskKinds) {
          if (Launchable(job, kind)) MaybeSpeculate(job, kind);
        }
      }
    }
    if (wave.empty()) return;

    for (TaskLaunch& t : wave) Execute(t);
    for (TaskLaunch& t : wave) CommitTask(t);
    // New launches can only cross the speculation cutoff later; make sure
    // a pass happens when the earliest one does.
    for (RunningJob& job : jobs_) {
      if (job.failed) continue;
      if (job.phase == JobPhase::kMap || job.phase == JobPhase::kShuffle) {
        PushSpeculationWakeup(&job, kMapTask);
      }
      if (job.phase == JobPhase::kReduce) {
        PushSpeculationWakeup(&job, kReduceTask);
      }
    }
  }

  /// Moves the launchable head of one phase's pending queue into the wave,
  /// one task per free slot. Tasks whose retry backoff has not elapsed are
  /// skipped over and keep their queue position.
  void LaunchPending(RunningJob& job, TaskKind kind,
                     std::vector<TaskLaunch>* wave) {
    PhaseTasks& pt = job.tasks[kind];
    std::deque<PendingTask> deferred;
    while (!pt.pending.empty() && FreeSlots(kind) > 0) {
      PendingTask next = pt.pending.front();
      pt.pending.pop_front();
      if (next.not_before > now_) {
        deferred.push_back(next);  // Backoff not elapsed yet.
        continue;
      }
      TaskLaunch launch;
      launch.job = &job;
      launch.kind = kind;
      launch.task_id = next.task_id;
      const TaskRunState& st = pt.states[next.task_id];
      if (st.failures > 0) {
        ++job.result.task_retries;
        if (m_retries_ != nullptr) m_retries_->Add();
      }
      if (kind == kMapTask) {
        launch.map_ref = job.map_defs[next.task_id];
        launch.split = &job.spec->inputs[launch.map_ref.input_index]
                            .file->splits()[launch.map_ref.split_index];
        launch.setup_ms = SideLoadMs(job);
        launch.task_index = job.map_seq++;
        // Poison positions are a property of the split's data: every
        // attempt of this logical task sees the same plan (drawn by the
        // first launch's DrawFaults). Skip mode is per-task state flipped
        // after repeated poison failures.
        launch.poison = &st.poison;
        launch.skip_mode = st.poison_failures >= 2;
      } else {
        // Decided before the fault draws, which gate the spill-corruption
        // draw on it.
        launch.memory = PlanMemory(job, next.task_id);
        launch.bucket_bytes = job.partition_bytes[next.task_id];
      }
      DrawFaults(&job, &launch);
      // A dying reduce attempt leaves its bucket in place for the retry
      // (the commit sizes the attempt from it). With retries on, the bucket
      // is copied so a *real* reduce error can retry too; it is released
      // when an attempt completes successfully.
      if (kind == kReduceTask && !launch.inject_failure) {
        if (retries_enabled_) {
          launch.bucket = job.partitions[next.task_id];
        } else {
          launch.bucket = std::move(job.partitions[next.task_id]);
        }
      }
      // A free slot is always on an alive node: a down node has none.
      launch.node = PickNode(kind, /*exclude=*/-1);
      --free_[kind][launch.node];
      ++pt.active;
      wave->push_back(std::move(launch));
    }
    while (!deferred.empty()) {
      pt.pending.push_front(deferred.back());
      deferred.pop_back();
    }
  }

  /// The memory plan of reducer `p`. Over budget, strict mode is OOM;
  /// spill mode needs ceil(state / budget) runs and is OOM past
  /// max_spill_runs. A task that fits spills in that many runs, capped at
  /// one run per record, merged fan_in-at-a-time; it holds only the
  /// budget, the rest living in its run files.
  MemoryPlan PlanMemory(const RunningJob& job, int p) const {
    MemoryPlan plan;
    plan.state = std::ceil(static_cast<double>(job.partition_bytes[p]) *
                           config_.reduce_memory_factor);
    plan.task_memory_bytes = static_cast<uint64_t>(plan.state);
    const double budget =
        std::max(1.0, static_cast<double>(config_.memory_per_task_bytes));
    const auto mode = MemoryMode(job);
    if (mode == ClusterConfig::ReduceMemoryMode::kUnbounded ||
        plan.state <= budget) {
      return plan;
    }
    const double runs = std::ceil(plan.state / budget);
    plan.oom = mode == ClusterConfig::ReduceMemoryMode::kStrict ||
               runs > static_cast<double>(std::max(1, config_.max_spill_runs));
    if (plan.oom) return plan;
    const int capped = std::min<int>(
        static_cast<int>(runs),
        static_cast<int>(std::max<size_t>(1, job.partitions[p].size())));
    if (capped <= 1) return plan;
    plan.spill_runs = capped;
    const int fan = std::max(2, config_.spill_merge_fan_in);
    long long width = 1;
    while (width < capped) {
      width *= fan;
      ++plan.merge_passes;
    }
    plan.task_memory_bytes = config_.memory_per_task_bytes;
    return plan;
  }

  /// Runs one launched task's data flow. Touches only the launch itself,
  /// immutable job inputs and the reused output buffer.
  void Execute(TaskLaunch& t) {
    // Attempts with an injected failure never run their data flow: the
    // simulated container dies, and CommitTask keeps nothing of it.
    if (t.inject_failure) return;
    // Drawn corruption is exercised against the *real* checksum machinery:
    // each corrupt copy is modeled by flipping one byte of a scratch copy
    // of the payload and verifying the stored CRC rejects it. The shared
    // split / bucket is never mutated, so healed re-reads decode the intact
    // original bytes.
    if (t.corrupt_replica_reads > 0 && t.split != nullptr &&
        !t.split->data.empty()) {
      Split corrupt = *t.split;
      corrupt.data[0] ^= 0x01;
      if (VerifySplit(corrupt).ok()) {
        t.outcome.status = Status::Internal(
            "checksum failed to detect a corrupted block replica");
        return;
      }
    }
    if (t.corrupt_fetches > 0 && !t.bucket.empty()) {
      std::string frame;
      t.bucket.front().first.EncodeTo(&frame);
      frame += t.bucket.front().second;
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
    if (t.is_map()) {
      ExecuteMapTask(t.job->spec->inputs[t.map_ref.input_index], *t.split,
                     t.task_index, t.poison, t.skip_mode, &output_buffer_,
                     &t.outcome);
    } else {
      ExecuteReduceTask(*t.job->spec, std::move(t.bucket), t.bucket_bytes,
                        t.memory.spill_runs, t.corrupt_spill, &output_buffer_,
                        &t.outcome);
    }
  }

  /// True when the nodes that could ever host this job's tasks are all
  /// down for good (no recovery scheduled): the job can never finish.
  bool ClusterDoomedFor(const RunningJob& job) const {
    int potential[2] = {0, 0};
    for (int n = 0; n < num_nodes_; ++n) {
      if (node_states_[n].alive || node_states_[n].recover_at >= 0) {
        for (TaskKind kind : kTaskKinds) potential[kind] += Capacity(kind, n);
      }
    }
    return potential[kMapTask] == 0 ||
           (job.spec->reduce_fn != nullptr && potential[kReduceTask] == 0);
  }

  void FailDoomed(RunningJob* job) {
    FailJob(job, Status::Unavailable(StrFormat(
                     "no node that could run %s will ever come back "
                     "(cluster permanently degraded)",
                     job->spec->name.c_str())));
  }

  /// A node dies: its slots leave the pool, every attempt running on it is
  /// killed (a kill, not a failure — the task re-queues without charging an
  /// attempt, Hadoop's KILLED vs FAILED), and the completed map outputs
  /// resident on it are invalidated for any map-reduce job that still needs
  /// them, regressing those jobs to the map phase for re-execution.
  void HandleNodeCrash(int node, bool scripted) {
    if (scripted) ++engine_->scripted_crashes_consumed_;
    if (node < 0 || node >= num_nodes_) return;
    NodeState& ns = node_states_[node];
    if (!ns.alive) return;  // Already down; nothing new to lose.
    ns.alive = false;
    ns.recover_at = config_.faults.node_recovery_ms > 0
                        ? now_ + config_.faults.node_recovery_ms
                        : -1;
    if (ns.recover_at >= 0) {
      Event rec{ns.recover_at, seq_++, EventKind::kNodeRecover, -1};
      rec.node = node;
      events_.push(rec);
    }
    for (TaskKind kind : kTaskKinds) free_[kind][node] = 0;
    if (m_node_crashes_ != nullptr) m_node_crashes_->Add();

    // Kill the node's in-flight attempts, in launch (seq) order. Their
    // slots went down with the node, so nothing is refunded; their pending
    // completion events will find no registry entry and be ignored.
    int killed = 0;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (it->second.node != node) {
        ++it;
        continue;
      }
      const Event a = it->second;
      it = in_flight_.erase(it);
      ++killed;
      RunningJob& job = jobs_[a.job_index];
      PhaseTasks& pt = job.tasks[a.task_kind];
      --pt.active;
      TaskRunState& st = pt.states[a.task_id];
      if (a.speculative) {
        st.backup_in_flight = false;
        st.speculated = false;  // Eligible for a fresh backup later.
      } else {
        st.primary_in_flight = false;
      }
      ++job.result.attempts_killed_by_node;
      if (m_node_kills_ != nullptr) m_node_kills_->Add();
      if (!job.failed && !st.completed && !st.primary_in_flight &&
          !st.backup_in_flight) {
        pt.pending.push_back({a.task_id, now_});
      }
    }

    // Invalidate the completed map outputs that lived on the node, for
    // every map-reduce job that still needs them. (Map-only outputs and
    // reduce outputs model durable DFS writes and survive; a reduce phase
    // with no reducer left to launch has already fetched everything.)
    for (RunningJob& job : jobs_) {
      if (job.failed || job.Finished() || job.spec->reduce_fn == nullptr) {
        continue;
      }
      PhaseTasks& maps = job.tasks[kMapTask];
      const std::deque<PendingTask>& pending_reduce =
          job.tasks[kReduceTask].pending;
      bool needs_map_outputs =
          job.phase == JobPhase::kMap || job.phase == JobPhase::kShuffle ||
          (job.phase == JobPhase::kReduce && !pending_reduce.empty());
      if (!needs_map_outputs) continue;
      int invalidated = 0;
      for (size_t t = 0; t < maps.states.size(); ++t) {
        TaskRunState& st = maps.states[t];
        if (!st.completed || st.node != node) continue;
        // Any attempt of this task still racing elsewhere is killed too:
        // the logical task is being reset, and a late completion would
        // otherwise re-complete it against cleared data. These kills DO
        // refund their (live-node) slots.
        for (auto it = in_flight_.begin(); it != in_flight_.end();) {
          const Event& a = it->second;
          if (a.job_index != job.job_index || a.task_kind != kMapTask ||
              a.task_id != static_cast<int>(t)) {
            ++it;
            continue;
          }
          ++free_[kMapTask][a.node];
          --maps.active;
          ++job.result.attempts_killed_by_node;
          if (m_node_kills_ != nullptr) m_node_kills_->Add();
          it = in_flight_.erase(it);
        }
        TaskData& d = maps.data[t];
        job.shuffled_bytes -=
            std::min(job.shuffled_bytes, d.counters.map_output_bytes);
        // Quarantined records accounted by the lost attempt are
        // un-counted; the re-run re-quarantines (and re-accounts) the same
        // positions.
        uint64_t& quarantined = job.result.records_quarantined;
        quarantined -= std::min<uint64_t>(quarantined,
                                          d.quarantine_indexes.size());
        d = TaskData{};
        static_cast<AttemptState&>(st) = AttemptState{};
        ++maps.remaining;
        maps.pending.push_back({static_cast<int>(t), now_});
        ++invalidated;
      }
      if (invalidated == 0) continue;
      job.result.maps_invalidated += invalidated;
      if (m_maps_invalidated_ != nullptr) {
        m_maps_invalidated_->Add(invalidated);
      }
      if (job.phase == JobPhase::kReduce) {
        // The reducers still waiting to launch hit shuffle-fetch failures:
        // they stay queued behind the re-shuffle of the re-executed maps.
        int blocked = static_cast<int>(pending_reduce.size());
        job.result.shuffle_fetch_retries += blocked;
        if (m_shuffle_retries_ != nullptr) m_shuffle_retries_->Add(blocked);
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

    for (RunningJob& job : jobs_) {
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
                         .ArgInt("alive_nodes", AliveNodes()));
    }
    // Permanent-failure classification: with no capacity left and none
    // ever coming back, unfinished jobs can never run.
    for (RunningJob& job : jobs_) {
      if (!job.failed && !job.Finished() && ClusterDoomedFor(job)) {
        FailDoomed(&job);
      }
    }
    // Failed jobs whose last in-flight attempts were just killed have no
    // completion event left to drain them.
    for (RunningJob& job : jobs_) {
      if (job.failed) DrainFailedJob(&job);
    }
  }

  void HandleNodeRecover(const Event& ev) {
    if (ev.node < 0 || ev.node >= num_nodes_) return;
    NodeState& ns = node_states_[ev.node];
    if (ns.alive || ns.recover_at != ev.time) return;  // Stale event.
    ns.alive = true;
    ns.recover_at = 0;
    // The node rejoins with empty disks: full slot capacity, no resident
    // map outputs (those were invalidated at crash time).
    for (TaskKind kind : kTaskKinds) {
      free_[kind][ev.node] = Capacity(kind, ev.node);
    }
    if (m_node_recoveries_ != nullptr) m_node_recoveries_->Add();
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kEngine, "mr",
                                     "node_recover")
                         .ArgInt("node", ev.node)
                         .ArgInt("alive_nodes", AliveNodes()));
    }
  }

  void HandleEvent(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kNodeCrash:
        HandleNodeCrash(ev.node, ev.scripted);
        return;
      case EventKind::kNodeRecover:
        HandleNodeRecover(ev);
        return;
      case EventKind::kJobReady:
        OnJobReady(&jobs_[ev.job_index]);
        return;
      case EventKind::kTaskDone:
        OnTaskDone(&jobs_[ev.job_index], ev);
        return;
      case EventKind::kShuffleDone:
        OnShuffleDone(&jobs_[ev.job_index], ev);
        return;
      case EventKind::kWakeup:
        // Nothing to do: the point was to trigger the scheduling pass that
        // follows event handling at this timestamp.
        return;
    }
  }

  void OnJobReady(RunningJob* job) {
    if (job->failed || job->phase != JobPhase::kStartingUp) return;
    if (ClusterDoomedFor(*job)) {
      // Submitted against a permanently dead cluster (every crash already
      // classified the jobs it doomed; this catches jobs submitted
      // afterwards).
      FailDoomed(job);
      return;
    }
    // Check the broadcast memory budget at task-launch time: the build side
    // is loaded by the first task wave, which is when Jaql's broadcast join
    // discovers it does not fit and dies.
    double need = static_cast<double>(job->spec->side_memory_bytes) *
                  config_.broadcast_memory_factor;
    if (job->spec->side_memory_bytes > 0) {
      job->result.peak_task_memory_bytes = std::max(
          job->result.peak_task_memory_bytes, static_cast<uint64_t>(need));
    }
    if (need > static_cast<double>(config_.memory_per_task_bytes)) {
      AddLazy("mr.memory_oom_failures");
      FailJob(job, Status::OutOfMemory(StrFormat(
                       "broadcast build side of %s needs %.0f bytes "
                       "(task memory %llu)",
                       job->spec->name.c_str(), need,
                       static_cast<unsigned long long>(
                           config_.memory_per_task_bytes))));
    } else {
      job->phase = JobPhase::kMap;
    }
  }

  /// One attempt of a map or reduce task finished (or died): give back its
  /// slot, then record the completion, the failure and its retry, or — for
  /// a backup that beat its primary — the speculative win.
  void OnTaskDone(RunningJob* job, const Event& ev) {
    auto flight = in_flight_.find(ev.seq);
    if (flight == in_flight_.end()) return;  // Killed by a node crash.
    const TaskKind kind = ev.task_kind;
    in_flight_.erase(flight);
    ++free_[kind][ev.node];
    PhaseTasks& pt = job->tasks[kind];
    --pt.active;
    if (job->failed) {
      DrainFailedJob(job);
      return;
    }
    TaskRunState& st = pt.states[ev.task_id];
    if (ev.speculative) {
      st.backup_in_flight = false;
    } else {
      st.primary_in_flight = false;
    }
    if (ev.attempt_failed) {
      ++st.failures;
      if (ev.poison_failure) {
        // A map function "threw" on a poison record. After two such
        // attempt deaths the task re-runs in skip mode, quarantining the
        // poison records instead of failing (Hadoop skip mode).
        ++st.poison_failures;
      }
      if (st.failures >= max_attempts_) {
        // A DataLoss last error keeps its code through the job failure: it
        // is the signal that lets the driver's retry ladder classify the
        // failure as data corruption, not engine logic.
        std::string detail = StrFormat(
            "%s task %d of %s failed %d attempts; last: %s", KindName(kind),
            ev.task_id, job->spec->name.c_str(), st.failures,
            st.last_error.ToString().c_str());
        if (st.last_error.code() == StatusCode::kDataLoss) {
          if (m_integrity_failures_ != nullptr) m_integrity_failures_->Add();
          FailJob(job, Status::DataLoss(std::move(detail)));
        } else {
          FailJob(job, Status::Internal(std::move(detail)));
        }
        return;
      }
      SimMillis backoff = RetryBackoff(job, st.failures);
      pt.pending.push_back({ev.task_id, now_ + backoff});
      if (backoff > 0) {
        events_.push(
            {now_ + backoff, seq_++, EventKind::kWakeup, job->job_index});
      }
    } else if (!st.completed) {
      // The first attempt to finish completes the task; a losing primary
      // or backup only held a slot until now.
      st.completed = true;
      st.node = ev.node;
      --pt.remaining;
      if (ev.speculative) {
        ++job->result.speculative_wins;
        if (m_spec_wins_ != nullptr) m_spec_wins_->Add();
        if (trace_ != nullptr) {
          trace_->Record(obs::TraceEvent(now_, -1, obs::TraceLane::kTasks,
                                         "mr", "speculative_win")
                             .Arg("job", job->spec->name)
                             .ArgInt("task", ev.task_id)
                             .ArgBool("map", kind == kMapTask));
        }
      }
      pt.completed_ms.Add(ev.attempt_duration);
      ApplyDurableCompletion(job, kind, ev.task_id);
    }
    // ApplyDurableCompletion can fail the job (quarantine budget); a failed
    // job must not advance phases.
    if (job->failed) return;
    if (!EndPhaseIfDrained(job, kind)) PushSpeculationWakeup(job, kind);
  }

  void OnShuffleDone(RunningJob* job, const Event& ev) {
    // A stale epoch means a node crash invalidated map outputs while this
    // shuffle was in flight; the job re-entered the map phase and will
    // re-shuffle when the re-executed maps drain.
    if (job->failed || ev.shuffle_epoch != job->shuffle_epoch ||
        job->phase != JobPhase::kShuffle) {
      return;
    }
    job->phase = JobPhase::kReduce;
    if (job->reduce_opened) {
      // Re-shuffle after invalidation: the reducers that were blocked on
      // the fetch failure are already queued (and freshly re-bucketed);
      // just resume them.
      return;
    }
    job->reduce_opened = true;
    job->reduce_start = now_;
    PhaseTasks& reduces = job->tasks[kReduceTask];
    for (size_t r = 0; r < reduces.states.size(); ++r) {
      reduces.pending.push_back({static_cast<int>(r), 0});
    }
  }

  MapReduceEngine* const engine_;
  const std::vector<JobSpec>& specs_;
  const ClusterConfig& config_;
  SimMillis& now_;
  std::vector<NodeState>& node_states_;
  Dfs* const dfs_;
  obs::TraceSink* const trace_;
  obs::MetricsRegistry* const metrics_;
  /// Wave-pressure bookkeeping (see last_wave_pressure()): committed slot
  /// time against the slot capacity available over the wave's duration.
  const SimMillis wave_start_ms_;
  const SimMillis busy_before_ms_;
  /// Whether failed task attempts are retried (Hadoop semantics) instead
  /// of failing the whole job at the first error (legacy fail-fast).
  const bool retries_enabled_;
  const int max_attempts_;
  const int num_nodes_;
  const int total_slots_[2];  ///< Cluster-wide slots per TaskKind.

  obs::Counter* m_jobs_ = nullptr;
  obs::Counter* m_attempts_[2] = {nullptr, nullptr};
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_injected_ = nullptr;
  obs::Counter* m_spec_launches_ = nullptr;
  obs::Counter* m_spec_wins_ = nullptr;
  obs::Counter* m_node_crashes_ = nullptr;
  obs::Counter* m_node_recoveries_ = nullptr;
  obs::Counter* m_node_kills_ = nullptr;
  obs::Counter* m_maps_invalidated_ = nullptr;
  obs::Counter* m_shuffle_retries_ = nullptr;
  obs::Counter* m_block_corruptions_ = nullptr;
  obs::Counter* m_checksum_refetches_ = nullptr;
  obs::Counter* m_quarantined_ = nullptr;
  obs::Counter* m_integrity_failures_ = nullptr;
  obs::Histogram* h_attempt_ms_[2] = {nullptr, nullptr};
  obs::Histogram* h_job_ms_ = nullptr;

  std::vector<RunningJob> jobs_;
  int unfinished_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  uint64_t seq_ = 0;
  /// Free slots per TaskKind and node; a down node has none.
  std::vector<int> free_[2];
  /// Attempts currently executing: the seq of each one's completion event
  /// maps to that event, whose `node` hosts the attempt. Killing an
  /// attempt = erasing its entry; its completion event is then ignored.
  /// std::map iterates in seq (launch) order, keeping crash handling
  /// deterministic.
  std::map<uint64_t, Event> in_flight_;
  /// Output records of the task whose data flow is running, reused from
  /// task to task (TaskContext).
  std::string output_buffer_;
};

Result<std::vector<JobResult>> MapReduceEngine::SubmitAllDirect(
    const std::vector<JobSpec>& specs) {
  return Simulation(this, specs).Run();
}

}  // namespace dyno
