#ifndef DYNO_MR_CLUSTER_CONFIG_H_
#define DYNO_MR_CLUSTER_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace dyno {

/// Deterministic fault model for the simulated cluster. Every draw is made
/// at task-launch time from a per-job stream seeded by `seed` and the job
/// name — never from the wall clock — so two runs of the same (config,
/// workload) pair produce byte-identical simulated results (DESIGN.md §6.2).
struct FaultConfig {
  /// Base seed. Each job derives its own stream from this and the job name,
  /// so concurrent jobs draw independently of scheduling interleavings.
  uint64_t seed = 0;

  /// Probability that a task attempt dies partway through (transient
  /// failure: bad node, lost container). Failed attempts are retried.
  double task_failure_rate = 0.0;

  /// Probability that an attempt runs `straggler_slowdown` times slower
  /// than its modeled duration (hot node, slow disk).
  double straggler_rate = 0.0;
  double straggler_slowdown = 4.0;

  /// Attempts per logical task before the whole job is declared failed
  /// (Hadoop's mapred.map.max.attempts; must be >= 1).
  int max_task_attempts = 4;

  /// Base delay before re-queueing a failed attempt; attempt n waits
  /// min(retry_backoff_ms * 2^(n-1), max_backoff_ms) plus a deterministic
  /// jitter of up to retry_jitter_fraction of that, drawn from the job's
  /// fault stream so retries of concurrent tasks de-synchronize without
  /// breaking bit-identical replay.
  SimMillis retry_backoff_ms = 1000;
  SimMillis max_backoff_ms = 30000;  ///< <= 0 disables the cap.
  double retry_jitter_fraction = 0.25;

  /// Hadoop-style speculative execution: when a phase has idle slots and no
  /// pending work, re-launch the slowest in-flight attempt once it has been
  /// running longer than `speculative_slowness_threshold` times the median
  /// completed task duration. Whichever attempt finishes first commits; the
  /// loser still occupies its slot until its own finish time.
  bool speculative_execution = true;
  double speculative_slowness_threshold = 2.0;

  /// --- Node fault domain (DESIGN.md §6.4). ---
  /// Probability, drawn per task-attempt launch from the job's fault
  /// stream, that the node hosting the attempt crashes partway through it.
  /// A crash kills every attempt running on the node, invalidates the
  /// completed map outputs resident there, and removes the node's slots
  /// until it recovers.
  double node_failure_rate = 0.0;

  /// How long a crashed node stays blacklisted before it rejoins with its
  /// slots (and nothing else: its resident map outputs are gone for good).
  /// <= 0 means nodes never recover; losing all of them then classifies
  /// every unfinished job as a permanent failure.
  SimMillis node_recovery_ms = 120000;

  /// Test/chaos hook: crash `node` at simulated time `at_ms` exactly once,
  /// without consuming any fault-stream draws. Entries must be sorted by
  /// time; they let tests place a crash deterministically relative to a
  /// job's phases.
  struct ScriptedNodeCrash {
    SimMillis at_ms = 0;
    int node = 0;
  };
  std::vector<ScriptedNodeCrash> scripted_node_crashes;

  /// --- Data-integrity faults (DESIGN.md §6.5). ---
  /// Probability that one replica read of a map-input block comes back
  /// corrupt (checksum mismatch). The attempt re-reads the next replica,
  /// billing a full block read per bad copy; all `DfsFile::replicas()`
  /// copies bad fails the attempt with DataLoss.
  double block_corruption_rate = 0.0;

  /// Probability that one shuffle fetch of a reduce attempt's bucket is
  /// corrupt in flight. The attempt re-fetches up to
  /// `max_shuffle_fetch_retries` more times; exhausting them is DataLoss.
  double shuffle_corruption_rate = 0.0;

  /// Probability that any given input record is a poison record: the map
  /// function "throws" on it. Positions are drawn once per logical map task
  /// (they are a property of the data, identical across attempts and
  /// replicas). After two poison-record attempt failures the task re-runs
  /// in skip mode, quarantining poison records instead of failing.
  double poison_record_rate = 0.0;

  /// Per-job budget of quarantined records; exceeding it fails the job with
  /// a permanent DataLoss (mirrors Hadoop's skip-mode record budget).
  /// < 0 means unlimited.
  int max_skipped_records = 100;

  /// Extra shuffle fetches allowed per reduce attempt after a checksum
  /// mismatch before the attempt fails with DataLoss.
  int max_shuffle_fetch_retries = 3;

  /// Test/chaos hook: force corrupt replica reads / shuffle fetches onto an
  /// exact (job, task, attempt) without consuming fault-stream draws.
  /// `count` is the number of corrupt copies (block: replicas, capped at the
  /// file's replica count; shuffle: fetches, capped at
  /// max_shuffle_fetch_retries + 1).
  struct ScriptedCorruption {
    /// kSpill targets a reduce attempt's spill-run read-back; it only fires
    /// when the attempt actually spills (memory mode on and over budget).
    enum class Target { kBlock, kShuffle, kSpill };
    Target target = Target::kBlock;
    std::string job;  ///< Exact JobSpec name.
    int task_id = 0;
    int attempt = 1;  ///< 1-based attempt index the corruption hits.
    int count = 1;
    /// Exact JobSpec::query_id the corruption applies to. Empty matches any
    /// query — the legacy behavior, which is ambiguous once two concurrent
    /// queries run identically-named jobs; scope scripted corruptions by
    /// query id in multi-query tests.
    std::string query;
  };
  std::vector<ScriptedCorruption> scripted_corruptions;

  /// When set, the engine fills this struct from the fault-group `DYNO_*`
  /// variables if no fault is configured in code, and ClusterConfig's
  /// memory fields from the memory group while the reduce memory mode is
  /// kUnbounded (the list and the read rules: common/knobs.h). That is how
  /// the benches and the `faults` / `node-faults` / `corruption` / `memory`
  /// ctest presets switch those paths on without touching code.
  bool use_env_defaults = true;

  /// True when node crashes (random or scripted) are possible.
  bool node_faults() const {
    return node_failure_rate > 0.0 || !scripted_node_crashes.empty();
  }

  /// True when data-path corruption or poison records (random or scripted)
  /// are possible.
  bool data_faults() const {
    return block_corruption_rate > 0.0 || shuffle_corruption_rate > 0.0 ||
           poison_record_rate > 0.0 || !scripted_corruptions.empty();
  }

  /// True when any fault can fire: some rate is above 0, or a node crash or
  /// corruption is scripted. When false, every node stays alive and a job
  /// run alone on the cluster takes the same simulated time whenever it is
  /// submitted (BESTSTATIC's unit replay relies on this). Retries of *real*
  /// task errors (failing map/reduce functions) are also gated on this,
  /// preserving the legacy fail-fast behavior when the model is off.
  bool enabled() const {
    return task_failure_rate > 0.0 || straggler_rate > 0.0 || node_faults() ||
           data_faults();
  }
};

/// Static description of the simulated Hadoop cluster. The defaults mirror
/// the paper's testbed (15 nodes, 10 map + 6 reduce slots each => 140/84
/// after excluding the master, 15-20 s job startup, 10 GbE) scaled to the
/// simulator's byte units: one simulator byte stands for ~1 KiB of real
/// data, so the rate constants below give the familiar "HDFS scan ~100 MB/s
/// per slot, shuffle ~50 MB/s" feel.
struct ClusterConfig {
  /// Number of worker nodes. They are the simulator's fault domains: map /
  /// reduce slots are divided across them (node i gets slots/num_nodes,
  /// plus one of the remainder when i < slots % num_nodes), completed map
  /// outputs are resident on the node that produced them, and a node crash
  /// (FaultConfig) takes slots and resident outputs down together. Also
  /// used by the distributed-cache variant of the broadcast join, which
  /// loads the build side once per node instead of once per task.
  int num_nodes = 15;

  /// Concurrent map / reduce task slots across the cluster.
  int map_slots = 140;
  int reduce_slots = 84;

  /// Latency between job submission and first task launch (the paper: "as
  /// high as 15-20 seconds"); paying it once per leaf relation is what makes
  /// PILR_ST slow.
  SimMillis job_startup_ms = 15000;

  /// Phase rates, in bytes per simulated millisecond.
  double map_read_bytes_per_ms = 100.0;
  double map_write_bytes_per_ms = 80.0;
  double shuffle_bytes_per_ms = 50.0;
  double reduce_read_bytes_per_ms = 100.0;
  double reduce_write_bytes_per_ms = 80.0;

  /// Rate at which map tasks load broadcast side data. Faster than a cold
  /// split scan: build files are small, read by every task on a node, and
  /// sit in the OS page cache after the first wave.
  double side_load_bytes_per_ms = 200.0;

  /// Scalar-operation throughput (expression cost units per millisecond).
  double cpu_units_per_ms = 1000.0;

  /// Memory available to one task for broadcast-join build sides. A build
  /// side whose hash table exceeds this aborts the job with OutOfMemory —
  /// Jaql's broadcast join does not spill (paper §2.2.1).
  uint64_t memory_per_task_bytes = 1 << 20;  // 1 MiB at simulator scale

  /// Hash-table expansion over raw build-side bytes.
  double broadcast_memory_factor = 1.5;

  /// --- Reduce-side memory model (DESIGN.md §6.10). ---
  /// How a reduce task whose simulated sort/hash state outgrows
  /// `memory_per_task_bytes` degrades. The default (kUnbounded) is the
  /// historical behavior: reduce state is never charged, so the knob-off
  /// path stays byte-identical to older builds.
  enum class ReduceMemoryMode {
    kUnbounded = 0,  ///< Legacy: reduce state is not charged against memory.
    kSpill = 1,      ///< Overflowing tasks spill CRC-framed runs to DFS.
    kStrict = 2,     ///< Overflowing jobs fail with OutOfMemory (no spill).
  };
  ReduceMemoryMode reduce_memory_mode = ReduceMemoryMode::kUnbounded;

  /// Sort/hash-state expansion over raw partition bytes — the reduce-side
  /// analogue of broadcast_memory_factor. A reduce task's simulated state is
  /// ceil(partition_bytes * reduce_memory_factor); it spills (or OOMs) when
  /// that exceeds memory_per_task_bytes.
  double reduce_memory_factor = 1.5;

  /// Maximum spill runs merged per pass. R runs need
  /// ceil(log_fan_in(R)) merge passes, each billed as one full
  /// write + read of the partition's bytes.
  int spill_merge_fan_in = 8;

  /// A task needing more than this many spill runs fails with OutOfMemory
  /// even in kSpill mode (its merge state no longer fits either) — this is
  /// what makes the retry ladder's doubled-reducer rung meaningful.
  int max_spill_runs = 64;

  /// Default split-to-reduce-task ratio when a job does not pin the reducer
  /// count: one reduce task per this many bytes of map output (Hive-like).
  uint64_t bytes_per_reduce_task = 64 * 1024;

  /// Read by nothing: one thread runs every task data flow. The field
  /// stays only because dynobench/src/harness.cc assigns it, and
  /// dynobench/ changes only together with the benchmark itself. The next
  /// benchmark change (ROADMAP item 5) deletes this field and that line.
  int execution_threads = 1;

  /// Fault injection and recovery knobs (off by default).
  FaultConfig faults;
};

}  // namespace dyno

#endif  // DYNO_MR_CLUSTER_CONFIG_H_
