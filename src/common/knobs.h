#ifndef DYNO_COMMON_KNOBS_H_
#define DYNO_COMMON_KNOBS_H_

#include <climits>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>

namespace dyno {

/// What a knob's value is. Integer types parse as one whole decimal
/// integer; kDouble as one finite number; kBool as 0 or 1; kEnum as the
/// enumerator's integer; kMiB as whole MiB, read back in bytes. kPath and
/// kFlag are not parsed: a path is taken as given, and a flag is on when
/// the variable is set at all.
enum class KnobType { kInt, kInt64, kUint64, kDouble, kBool, kEnum, kMiB,
                      kPath, kFlag };

/// Who reads a knob, and when (DESIGN.md §6.11):
///  - kFault: `MapReduceEngine`'s constructor, when
///    `FaultConfig::use_env_defaults` is set and the config enables no fault;
///  - kMemory: the same constructor, under `use_env_defaults`, while the
///    reduce memory mode is still `kUnbounded`;
///  - kDriver: `DynoDriver`'s constructor, for options left at their
///    sentinel values;
///  - kService, kCache: explicit `QueryServiceOptions::ApplyEnvOverrides`
///    calls;
///  - kColumnar: every base-table write and every leaf scan;
///  - kHarness: the benches and test suites, never the library.
enum class KnobGroup { kFault, kMemory, kDriver, kService, kCache, kColumnar,
                       kHarness };

/// Every `DYNO_*` environment variable, declared once:
/// X(name, group, type, lo, hi, default, doc). [lo, hi] is the accepted
/// range (ignored for kPath and kFlag; kMiB's is in MiB). `default` is
/// what the consumer holds when the variable is unset, in the variable's
/// own syntax. README's knob table is rendered from this list
/// (`build/examples/dyno_knobs`) and `scripts/check_knobs.py` holds the two
/// equal.
#define DYNO_KNOB_LIST(X) \
  X(DYNO_FAULT_SEED,              kFault,    kUint64, 0,         INT64_MAX, "0",                      "seed for per-job fault streams (same seed, same workload: same run)") \
  X(DYNO_TASK_FAILURE_RATE,       kFault,    kDouble, 0,         1,         "0",                      "probability each task attempt is killed partway") \
  X(DYNO_STRAGGLER_RATE,          kFault,    kDouble, 0,         1,         "0",                      "probability an attempt runs slow, triggering speculation") \
  X(DYNO_MAX_TASK_ATTEMPTS,       kFault,    kInt,    1,         1000,      "4",                      "attempts per task before the job fails") \
  X(DYNO_NODE_FAILURE_RATE,       kFault,    kDouble, 0,         1,         "0",                      "per-launch probability the hosting node crashes") \
  X(DYNO_NODE_RECOVERY_MS,        kFault,    kInt64,  INT64_MIN, INT64_MAX, "120000",                 "blacklist time before a crashed node rejoins (`<= 0` = never)") \
  X(DYNO_BLOCK_CORRUPTION_RATE,   kFault,    kDouble, 0,         1,         "0",                      "probability a DFS block read is CRC-corrupt (healed from replicas)") \
  X(DYNO_SHUFFLE_CORRUPTION_RATE, kFault,    kDouble, 0,         1,         "0",                      "probability a shuffle fetch arrives corrupt (re-fetched)") \
  X(DYNO_POISON_RECORD_RATE,      kFault,    kDouble, 0,         1,         "0",                      "probability a record poisons its map task (skip-mode quarantine)") \
  X(DYNO_MAX_SKIPPED_RECORDS,     kFault,    kInt,    -1,        INT_MAX,   "100",                    "per-job quarantine budget (`< 0` = unlimited)") \
  X(DYNO_TASK_MEMORY_BYTES,       kMemory,   kUint64, 1,         INT64_MAX, "1048576",                "per-task memory budget, charged when a memory mode is enforced") \
  X(DYNO_SPILL,                   kMemory,   kEnum,   0,         2,         "0",                      "reduce memory mode: `0` unbounded, `1` spill to DFS, `2` strict OOM") \
  X(DYNO_MAX_JOB_ATTEMPTS,        kDriver,   kInt,    1,         1000,      "1",                      "whole-job attempts for transiently failed jobs") \
  X(DYNO_RETRY_BUDGET_MS,         kDriver,   kInt64,  0,         1LL << 40, "0",                      "per-query cap on slot-ms burned by job retries (`0` = unlimited)") \
  X(DYNO_OOM_RETRIES,             kDriver,   kInt,    0,         16,        "0",                      "OOM retry ladder depth: spill once, then doubled reducers") \
  X(DYNO_CONCURRENCY,             kService,  kInt,    1,         1 << 20,   "4",                      "max concurrently admitted query sessions") \
  X(DYNO_TENANT_SLOTS,            kService,  kInt,    0,         1 << 20,   "0",                      "per-tenant admission cap (`0` = unlimited)") \
  X(DYNO_ADMISSION_QUEUE,         kService,  kInt,    0,         1 << 20,   "16",                     "queued-submission bound; beyond it `Enqueue` rejects") \
  X(DYNO_STATS_CACHE,             kService,  kBool,   0,         1,         "1",                      "share pilot statistics across sessions (`0` = per-session stores)") \
  X(DYNO_PRIORITY_PREEMPTION,     kService,  kBool,   0,         1,         "1",                      "higher-priority arrivals preempt the lowest-priority session") \
  X(DYNO_QUERY_DEADLINE_MS,       kService,  kInt64,  0,         1LL << 40, "0",                      "default per-query deadline from arrival (`0` = none)") \
  X(DYNO_LOAD_SHED_QUEUE_MS,      kService,  kInt64,  0,         1LL << 40, "0",                      "shed low-priority queries queued longer than this (`0` = off)") \
  X(DYNO_LOAD_SHED_PRESSURE,      kService,  kDouble, 0,         1,         "0",                      "shed low-priority arrivals at this slot pressure (`0` = off)") \
  X(DYNO_LOAD_SHED_PRIORITY,      kService,  kInt,    0,         1 << 20,   "0",                      "highest priority class the shedder may reject") \
  X(DYNO_MEMORY_ADMISSION,        kService,  kUint64, 0,         1LL << 40, "0",                      "cluster memory ledger bytes for admission (`0` = off)") \
  X(DYNO_SUBTREE_CACHE_MB,        kCache,    kMiB,    0,         1 << 20,   "0",                      "service cache budget; `0` or unset = off (64 MiB if code turns it on)") \
  X(DYNO_SUBTREE_CACHE_ENTRIES,   kCache,    kUint64, 1,         1 << 20,   "1024",                   "entry-count bound on the subtree cache") \
  X(DYNO_COLUMNAR,                kColumnar, kBool,   0,         1,         "0",                      "write base tables columnar; leaf scans filter batch-at-a-time") \
  X(DYNO_ZONE_MAPS,               kColumnar, kBool,   0,         1,         "0",                      "skip splits whose zone map rules out the scan predicate") \
  X(DYNO_NODES,                   kHarness,  kInt,    1,         1000000,   "15",                     "bench cluster's worker nodes (fault domains)") \
  X(DYNO_TRACE_PATH,              kHarness,  kPath,   0,         0,         "unset",                  "benches: prefix for JSONL/Chrome/metrics trace outputs") \
  X(DYNO_FUZZ_ITERS,              kHarness,  kInt,    0,         1 << 30,   "0",                      "iterations per fuzz loop (`0` = each suite's own budget)") \
  X(DYNO_UPDATE_GOLDEN,           kHarness,  kFlag,   0,         0,         "unset",                  "tests rewrite the checked-in goldens instead of comparing") \
  X(DYNO_BENCH_CONCURRENCY_OUT,   kHarness,  kPath,   0,         0,         "BENCH_concurrency.json", "`bench_concurrency`'s JSON output path") \
  X(DYNO_BENCH_MQO_OUT,           kHarness,  kPath,   0,         0,         "BENCH_mqo.json",         "`bench_mqo`'s JSON output path") \
  X(DYNO_BENCH_SCAN_OUT,          kHarness,  kPath,   0,         0,         "BENCH_scan.json",        "`bench_scan`'s JSON output path")

/// One enumerator per row, named after its variable.
enum class Knob {
#define DYNO_KNOB_ENUMERATOR(name, ...) name,
  DYNO_KNOB_LIST(DYNO_KNOB_ENUMERATOR)
#undef DYNO_KNOB_ENUMERATOR
};

/// One row of DYNO_KNOB_LIST.
struct KnobSpec {
  const char* name;
  KnobGroup group;
  KnobType type;
  int64_t lo;
  int64_t hi;
  const char* default_value;
  const char* doc;
};

/// Every row, indexed by Knob.
inline constexpr KnobSpec kKnobSpecs[] = {
#define DYNO_KNOB_SPEC(name, group, type, lo, hi, def, doc)                    \
  {#name, KnobGroup::group, KnobType::type, lo, hi, def, doc},
    DYNO_KNOB_LIST(DYNO_KNOB_SPEC)
#undef DYNO_KNOB_SPEC
};

/// The row of `knob`.
inline const KnobSpec& SpecOf(Knob knob) {
  return kKnobSpecs[static_cast<size_t>(knob)];
}

/// The variable's raw value, or nullptr when it is unset. The one place
/// the library reads the environment.
const char* KnobValue(Knob knob);

/// Strict reads of a numeric knob: nullopt when the variable is unset; a
/// malformed or out-of-range value aborts with a message naming the
/// variable, never a silent default. A kMiB value comes back in bytes.
std::optional<int64_t> KnobInt(Knob knob);
std::optional<double> KnobDouble(Knob knob);

/// Overwrites `*out` with the knob's value when the variable is set; an
/// unset variable leaves `*out` untouched. Integer, bool and enum fields
/// take KnobInt, floating-point ones KnobDouble.
template <typename T>
void ReadKnob(Knob knob, T* out) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::optional<double> value = KnobDouble(knob)) *out = *value;
  } else {
    if (std::optional<int64_t> value = KnobInt(knob)) {
      *out = static_cast<T>(*value);
    }
  }
}

/// A 0/1 knob's value; false when unset.
inline bool KnobEnabled(Knob knob) { return KnobInt(knob).value_or(0) != 0; }

}  // namespace dyno

#endif  // DYNO_COMMON_KNOBS_H_
