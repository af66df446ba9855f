// Table-driven checks of the DYNO_* knob list (common/knobs.h) against the
// code that consumes each variable: every numeric row rejects malformed
// and out-of-range values by aborting with the variable's name, an
// in-range value lands in the consumer's field, and the declared default
// is what the consumer holds when the variable is unset (which keeps
// README's default column true).

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/knobs.h"
#include "dyno/driver.h"
#include "mr/engine.h"
#include "service/query_service.h"
#include "stats/stats_store.h"
#include "storage/catalog.h"
#include "storage/dfs.h"
#include "test_util.h"

namespace dyno {
namespace {

/// A consumer's view of one knob: the field it fills, and the knob's
/// current value converted to that field's type.
struct Probe {
  Knob knob;
  std::function<double()> field;
  std::function<double()> expected;
  /// False where the unset consumer does not hold the declared default.
  bool default_holds = true;
};

template <typename T>
Probe Field(Knob knob, std::function<T()> read, bool default_holds = true) {
  return Probe{knob, [read] { return static_cast<double>(read()); },
               [knob] {
                 T value{};
                 ReadKnob(knob, &value);
                 return static_cast<double>(value);
               },
               default_holds};
}

ClusterConfig EngineConfig() {
  Dfs dfs;
  return MapReduceEngine(&dfs, ClusterConfig()).config();
}

DynoOptions DriverOptions() {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  StatsStore store;
  return DynoDriver(&engine, &catalog, &store, DynoOptions()).options();
}

QueryServiceOptions ServiceOptions() {
  QueryServiceOptions options;
  options.ApplyEnvOverrides();
  return options;
}

/// Every numeric row's consumers. The harness rows are read by the benches
/// and suites, so their probe is the read those programs make.
std::vector<Probe> Probes() {
  using K = Knob;
  return {
      Field<uint64_t>(K::DYNO_FAULT_SEED,
                      [] { return EngineConfig().faults.seed; }),
      Field<double>(K::DYNO_TASK_FAILURE_RATE,
                    [] { return EngineConfig().faults.task_failure_rate; }),
      Field<double>(K::DYNO_STRAGGLER_RATE,
                    [] { return EngineConfig().faults.straggler_rate; }),
      Field<int>(K::DYNO_MAX_TASK_ATTEMPTS,
                 [] { return EngineConfig().faults.max_task_attempts; }),
      Field<double>(K::DYNO_NODE_FAILURE_RATE,
                    [] { return EngineConfig().faults.node_failure_rate; }),
      Field<int64_t>(K::DYNO_NODE_RECOVERY_MS,
                     [] { return EngineConfig().faults.node_recovery_ms; }),
      Field<double>(K::DYNO_BLOCK_CORRUPTION_RATE,
                    [] { return EngineConfig().faults.block_corruption_rate; }),
      Field<double>(
          K::DYNO_SHUFFLE_CORRUPTION_RATE,
          [] { return EngineConfig().faults.shuffle_corruption_rate; }),
      Field<double>(K::DYNO_POISON_RECORD_RATE,
                    [] { return EngineConfig().faults.poison_record_rate; }),
      Field<int>(K::DYNO_MAX_SKIPPED_RECORDS,
                 [] { return EngineConfig().faults.max_skipped_records; }),
      Field<uint64_t>(K::DYNO_TASK_MEMORY_BYTES,
                      [] { return EngineConfig().memory_per_task_bytes; }),
      Field<int>(K::DYNO_SPILL,
                 [] {
                   return static_cast<int>(EngineConfig().reduce_memory_mode);
                 }),
      Field<int>(K::DYNO_MAX_JOB_ATTEMPTS,
                 [] { return DriverOptions().max_job_attempts; }),
      Field<int64_t>(K::DYNO_RETRY_BUDGET_MS,
                     [] { return DriverOptions().retry_budget_ms; }),
      Field<int>(K::DYNO_OOM_RETRIES,
                 [] { return DriverOptions().oom_retry_ladder; }),
      Field<int>(K::DYNO_CONCURRENCY,
                 [] { return ServiceOptions().max_concurrent; }),
      Field<int>(K::DYNO_TENANT_SLOTS,
                 [] { return ServiceOptions().tenant_slots; }),
      Field<int>(K::DYNO_ADMISSION_QUEUE,
                 [] { return ServiceOptions().admission_queue_limit; }),
      Field<bool>(K::DYNO_STATS_CACHE,
                  [] { return ServiceOptions().share_pilot_stats; }),
      Field<bool>(K::DYNO_PRIORITY_PREEMPTION,
                  [] { return ServiceOptions().priority_preemption; }),
      Field<int64_t>(K::DYNO_QUERY_DEADLINE_MS,
                     [] { return ServiceOptions().default_deadline_ms; }),
      Field<int64_t>(K::DYNO_LOAD_SHED_QUEUE_MS,
                     [] { return ServiceOptions().load_shed_queue_ms; }),
      Field<double>(K::DYNO_LOAD_SHED_PRESSURE,
                    [] { return ServiceOptions().load_shed_pressure; }),
      Field<int>(K::DYNO_LOAD_SHED_PRIORITY,
                 [] { return ServiceOptions().load_shed_max_priority; }),
      Field<uint64_t>(K::DYNO_MEMORY_ADMISSION,
                      [] { return ServiceOptions().memory_ledger_bytes; }),
      Field<bool>(K::DYNO_SUBTREE_CACHE_MB,
                  [] { return ServiceOptions().enable_subtree_cache; }),
      // Unset, the cache keeps its 64 MiB code budget; the declared "0" is
      // the service's view (cache off).
      Field<uint64_t>(
          K::DYNO_SUBTREE_CACHE_MB,
          [] { return ServiceOptions().subtree_cache.max_bytes; },
          /*default_holds=*/false),
      Field<uint64_t>(
          K::DYNO_SUBTREE_CACHE_ENTRIES,
          [] { return ServiceOptions().subtree_cache.max_entries; }),
      Field<bool>(K::DYNO_COLUMNAR,
                  [] { return KnobEnabled(Knob::DYNO_COLUMNAR); }),
      Field<bool>(K::DYNO_ZONE_MAPS,
                  [] { return KnobEnabled(Knob::DYNO_ZONE_MAPS); }),
      Field<int>(K::DYNO_NODES,
                 [] {
                   int nodes = ClusterConfig().num_nodes;
                   ReadKnob(Knob::DYNO_NODES, &nodes);
                   return nodes;
                 }),
      Field<int>(K::DYNO_FUZZ_ITERS,
                 [] {
                   return static_cast<int>(
                       KnobInt(Knob::DYNO_FUZZ_ITERS).value_or(0));
                 }),
  };
}

bool IsRaw(const KnobSpec& spec) {
  return spec.type == KnobType::kPath || spec.type == KnobType::kFlag;
}

/// An in-range value other than the declared default.
std::string InRangeValue(const KnobSpec& spec) {
  if (spec.type == KnobType::kDouble) {
    return std::string(spec.default_value) == "0.5" ? "0.25" : "0.5";
  }
  int64_t value = spec.lo;
  if (std::to_string(value) == spec.default_value) ++value;
  return std::to_string(value);
}

/// A value just outside [lo, hi], or past int64 when the range is all of it.
std::string OutOfRangeValue(const KnobSpec& spec) {
  if (spec.type == KnobType::kDouble) return "1.5";
  if (spec.hi < INT64_MAX) return std::to_string(spec.hi + 1);
  if (spec.lo > INT64_MIN) return std::to_string(spec.lo - 1);
  return "9223372036854775808";
}

/// Every knob variable unset for the test's scope, whatever the preset.
class KnobTableTest : public ::testing::Test {
 protected:
  KnobTableTest() : clear_(AllUnset()) {}

  static std::vector<ScopedEnv::Var> AllUnset() {
    std::vector<ScopedEnv::Var> vars;
    for (const KnobSpec& spec : kKnobSpecs) {
      vars.emplace_back(spec.name, std::nullopt);
    }
    return vars;
  }

  ScopedEnv clear_;
};

using KnobTableDeathTest = KnobTableTest;

TEST_F(KnobTableTest, EveryNumericRowHasAProbeAndEveryRawRowNone) {
  std::set<Knob> probed;
  for (const Probe& probe : Probes()) probed.insert(probe.knob);
  for (size_t i = 0; i < std::size(kKnobSpecs); ++i) {
    const KnobSpec& spec = kKnobSpecs[i];
    EXPECT_NE(probed.count(static_cast<Knob>(i)) > 0, IsRaw(spec))
        << spec.name;
  }
}

TEST_F(KnobTableTest, InRangeValuesLandInTheirFields) {
  for (const Probe& probe : Probes()) {
    const KnobSpec& spec = SpecOf(probe.knob);
    const double unset = probe.field();
    ScopedEnv env({{spec.name, InRangeValue(spec)}});
    EXPECT_EQ(probe.field(), probe.expected()) << spec.name;
    EXPECT_NE(probe.field(), unset) << spec.name;
  }
}

TEST_F(KnobTableTest, DeclaredDefaultIsTheUnsetConsumersValue) {
  for (const Probe& probe : Probes()) {
    if (!probe.default_holds) continue;
    const KnobSpec& spec = SpecOf(probe.knob);
    const double unset = probe.field();
    ScopedEnv env({{spec.name, spec.default_value}});
    EXPECT_EQ(probe.field(), unset) << spec.name;
  }
}

TEST_F(KnobTableTest, RawRowsReadTheVariableAsGiven) {
  for (const KnobSpec& spec : kKnobSpecs) {
    if (!IsRaw(spec)) continue;
    const Knob knob = static_cast<Knob>(&spec - kKnobSpecs);
    EXPECT_EQ(KnobValue(knob), nullptr) << spec.name;
    ScopedEnv env({{spec.name, "out/dir"}});
    EXPECT_STREQ(KnobValue(knob), "out/dir") << spec.name;
  }
}

TEST_F(KnobTableDeathTest, BadValuesAbortNamingTheVariable) {
  for (const Probe& probe : Probes()) {
    const KnobSpec& spec = SpecOf(probe.knob);
    const std::string message =
        std::string(spec.name) + "=.* is not (an integer|a number) in \\[";
    for (const std::string& bad :
         {std::string(), std::string("x"), std::string("1x"),
          OutOfRangeValue(spec)}) {
      EXPECT_DEATH(
          {
            ScopedEnv env({{spec.name, bad}});
            probe.field();
          },
          message)
          << spec.name << "=\"" << bad << "\"";
    }
  }
}

}  // namespace
}  // namespace dyno
