// Concurrency sweep over the multi-query service (DESIGN.md §6.6): a fixed
// batch of 8 TPC-H query sessions with a seeded arrival schedule is run
// through the QueryService at increasing admission concurrency (1 → 8
// sessions at once) on the paper's SF100 cluster. Reports per-query latency
// (p50/p99 of arrival→finish), queue-wait percentiles, shed/rejected
// counts and cluster-slot utilization, and writes the whole sweep plus the
// priority-mix scenario below to BENCH_concurrency.json (override the path
// with DYNO_BENCH_CONCURRENCY_OUT). Expected shape: admitting more
// sessions raises slot utilization and cuts p50 latency sharply — the
// cluster is far wider than one query's parallelism — while p99 falls more
// slowly (the last arrivals still queue behind everyone at low
// concurrency).
//
// The priority-mix scenario (DESIGN.md §6.9) overloads 2 slots with 8
// sessions, half of them priority 5 with preemption and a service
// checkpoint namespace. CI gate: the high-priority half's p99 latency must
// beat the same queries' p99 in the no-priority baseline — otherwise the
// priority plumbing is dead weight.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/knobs.h"
#include "service/query_service.h"

using namespace dyno;
using namespace dyno::bench;

namespace {

struct SweepPoint {
  int concurrency = 0;
  SimMillis p50_ms = 0;
  SimMillis p99_ms = 0;
  SimMillis queue_p50_ms = 0;
  SimMillis queue_p99_ms = 0;
  SimMillis makespan_ms = 0;
  double utilization = 0.0;
  int completed = 0;
  int shed = 0;      ///< Load-shed by the service (ResourceExhausted).
  int rejected = 0;  ///< Refused at Enqueue (admission-queue backpressure).
  /// Largest per-task memory footprint any query's jobs reported (0 unless
  /// the engine enforces a reduce memory mode).
  uint64_t peak_task_memory_bytes = 0;
};

SimMillis Percentile(std::vector<SimMillis> sorted, double p) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

const std::vector<std::pair<std::string, Query>>& QueryMix() {
  static const auto* mix = new std::vector<std::pair<std::string, Query>>{
      {"Q10", MakeTpchQ10()}, {"Q2", MakeTpchQ2()},
      {"Q8p", MakeTpchQ8Prime()}, {"Q9p", MakeTpchQ9Prime()},
  };
  return *mix;
}

SweepPoint RunAtConcurrency(int concurrency) {
  auto scenario = MakeScenario("SF100");

  StatsStore store;
  QueryServiceOptions options;
  options.max_concurrent = concurrency;
  options.admission_queue_limit = 64;
  options.seed = 2024;
  options.arrival_window_ms = 60000;
  options.ApplyEnvOverrides();
  QueryService service(scenario->engine.get(), scenario->catalog.get(),
                       &store, options);

  SweepPoint point;
  point.concurrency = concurrency;
  const int kQueries = 8;
  for (int i = 0; i < kQueries; ++i) {
    QuerySubmission sub;
    sub.query_id = QueryMix()[i % QueryMix().size()].first + "-" +
                   std::to_string(i);
    sub.tenant = (i % 2 == 0) ? "alpha" : "beta";
    sub.query = QueryMix()[i % QueryMix().size()].second;
    sub.options.cost = scenario->cost;
    sub.options.pilot.k = 128;
    sub.arrival_offset_ms = -1;  // seeded service RNG stream
    Status status = service.Enqueue(std::move(sub));
    if (status.code() == StatusCode::kResourceExhausted) {
      ++point.rejected;
      continue;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "enqueue failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  const SimMillis start = scenario->engine->now();
  std::vector<QueryOutcome> outcomes = service.RunAll();
  const SimMillis elapsed = scenario->engine->now() - start;

  std::vector<SimMillis> latencies;
  std::vector<SimMillis> queue_waits;
  SimMillis slot_ms = 0;
  SimMillis last_finish = 0;
  for (const QueryOutcome& outcome : outcomes) {
    if (outcome.status.code() == StatusCode::kResourceExhausted) {
      ++point.shed;
      continue;
    }
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", outcome.query_id.c_str(),
                   outcome.status.ToString().c_str());
      continue;
    }
    ++point.completed;
    latencies.push_back(outcome.Latency());
    queue_waits.push_back(outcome.admit_ms - outcome.arrival_ms);
    slot_ms += outcome.slot_ms;
    last_finish = std::max(last_finish, outcome.finish_ms);
    point.peak_task_memory_bytes = std::max(
        point.peak_task_memory_bytes, outcome.report.peak_task_memory_bytes);
  }
  point.p50_ms = Percentile(latencies, 0.50);
  point.p99_ms = Percentile(latencies, 0.99);
  point.queue_p50_ms = Percentile(queue_waits, 0.50);
  point.queue_p99_ms = Percentile(queue_waits, 0.99);
  point.makespan_ms = last_finish - start;
  const ClusterConfig& cluster = scenario->engine->config();
  const double total_slots =
      static_cast<double>(cluster.map_slots + cluster.reduce_slots);
  if (elapsed > 0 && total_slots > 0) {
    point.utilization =
        static_cast<double>(slot_ms) / (static_cast<double>(elapsed) *
                                        total_slots);
  }
  return point;
}

/// The priority-mix overload scenario: 8 sessions contending for 2 slots,
/// the odd-indexed half at priority 5. `with_priorities` toggles the
/// priorities and preemption; the arrival schedule, query mix and cluster
/// are identical either way, so the two runs are directly comparable.
struct PriorityMixResult {
  SimMillis high_p99_ms = 0;   ///< p99 latency of the would-be-high half.
  SimMillis other_p99_ms = 0;  ///< p99 latency of the rest.
  int completed = 0;
  int preemptions = 0;
  int shed = 0;
};

PriorityMixResult RunPriorityMix(bool with_priorities) {
  auto scenario = MakeScenario("SF100");

  StatsStore store;
  QueryServiceOptions options;
  options.max_concurrent = 2;
  options.admission_queue_limit = 64;
  options.seed = 2024;
  options.arrival_window_ms = 60000;
  options.priority_preemption = with_priorities;
  options.checkpoint_root = "/bench_svc";
  QueryService service(scenario->engine.get(), scenario->catalog.get(),
                       &store, options);

  const int kQueries = 8;
  for (int i = 0; i < kQueries; ++i) {
    QuerySubmission sub;
    sub.query_id = QueryMix()[i % QueryMix().size()].first + "-" +
                   std::to_string(i);
    sub.tenant = (i % 2 == 0) ? "alpha" : "beta";
    sub.query = QueryMix()[i % QueryMix().size()].second;
    sub.options.cost = scenario->cost;
    sub.options.pilot.k = 128;
    sub.arrival_offset_ms = -1;  // same seed → same schedule both runs
    sub.priority = (with_priorities && i % 2 == 1) ? 5 : 0;
    Status status = service.Enqueue(std::move(sub));
    if (!status.ok()) {
      std::fprintf(stderr, "enqueue failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  PriorityMixResult result;
  std::vector<SimMillis> high_latencies;
  std::vector<SimMillis> other_latencies;
  std::vector<QueryOutcome> outcomes = service.RunAll();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const QueryOutcome& outcome = outcomes[i];
    result.preemptions += outcome.preemptions;
    if (outcome.status.code() == StatusCode::kResourceExhausted) {
      ++result.shed;
      continue;
    }
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", outcome.query_id.c_str(),
                   outcome.status.ToString().c_str());
      continue;
    }
    ++result.completed;
    // Bucket by the position that *would* be high-priority, so the
    // baseline measures the same four queries.
    (i % 2 == 1 ? high_latencies : other_latencies)
        .push_back(outcome.Latency());
  }
  result.high_p99_ms = Percentile(high_latencies, 0.99);
  result.other_p99_ms = Percentile(other_latencies, 0.99);
  return result;
}

}  // namespace

int main() {
  PrintHeader("Concurrency sweep: 8 TPC-H sessions, SF100",
              {"p50 s", "p99 s", "queue p99 s", "makespan s", "util %",
               "peak mem", "done"});
  std::vector<SweepPoint> sweep;
  for (int concurrency : {1, 2, 4, 8}) {
    SweepPoint point = RunAtConcurrency(concurrency);
    sweep.push_back(point);
    std::printf("N=%d  p50=%.1fs  p99=%.1fs  qwait p50=%.1fs p99=%.1fs  "
                "makespan=%.1fs  util=%.1f%%  peakmem=%lluKB  done=%d/8  "
                "shed=%d rej=%d\n",
                point.concurrency, point.p50_ms / 1000.0,
                point.p99_ms / 1000.0, point.queue_p50_ms / 1000.0,
                point.queue_p99_ms / 1000.0, point.makespan_ms / 1000.0,
                point.utilization * 100.0,
                (unsigned long long)(point.peak_task_memory_bytes / 1024),
                point.completed, point.shed, point.rejected);
  }

  std::printf("\nPriority mix: 8 sessions, 2 slots, half at priority 5\n");
  PriorityMixResult base = RunPriorityMix(/*with_priorities=*/false);
  PriorityMixResult prio = RunPriorityMix(/*with_priorities=*/true);
  std::printf("baseline   : high-half p99=%.1fs  other p99=%.1fs  done=%d/8\n",
              base.high_p99_ms / 1000.0, base.other_p99_ms / 1000.0,
              base.completed);
  std::printf("priorities : high-half p99=%.1fs  other p99=%.1fs  done=%d/8  "
              "preemptions=%d\n",
              prio.high_p99_ms / 1000.0, prio.other_p99_ms / 1000.0,
              prio.completed, prio.preemptions);

  const char* out_path = KnobValue(Knob::DYNO_BENCH_CONCURRENCY_OUT);
  if (out_path == nullptr) {
    out_path = SpecOf(Knob::DYNO_BENCH_CONCURRENCY_OUT).default_value;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\"bench\":\"concurrency\",\"queries\":8,"
                  "\"cluster\":\"SF100\",\"sweep\":[\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    std::fprintf(
        f,
        "  {\"concurrency\":%d,\"p50_latency_ms\":%lld,"
        "\"p99_latency_ms\":%lld,\"queue_wait_p50_ms\":%lld,"
        "\"queue_wait_p99_ms\":%lld,\"makespan_ms\":%lld,"
        "\"slot_utilization\":%.4f,\"peak_task_memory_bytes\":%llu,"
        "\"completed\":%d,\"shed\":%d,"
        "\"rejected\":%d}%s\n",
        point.concurrency, (long long)point.p50_ms, (long long)point.p99_ms,
        (long long)point.queue_p50_ms, (long long)point.queue_p99_ms,
        (long long)point.makespan_ms, point.utilization,
        (unsigned long long)point.peak_task_memory_bytes, point.completed,
        point.shed, point.rejected, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f,
               "],\"priority_mix\":{\"concurrency\":2,"
               "\"high_p99_baseline_ms\":%lld,"
               "\"high_p99_with_priorities_ms\":%lld,"
               "\"other_p99_baseline_ms\":%lld,"
               "\"other_p99_with_priorities_ms\":%lld,"
               "\"preemptions\":%d,\"shed\":%d,"
               "\"completed_baseline\":%d,\"completed_with_priorities\":%d}"
               "}\n",
               (long long)base.high_p99_ms, (long long)prio.high_p99_ms,
               (long long)base.other_p99_ms, (long long)prio.other_p99_ms,
               prio.preemptions, prio.shed, base.completed, prio.completed);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // Sanity for CI: every query must complete at every concurrency, and
  // added concurrency must not make the batch slower end to end.
  for (const SweepPoint& point : sweep) {
    if (point.completed != 8) {
      std::fprintf(stderr, "FAIL: only %d/8 queries completed at N=%d\n",
                   point.completed, point.concurrency);
      return 1;
    }
  }
  if (sweep.back().makespan_ms > sweep.front().makespan_ms) {
    std::fprintf(stderr, "FAIL: makespan at N=8 exceeds N=1\n");
    return 1;
  }
  // Priority gate: under overload, the high-priority half must see a
  // better p99 than the same queries without priorities.
  if (base.completed != 8 || prio.completed != 8) {
    std::fprintf(stderr, "FAIL: priority-mix runs did not complete 8/8\n");
    return 1;
  }
  if (prio.high_p99_ms >= base.high_p99_ms) {
    std::fprintf(stderr,
                 "FAIL: high-priority p99 (%.1fs) does not beat the "
                 "no-priority baseline (%.1fs)\n",
                 prio.high_p99_ms / 1000.0, base.high_p99_ms / 1000.0);
    return 1;
  }
  return 0;
}
