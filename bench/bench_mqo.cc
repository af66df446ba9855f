// Multi-query cache benchmark (DESIGN.md §6.7): the same four-query TPC-H
// mix is submitted three times in a row through the QueryService, once with
// the cross-query subtree cache off and once with it on. The first pass is
// cold either way; on the repeated passes the cached service should serve
// whole subtrees (usually the query root) from pinned DFS results, cutting
// the repeated-portion latency while producing byte-identical outputs.
// Writes BENCH_mqo.json (override the path with DYNO_BENCH_MQO_OUT).
//
// CI gates: the cold pass is byte-identical across the two arms (a cache
// that is never hit must not perturb execution), every occurrence is
// row-set-identical across the arms, and the repeated portion is at least
// 2x faster with the cache on. Repeated passes are compared canonically
// rather than byte-for-byte because the cache-off arm is not byte-stable
// against itself: warm pilot statistics can legitimately flip the chosen
// plan between passes, reordering the (identical) result rows.

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

struct SequenceResult {
  std::vector<SimMillis> latency_ms;        ///< Per occurrence, submit order.
  std::vector<std::string> result_bytes;    ///< Concatenated split payloads.
  std::vector<std::vector<Value>> result_rows;  ///< Sorted decoded rows.
  SimMillis cold_ms = 0;                    ///< First pass over the mix.
  SimMillis repeat_ms = 0;                  ///< Passes 2..N over the mix.
  int total_jobs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

constexpr int kRepeats = 3;

std::string BytesOf(const QueryRunReport& report) {
  std::string bytes;
  if (report.result == nullptr) return bytes;
  for (const Split& split : report.result->splits()) bytes += split.data;
  return bytes;
}

std::vector<Value> SortedRowsOf(const QueryRunReport& report) {
  std::vector<Value> rows;
  if (report.result == nullptr) return rows;
  auto decoded = ReadAllRows(*report.result);
  if (!decoded.ok()) {
    std::fprintf(stderr, "result decode failed: %s\n",
                 decoded.status().ToString().c_str());
    std::exit(1);
  }
  rows = std::move(decoded).value();
  std::sort(rows.begin(), rows.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return rows;
}

bool SameRows(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

SequenceResult RunSequence(bool with_cache) {
  auto scenario = MakeScenario("SF100");

  StatsStore store;
  QueryServiceOptions options;
  options.max_concurrent = 1;
  options.enable_subtree_cache = with_cache;
  // No ApplyEnvOverrides here: the two arms must differ only in the cache.
  QueryService service(scenario->engine.get(), scenario->catalog.get(),
                       &store, options);

  const std::vector<std::pair<std::string, Query>> mix = {
      {"Q10", MakeTpchQ10()}, {"Q2", MakeTpchQ2()},
      {"Q8p", MakeTpchQ8Prime()}, {"Q9p", MakeTpchQ9Prime()},
  };

  SequenceResult out;
  for (int pass = 0; pass < kRepeats; ++pass) {
    for (size_t q = 0; q < mix.size(); ++q) {
      QuerySubmission sub;
      sub.query_id =
          mix[q].first + "-p" + std::to_string(pass);
      sub.query = mix[q].second;
      sub.options.cost = scenario->cost;
      sub.options.pilot.k = 128;
      sub.arrival_offset_ms = 0;
      Status status = service.Enqueue(std::move(sub));
      if (!status.ok()) {
        std::fprintf(stderr, "enqueue failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      // One query per RunAll call: the per-occurrence latency is then a
      // clean engine-clock delta, and the service-owned cache (and the
      // shared pilot StatsStore) carry over between calls.
      const SimMillis t0 = scenario->engine->now();
      std::vector<QueryOutcome> outcomes = service.RunAll();
      const SimMillis elapsed = scenario->engine->now() - t0;
      if (outcomes.size() != 1 || !outcomes[0].status.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", sub.query_id.c_str(),
                     outcomes.empty()
                         ? "no outcome"
                         : outcomes[0].status.ToString().c_str());
        std::exit(1);
      }
      out.latency_ms.push_back(elapsed);
      out.result_bytes.push_back(BytesOf(outcomes[0].report));
      out.result_rows.push_back(SortedRowsOf(outcomes[0].report));
      out.total_jobs += outcomes[0].report.jobs_run;
      (pass == 0 ? out.cold_ms : out.repeat_ms) += elapsed;
    }
  }
  if (service.subtree_cache() != nullptr) {
    out.cache_hits = service.subtree_cache()->hits();
    out.cache_misses = service.subtree_cache()->misses();
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader("Multi-query cache: 4-query mix x 3 passes, SF100",
              {"cold s", "repeat s", "jobs", "hits"});

  SequenceResult off = RunSequence(false);
  SequenceResult on = RunSequence(true);
  std::printf("cache off  cold=%.1fs  repeat=%.1fs  jobs=%d\n",
              off.cold_ms / 1000.0, off.repeat_ms / 1000.0, off.total_jobs);
  std::printf("cache on   cold=%.1fs  repeat=%.1fs  jobs=%d  hits=%llu  "
              "misses=%llu\n",
              on.cold_ms / 1000.0, on.repeat_ms / 1000.0, on.total_jobs,
              (unsigned long long)on.cache_hits,
              (unsigned long long)on.cache_misses);

  const size_t mix_size = off.result_bytes.size() / kRepeats;
  bool cold_byte_identical = true;
  for (size_t i = 0; i < mix_size; ++i) {
    cold_byte_identical = cold_byte_identical &&
                          off.result_bytes[i] == on.result_bytes[i];
  }
  bool rows_identical = off.result_rows.size() == on.result_rows.size();
  for (size_t i = 0; rows_identical && i < off.result_rows.size(); ++i) {
    rows_identical = SameRows(off.result_rows[i], on.result_rows[i]);
  }
  const double speedup =
      on.repeat_ms > 0
          ? static_cast<double>(off.repeat_ms) /
                static_cast<double>(on.repeat_ms)
          : 0.0;
  const uint64_t lookups = on.cache_hits + on.cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(on.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  std::printf("repeated-portion speedup=%.2fx  hit_rate=%.2f\n", speedup,
              hit_rate);

  const char* out_path = KnobValue(Knob::DYNO_BENCH_MQO_OUT);
  if (out_path == nullptr) {
    out_path = SpecOf(Knob::DYNO_BENCH_MQO_OUT).default_value;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"mqo\",\"cluster\":\"SF100\",\"mix\":4,"
               "\"passes\":%d,\n", kRepeats);
  std::fprintf(f,
               " \"cache_off\":{\"cold_ms\":%lld,\"repeat_ms\":%lld,"
               "\"jobs\":%d},\n",
               (long long)off.cold_ms, (long long)off.repeat_ms,
               off.total_jobs);
  std::fprintf(f,
               " \"cache_on\":{\"cold_ms\":%lld,\"repeat_ms\":%lld,"
               "\"jobs\":%d,\"hits\":%llu,\"misses\":%llu},\n",
               (long long)on.cold_ms, (long long)on.repeat_ms, on.total_jobs,
               (unsigned long long)on.cache_hits,
               (unsigned long long)on.cache_misses);
  std::fprintf(f,
               " \"repeat_speedup\":%.4f,\"hit_rate\":%.4f,"
               "\"cold_byte_identical\":%s,\"rows_identical\":%s}\n",
               speedup, hit_rate, cold_byte_identical ? "true" : "false",
               rows_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (!cold_byte_identical) {
    std::fprintf(stderr,
                 "FAIL: cold pass diverges between cache on and off\n");
    return 1;
  }
  if (!rows_identical) {
    std::fprintf(stderr,
                 "FAIL: result rows diverge between cache on and off\n");
    return 1;
  }
  if (on.cache_hits == 0) {
    std::fprintf(stderr, "FAIL: repeated passes produced no cache hits\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: repeated portion only %.2fx faster with cache\n",
                 speedup);
    return 1;
  }
  return 0;
}
