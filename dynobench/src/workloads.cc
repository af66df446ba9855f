#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "baselines/best_static.h"
#include "baselines/relopt.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "service/query_service.h"
#include "stats/stats_store.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dynobench {

using dyno::Status;

void ReportTotals::Add(const dyno::QueryRunReport& report) {
  pilot_ms += report.pilot_ms;
  optimizer_ms += report.optimizer_ms;
  stats_overhead_ms += report.stats_overhead_ms;
  optimizer_calls += report.optimizer_calls;
  plan_changes += report.plan_changes;
  broadcast_fallbacks += report.broadcast_fallbacks;
  jobs_run += report.jobs_run;
  job_retries += report.job_retries;
  oom_retries += report.oom_retries;
}

const std::vector<std::string>& SimMetricNames() {
  static const std::vector<std::string> names = {
      "dynopt_sim_s",     "dynopt_vs_best", "query_p50_sim_s",
      "query_tail_sim_s", "makespan_sim_s"};
  return names;
}

namespace {

struct NamedQuery {
  std::string name;
  std::string id;  ///< DFS- and tag-safe spelling of `name`.
  dyno::Query query;
};

std::vector<NamedQuery> PaperQueries() {
  return {{"Q2", "q2", dyno::MakeTpchQ2()},
          {"Q8'", "q8p", dyno::MakeTpchQ8Prime()},
          {"Q9'", "q9p", dyno::MakeTpchQ9Prime()},
          {"Q10", "q10", dyno::MakeTpchQ10()}};
}

/// One query run: its status, simulated time and result file.
struct Outcome {
  Status status;
  SimMillis sim_ms = 0;
  std::shared_ptr<dyno::DfsFile> output;
};

Outcome RunBestStatic(Scenario* sc, const dyno::Query& query) {
  dyno::BestStaticOptions options;
  options.cost = sc->cost;
  options.execute_top_k = 5;
  dyno::BestStaticBaseline baseline(sc->engine.get(), sc->catalog.get(),
                                    options);
  Outcome out;
  auto result = baseline.Run(query.join_block);
  if (!result.ok()) {
    out.status = result.status();
  } else if (result->output == nullptr) {
    out.status = Status::Internal("BESTSTATIC produced no output");
  } else {
    out.sim_ms = result->best_time_ms;
    out.output = result->output;
  }
  return out;
}

Outcome RunRelopt(Scenario* sc, const dyno::Query& query) {
  dyno::RelOptBaseline relopt(sc->engine.get(), sc->catalog.get(), sc->cost);
  Outcome out;
  auto run = relopt.PlanAndExecute(query.join_block, dyno::ExecOptions());
  if (!run.ok()) {
    out.status = run.status();
  } else {
    out.status = run->exec_status;
    out.sim_ms = run->elapsed_ms;
    out.output = run->output;
  }
  return out;
}

Outcome RunDyno(Scenario* sc, const dyno::Query& query,
                const dyno::DynoOptions& options, ReportTotals* totals) {
  dyno::StatsStore store;
  dyno::DynoDriver driver(sc->engine.get(), sc->catalog.get(), &store,
                          options);
  Outcome out;
  auto report = driver.Execute(query);
  if (!report.ok()) {
    out.status = report.status();
    return out;
  }
  totals->Add(*report);
  out.sim_ms = report->total_ms;
  out.output = report->result;
  return out;
}

/// A baseline dying with OutOfMemory is the paper's documented failure mode
/// (Jaql's broadcast join does not spill, §6): counted, not an error.
bool ExpectedFailure(const std::string& variant, const Status& status) {
  return (variant == "BESTSTATIC" || variant == "RELOPT") &&
         status.code() == dyno::StatusCode::kOutOfMemory;
}

/// Collects latencies and plan quality into the simulated-clock end-to-end
/// metrics. Plan quality is kept per (query, SF) cell: the mean DYNOPT time
/// of the cell's runs over the cell's BESTSTATIC time. In fig7 every cell
/// has one run; in service and degraded a cell's runs are its sessions or
/// fault streams.
struct SimSummary {
  struct Cell {
    double dynopt_ms = 0.0;
    int runs = 0;
    double best_ms = 0.0;
  };
  std::vector<double> latencies_s;
  std::map<std::string, Cell> cells;
  double dynopt_sim_s = 0.0;
  double makespan_s = 0.0;

  void AddDynopt(const std::string& cell, SimMillis ms, SimMillis best_ms) {
    Cell& c = cells[cell];
    c.dynopt_ms += static_cast<double>(ms);
    c.runs++;
    c.best_ms = static_cast<double>(best_ms);
    dynopt_sim_s += static_cast<double>(ms) / 1e3;
  }

  void Fill(PassResult* out) const {
    Tail tail = TailOf(latencies_s);
    std::vector<double> ratios;
    int losses = 0;
    for (const auto& [name, c] : cells) {
      ratios.push_back(c.dynopt_ms / c.runs / c.best_ms);
      if (ratios.back() > 1.0) losses++;
    }
    out->sim["dynopt_sim_s"] = {dynopt_sim_s, "sim_s"};
    out->sim["dynopt_vs_best"] = {GeoMean(ratios), "ratio"};
    out->sim["query_p50_sim_s"] = {Median(latencies_s), "sim_s"};
    out->sim["query_tail_sim_s"] = {tail.value, "sim_s"};
    out->sim["makespan_sim_s"] = {makespan_s, "sim_s"};
    out->layer["dynopt_losses"] = losses;
    out->layer["query_tail_percentile"] = tail.percentile;
    out->layer["query_samples"] = static_cast<double>(tail.samples);
  }
};

void CheckDigest(const std::string& what, const dyno::DfsFile* file,
                 const Digest& expected, PassResult* out) {
  if (file == nullptr) {
    out->failed++;
    out->errors.push_back(what + ": no result file");
    return;
  }
  auto digest = DigestFile(*file);
  if (!digest.ok()) {
    out->failed++;
    out->errors.push_back(what + ": " + digest.status().ToString());
  } else if (*digest != expected) {
    out->failed++;
    out->errors.push_back(dyno::StrFormat(
        "%s: wrong rows (%llu rows vs %llu expected)", what.c_str(),
        (unsigned long long)digest->rows, (unsigned long long)expected.rows));
  }
}

/// Clean reference of one query: the BESTSTATIC digest and time.
struct CleanResult {
  Digest digest;
  SimMillis best_ms = 0;
};

// ---------------------------------------------------------------------------
// fig7: Q2, Q8', Q9', Q10 x SF100/SF300/SF1000 x the four variants.

class Fig7 : public Workload {
 public:
  explicit Fig7(const Seeds& seeds) : seeds_(seeds) {}

  std::vector<std::string> ScaleFactors() const override {
    return {"SF100", "SF300", "SF1000"};
  }

  PassResult Run(const std::vector<Scenario*>& scenarios,
                 Tracer* tracer) override {
    struct Cell {
      std::string label;
      std::vector<std::pair<std::string, Outcome>> variants;
    };
    PassResult out;
    SimSummary sim;
    std::vector<Cell> cells;
    std::vector<NamedQuery> queries = PaperQueries();
    double start = NowSeconds();
    for (Scenario* sc : scenarios) {
      SimMillis clock_start = sc->engine->now();
      for (const NamedQuery& q : queries) {
        Cell cell;
        cell.label = q.name + " " + sc->sf;
        auto run = [&](const char* variant, const char* layer, auto&& fn) {
          Tracer::Scope span(tracer, layer, variant,
                             "workload=fig7 sf=" + sc->sf + " query=" + q.name);
          cell.variants.emplace_back(variant, fn());
        };
        run("BESTSTATIC", "baselines",
            [&] { return RunBestStatic(sc, q.query); });
        run("RELOPT", "baselines", [&] { return RunRelopt(sc, q.query); });
        run("DYNOPT-SIMPLE", "dyno", [&] {
          return RunDyno(sc, q.query,
                         DynoptOptions(*sc, seeds_.pilot,
                                       dyno::ExecutionStrategy::kSimpleParallel),
                         &out.reports);
        });
        run("DYNOPT", "dyno", [&] {
          return RunDyno(sc, q.query,
                         DynoptOptions(*sc, seeds_.pilot,
                                       dyno::ExecutionStrategy::kUncertain1),
                         &out.reports);
        });
        cells.push_back(std::move(cell));
      }
      sim.makespan_s += static_cast<double>(sc->engine->now() - clock_start) / 1e3;
    }
    out.wall_s = NowSeconds() - start;

    // Checks (untimed): every variant's rows equal BESTSTATIC's.
    for (const Cell& cell : cells) {
      const Outcome& best = cell.variants[0].second;
      Digest expected;
      bool have_expected = false;
      if (best.status.ok()) {
        auto digest = DigestFile(*best.output);
        if (digest.ok()) {
          expected = *digest;
          have_expected = true;
        }
      }
      for (const auto& [variant, outcome] : cell.variants) {
        out.attempted++;
        std::string what = cell.label + " " + variant;
        if (!outcome.status.ok()) {
          if (ExpectedFailure(variant, outcome.status)) {
            out.expected_failures++;
          } else {
            out.failed++;
            out.errors.push_back(what + ": " + outcome.status.ToString());
          }
          continue;
        }
        if (!have_expected) {
          out.failed++;
          out.errors.push_back(what + ": no BESTSTATIC reference");
          continue;
        }
        CheckDigest(what, outcome.output.get(), expected, &out);
        sim.latencies_s.push_back(static_cast<double>(outcome.sim_ms) / 1e3);
        if (variant == "DYNOPT") {
          sim.AddDynopt(cell.label, outcome.sim_ms, best.sim_ms);
        }
      }
    }
    sim.Fill(&out);
    return out;
  }

 private:
  Seeds seeds_;
};

// ---------------------------------------------------------------------------
// service: open loops of DYNOPT sessions through QueryService instances.

class Service : public Workload {
 public:
  /// One pass runs kInstances independent service instances back to back,
  /// each with a fresh cache and stats store and its own pilot and arrival
  /// streams. Under cache pressure one instance's hit pattern settles into
  /// one of a few cycles; pooling instances averages over them.
  static constexpr int kInstances = 8;
  /// Sessions arrive in bursts, whatever the service is doing: burst b
  /// opens at b * kBurstGapMs and its j-th session is due kStaggerMs * j
  /// later plus a seeded jitter below kJitterMs. A burst overloads the
  /// three execution slots, so sessions queue and preempt; the service
  /// drains before the next burst opens.
  static constexpr int kBursts = 2;
  static constexpr int kBurstSize = 6;
  static constexpr int kInstanceSessions = kBursts * kBurstSize;
  static constexpr double kBurstGapMs = 900000.0;
  static constexpr double kStaggerMs = 10000.0;
  static constexpr double kJitterMs = 2000.0;
  /// Subtree-cache budget, against a distinct-subtree working set of about
  /// twelve entries and 2 MiB (NOTES.md): the largest result exceeds the
  /// byte budget and is never cached, and the entry bound makes the rest
  /// evict one another.
  static constexpr uint64_t kCacheBytes = 1024 * 1024;
  static constexpr size_t kCacheEntries = 6;

  explicit Service(const Seeds& seeds) : seeds_(seeds) {}

  std::vector<std::string> ScaleFactors() const override { return {"SF300"}; }

  /// One data set for every workload seed. The cache's eviction cycle
  /// depends on result sizes, and across data seeds it splits into regimes
  /// whose host time differs by half (NOTES.md); the seed still drives the
  /// arrival jitter, the pilot samples and the service's own stream.
  uint64_t TpchSeed(const Seeds& seeds) const override {
    (void)seeds;
    return dyno::TpchConfig().seed;
  }

  bool NeedsReference() const override { return true; }

  Status Reference(Scenario* clean) override {
    for (const NamedQuery& q : PaperQueries()) {
      Outcome best = RunBestStatic(clean, q.query);
      DYNO_RETURN_IF_ERROR(best.status);
      DYNO_ASSIGN_OR_RETURN(Digest digest, DigestFile(*best.output));
      reference_[q.name] = {digest, best.sim_ms};
    }
    return Status::OK();
  }

  PassResult Run(const std::vector<Scenario*>& scenarios,
                 Tracer* tracer) override {
    Scenario* sc = scenarios[0];
    PassResult out;
    SimSummary sim;
    Totals totals;
    for (int instance = 0; instance < kInstances; ++instance) {
      RunInstance(sc, instance, tracer, &out, &sim, &totals);
    }
    sim.Fill(&out);

    const dyno::ClusterConfig& cluster = sc->engine->config();
    Tail wait_tail = TailOf(totals.queue_wait_s);
    double capacity_ms = sim.makespan_s * 1e3 *
                         (cluster.map_slots + cluster.reduce_slots);
    out.layer["service.queue_wait_p50_sim_s"] = Median(totals.queue_wait_s);
    out.layer["service.queue_wait_tail_sim_s"] = wait_tail.value;
    out.layer["service.preemptions"] = totals.preemptions;
    out.layer["service.shed"] = totals.shed;
    out.layer["service.slot_util"] =
        capacity_ms > 0 ? totals.slot_ms / capacity_ms : 0.0;
    double lookups = totals.hits + totals.misses;
    out.layer["cache.hits"] = totals.hits;
    out.layer["cache.misses"] = totals.misses;
    out.layer["cache.hit_ratio"] = lookups > 0 ? totals.hits / lookups : 0.0;
    out.layer["cache.evictions"] = totals.evictions;
    return out;
  }

 private:
  /// Service-level sums over a pass's instances.
  struct Totals {
    std::vector<double> queue_wait_s;
    double slot_ms = 0.0;
    double preemptions = 0.0;
    double shed = 0.0;
    double hits = 0.0;
    double misses = 0.0;
    double evictions = 0.0;
  };

  void RunInstance(Scenario* sc, int instance, Tracer* tracer,
                   PassResult* out, SimSummary* sim, Totals* totals) {
    uint64_t salt = static_cast<uint64_t>(instance);
    dyno::QueryServiceOptions options;
    options.max_concurrent = 3;
    options.tenant_slots = 2;
    options.admission_queue_limit = 1024;
    options.seed = dyno::Mix64(seeds_.service + salt);
    options.enable_subtree_cache = true;
    options.subtree_cache.max_bytes = kCacheBytes;
    options.subtree_cache.max_entries = kCacheEntries;
    options.share_pilot_stats = true;
    options.priority_preemption = true;
    options.checkpoint_root = dyno::StrFormat("/svc/%d", instance);

    std::vector<NamedQuery> queries = PaperQueries();
    dyno::StatsStore store;
    dyno::QueryService service(sc->engine.get(), sc->catalog.get(), &store,
                               options);
    dyno::Rng rng(options.seed);
    std::map<std::string, std::string> query_of;  // query_id -> query name
    for (int i = 0; i < kInstanceSessions; ++i) {
      const NamedQuery& q = queries[i % queries.size()];
      dyno::QuerySubmission sub;
      sub.query_id = dyno::StrFormat("i%d-s%02d-%s", instance, i, q.id.c_str());
      sub.tenant = i % 2 == 0 ? "tenant-a" : "tenant-b";
      sub.priority = (i / 4) % 3 == 2 ? 1 : 0;
      sub.query = q.query;
      sub.options = DynoptOptions(*sc, dyno::Mix64(seeds_.pilot + salt),
                                  dyno::ExecutionStrategy::kUncertain1);
      sub.arrival_offset_ms = static_cast<SimMillis>(
          (i / kBurstSize) * kBurstGapMs + (i % kBurstSize) * kStaggerMs +
          rng.NextDouble() * kJitterMs);
      query_of[sub.query_id] = q.name;
      Status st = service.Enqueue(std::move(sub));
      if (!st.ok()) {
        out->failed++;
        out->errors.push_back("enqueue: " + st.ToString());
      }
    }

    double start = NowSeconds();
    std::vector<dyno::QueryOutcome> outcomes;
    {
      Tracer::Scope span(
          tracer, "service", "RunAll",
          dyno::StrFormat("workload=service sf=%s instance=%d sessions=%d",
                          sc->sf.c_str(), instance, kInstanceSessions));
      outcomes = service.RunAll();
    }
    out->wall_s += NowSeconds() - start;

    SimMillis first_arrival = -1, last_finish = 0;
    for (const dyno::QueryOutcome& o : outcomes) {
      out->attempted++;
      if (!o.status.ok()) {
        if (o.status.code() == dyno::StatusCode::kResourceExhausted) {
          totals->shed++;
        }
        out->failed++;
        out->errors.push_back(o.query_id + ": " + o.status.ToString());
        continue;
      }
      const std::string& name = query_of[o.query_id];
      const CleanResult& ref = reference_[name];
      CheckDigest(o.query_id, o.report.result.get(), ref.digest, out);
      out->reports.Add(o.report);
      sim->latencies_s.push_back(static_cast<double>(o.Latency()) / 1e3);
      sim->AddDynopt(name, o.report.total_ms, ref.best_ms);
      totals->queue_wait_s.push_back(
          static_cast<double>(o.admit_ms - o.arrival_ms) / 1e3);
      if (first_arrival < 0 || o.arrival_ms < first_arrival) {
        first_arrival = o.arrival_ms;
      }
      last_finish = std::max(last_finish, o.finish_ms);
      totals->slot_ms += static_cast<double>(o.slot_ms);
      totals->preemptions += o.preemptions;
    }
    if (first_arrival >= 0) {
      sim->makespan_s += static_cast<double>(last_finish - first_arrival) / 1e3;
    }
    if (const dyno::SubtreeCache* cache = service.subtree_cache()) {
      totals->hits += static_cast<double>(cache->hits());
      totals->misses += static_cast<double>(cache->misses());
      totals->evictions += static_cast<double>(cache->evictions());
    }
    // Instances are independent: drop what this one pinned on the DFS.
    sc->dfs.DeleteWithPrefix(options.subtree_cache.dfs_prefix);
  }

  Seeds seeds_;
  std::map<std::string, CleanResult> reference_;
};

// ---------------------------------------------------------------------------
// degraded: DYNOPT alone on the four queries with every fault domain on,
// once per fault stream.

class Degraded : public Workload {
 public:
  /// Independent fault streams per pass. Faults are rare, costly events;
  /// summing over several streams keeps one run's figures steady.
  static constexpr int kFaultStreams = 20;

  explicit Degraded(const Seeds& seeds) : seeds_(seeds) {}

  std::vector<std::string> ScaleFactors() const override { return {"SF300"}; }

  dyno::ClusterConfig Cluster() const override { return StreamCluster(0); }

  /// The faulty, memory-bounded cluster of fault stream `stream`.
  dyno::ClusterConfig StreamCluster(int stream) const {
    dyno::ClusterConfig cluster = PaperCluster();
    dyno::FaultConfig& f = cluster.faults;
    f.seed = dyno::Mix64(seeds_.fault + static_cast<uint64_t>(stream));
    f.task_failure_rate = 0.02;
    f.straggler_rate = 0.05;
    f.speculative_execution = true;
    f.max_task_attempts = 4;
    f.node_failure_rate = 0.0002;
    f.node_recovery_ms = 60000;
    f.block_corruption_rate = 0.01;
    f.shuffle_corruption_rate = 0.01;
    f.poison_record_rate = 0.0;  // Quarantine would change the rows.
    cluster.reduce_memory_mode = dyno::ClusterConfig::ReduceMemoryMode::kSpill;
    return cluster;
  }

  bool NeedsReference() const override { return true; }

  Status Reference(Scenario* clean) override {
    ReportTotals ignored;
    for (const NamedQuery& q : PaperQueries()) {
      Outcome best = RunBestStatic(clean, q.query);
      DYNO_RETURN_IF_ERROR(best.status);
      Outcome dynopt =
          RunDyno(clean, q.query,
                  DynoptOptions(*clean, seeds_.pilot,
                                dyno::ExecutionStrategy::kUncertain1),
                  &ignored);
      DYNO_RETURN_IF_ERROR(dynopt.status);
      DYNO_ASSIGN_OR_RETURN(Digest best_digest, DigestFile(*best.output));
      DYNO_ASSIGN_OR_RETURN(Digest digest, DigestFile(*dynopt.output));
      if (digest != best_digest) {
        return Status::Internal("clean DYNOPT rows differ from BESTSTATIC on " +
                                q.name);
      }
      reference_[q.name] = {digest, best.sim_ms};
    }
    return Status::OK();
  }

  PassResult Run(const std::vector<Scenario*>& scenarios,
                 Tracer* tracer) override {
    Scenario* sc = scenarios[0];
    PassResult out;
    SimSummary sim;
    std::vector<std::pair<std::string, Outcome>> runs;
    SimMillis clock_start = sc->engine->now();
    double start = NowSeconds();
    for (int stream = 0; stream < kFaultStreams; ++stream) {
      // Re-provisions every node and switches to the stream's fault seed.
      sc->engine->set_config(StreamCluster(stream));
      for (const NamedQuery& q : PaperQueries()) {
        dyno::DynoOptions options = DynoptOptions(
            *sc, seeds_.pilot, dyno::ExecutionStrategy::kUncertain1);
        options.checkpoint_path =
            dyno::StrFormat("/ckpt/s%d/%s", stream, q.id.c_str());
        options.max_job_attempts = 3;
        options.retry_budget_ms = 0;  // Unlimited.
        options.oom_retry_ladder = 2;
        Tracer::Scope span(
            tracer, "dyno", "DYNOPT",
            dyno::StrFormat("workload=degraded sf=%s query=%s stream=%d",
                            sc->sf.c_str(), q.name.c_str(), stream));
        runs.emplace_back(q.name, RunDyno(sc, q.query, options, &out.reports));
      }
    }
    out.wall_s = NowSeconds() - start;
    sim.makespan_s =
        static_cast<double>(sc->engine->now() - clock_start) / 1e3;

    for (const auto& [name, outcome] : runs) {
      out.attempted++;
      std::string what = name + " " + sc->sf + " DYNOPT";
      if (!outcome.status.ok()) {
        out.failed++;
        out.errors.push_back(what + ": " + outcome.status.ToString());
        continue;
      }
      const CleanResult& ref = reference_[name];
      CheckDigest(what, outcome.output.get(), ref.digest, &out);
      sim.latencies_s.push_back(static_cast<double>(outcome.sim_ms) / 1e3);
      sim.AddDynopt(name, outcome.sim_ms, ref.best_ms);
    }
    sim.Fill(&out);
    return out;
  }

 private:
  Seeds seeds_;
  std::map<std::string, CleanResult> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Seeds& seeds) {
  if (name == "fig7") return std::make_unique<Fig7>(seeds);
  if (name == "service") return std::make_unique<Service>(seeds);
  if (name == "degraded") return std::make_unique<Degraded>(seeds);
  return nullptr;
}

}  // namespace dynobench
