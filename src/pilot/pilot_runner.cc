#include "pilot/pilot_runner.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dyno {

const PilotLeafResult* PilotRunReport::Find(const std::string& alias) const {
  for (const PilotLeafResult& leaf : leaves) {
    if (leaf.alias == alias) return &leaf;
  }
  return nullptr;
}

namespace {

/// Builds the map-only pilot job for one leaf: scan + local predicates. The
/// engine's output observer feeds `collector` every committed output
/// record once, and the job stops launching map tasks once `stop_after`
/// output records are committed (the global counter of §4.2).
JobSpec MakePilotJob(const LeafExpr& leaf, std::shared_ptr<DfsFile> file,
                     std::vector<int> split_indexes,
                     std::shared_ptr<StatsCollector> collector,
                     uint64_t stop_after, const std::string& output_path,
                     const std::string& query_id) {
  JobSpec spec;
  spec.name = "pilr:" + leaf.alias;
  spec.query_id = query_id;
  spec.output_path = output_path;

  ExprPtr filter = leaf.filter;
  MapInput input;
  input.file = std::move(file);
  input.split_indexes = std::move(split_indexes);
  input.cpu_per_record = 1.0 + (filter ? filter->CpuCost() : 0.0);
  // Pilot timing must not depend on the table's physical format: billing
  // block reads at logical (row-encoded) size keeps the pilot's event
  // timeline — and therefore the sampled splits and the chosen plan —
  // identical between row and columnar storage.
  input.bill_logical_read = true;
  input.map_fn = [filter](const Value& record, MapContext* ctx) -> Status {
    DYNO_ASSIGN_OR_RETURN(bool keep, EvalFilter(filter, record));
    if (keep) ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {std::move(input)};

  // Interrupt the job once k records exist; already-running tasks finish
  // their whole split, avoiding the inspection-paradox bias described in
  // the paper (tasks with small outputs finish faster and would otherwise
  // skew the sample).
  spec.stop_after_output_records = stop_after;
  spec.observer_cpu_per_record = collector->CpuCostPerRecord();
  spec.output_observer = [collector](const Value& record) {
    collector->Observe(record);
  };
  return spec;
}

}  // namespace

/// Per-leaf bookkeeping shared by both modes.
struct PilotRunner::LeafJobState {
  const LeafExpr* leaf = nullptr;
  std::string signature;
  uint64_t table_version = StatsStore::kAnyVersion;
  std::shared_ptr<DfsFile> table_file;
  /// Random permutation of the relation's split indexes; `next_split` marks
  /// how many have been consumed by batches so far.
  std::vector<int> split_order;
  size_t next_split = 0;
  /// Observes the output of every batch.
  std::shared_ptr<StatsCollector> stats;
  uint64_t scanned_bytes = 0;
  uint64_t output_records = 0;
  std::vector<std::shared_ptr<DfsFile>> batch_outputs;
  std::vector<std::string> batch_quarantines;  ///< Non-empty ones only.
  bool done = false;
};

namespace {
// Process-wide counter so concurrent PilotRunner instances never collide on
// DFS output paths.
int g_pilot_run_counter = 0;
}  // namespace

PilotRunner::PilotRunner(MapReduceEngine* engine, Catalog* catalog,
                         StatsStore* store, PilotRunOptions options)
    : engine_(engine), catalog_(catalog), store_(store), options_(options) {}

Result<PilotRunReport> PilotRunner::Run(const std::vector<LeafExpr>& leaves) {
  PilotRunReport report;
  const SimMillis start = engine_->now();
  run_counter_ = ++g_pilot_run_counter;
  DYNO_RETURN_IF_ERROR(options_.mode == PilotRunOptions::Mode::kSerial
                           ? RunSerial(leaves, &report)
                           : RunParallel(leaves, &report));
  if (obs::MetricsRegistry* metrics = engine_->metrics()) {
    metrics->GetCounter("pilot.runs_executed")->Add(report.runs_executed);
    metrics->GetCounter("pilot.runs_skipped_cached")
        ->Add(report.runs_skipped_cached);
  }
  report.elapsed_ms = engine_->now() - start;
  return report;
}

bool PilotRunner::ReuseKnownStats(const LeafExpr& leaf,
                                  const std::string& signature,
                                  uint64_t table_version,
                                  PilotRunReport* report) {
  if (!options_.reuse_stats) return false;
  // Stats are only valid for the data version they were observed on: a
  // signature match alone would happily reuse synopses from before the
  // table was rewritten.
  auto cached = store_->Get(signature, table_version);
  if (!cached.has_value()) return false;
  PilotLeafResult result;
  result.alias = leaf.alias;
  result.signature = signature;
  result.stats = *cached;
  result.reused_cached_stats = true;
  report->leaves.push_back(std::move(result));
  ++report->runs_skipped_cached;
  if (obs::TraceSink* trace = engine_->trace()) {
    trace->Record(obs::TraceEvent(engine_->now(), -1, obs::TraceLane::kPilot,
                                  "pilot", "pilot_leaf_cached")
                      .Arg("alias", leaf.alias));
  }
  return true;
}

Status PilotRunner::RunSerial(const std::vector<LeafExpr>& leaves,
                              PilotRunReport* report) {
  obs::TraceSink* trace = engine_->trace();
  for (const LeafExpr& leaf : leaves) {
    std::string signature = LeafSignature(leaf);
    uint64_t table_version = catalog_->TableVersion(leaf.table);
    if (ReuseKnownStats(leaf, signature, table_version, report)) continue;
    SimMillis leaf_start = engine_->now();
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                          catalog_->OpenTable(leaf.table));
    std::string output_path =
        StrFormat("%s/st_%d_%s", QueryTempDir(options_.query_id).c_str(),
                  run_counter_, leaf.alias.c_str());
    // PILR_ST runs the leaf job alone over all splits (in order); the
    // engine interrupts it once k records exist.
    auto collector = std::make_shared<StatsCollector>(leaf.join_columns);
    DYNO_ASSIGN_OR_RETURN(
        JobResult job,
        engine_->Submit(MakePilotJob(leaf, file, /*split_indexes=*/{},
                                     collector,
                                     static_cast<uint64_t>(options_.k),
                                     output_path, options_.query_id)));
    if (!job.status.ok()) return job.status;

    PilotLeafResult result;
    result.alias = leaf.alias;
    result.signature = signature;
    // map_input_bytes counts logical (row-encoded) bytes, so the scanned
    // fraction is measured against logical file size — format-independent.
    double fraction =
        file->logical_bytes() == 0
            ? 1.0
            : static_cast<double>(job.counters.map_input_bytes) /
                  static_cast<double>(file->logical_bytes());
    fraction = std::clamp(fraction, 1e-9, 1.0);
    bool scanned_everything = job.map_tasks_skipped == 0;
    result.stats = collector->Finalize(scanned_everything ? 1.0 : fraction);
    if (scanned_everything) {
      result.full_output = job.output;
    } else if (job.output != nullptr) {
      // A partial scan is no materialization: only its statistics survive.
      // Its quarantine file goes with it, as nothing reads the records it
      // skipped.
      engine_->dfs()->Delete(job.output->path()).ok();
      if (!job.quarantine_path.empty()) {
        engine_->dfs()->Delete(job.quarantine_path).ok();
      }
    }
    store_->Put(signature, table_version, result.stats);
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(leaf_start, engine_->now() - leaf_start,
                                    obs::TraceLane::kPilot, "pilot",
                                    "pilot_leaf")
                        .Arg("alias", leaf.alias)
                        .Arg("mode", "ST")
                        .ArgInt("splits_consumed", job.map_tasks_run)
                        .ArgInt("splits_skipped", job.map_tasks_skipped)
                        .ArgInt("total_splits",
                                (int64_t)file->splits().size())
                        .ArgInt("output_records",
                                (int64_t)job.counters.output_records)
                        .ArgInt("k", options_.k)
                        .ArgBool("stop_hit", job.map_tasks_skipped > 0)
                        .ArgBool("scanned_all", scanned_everything));
    }
    report->leaves.push_back(std::move(result));
    ++report->runs_executed;
  }
  return Status::OK();
}

Status PilotRunner::RunParallel(const std::vector<LeafExpr>& leaves,
                                PilotRunReport* report) {
  const SimMillis start = engine_->now();
  obs::TraceSink* trace = engine_->trace();
  // Seed from options alone (NOT the process-wide run counter, which is
  // only used to keep DFS paths unique): two runs of
  // the same workload must pick identical split permutations so results
  // can be compared across engine configurations.
  Rng rng(options_.seed);

  std::vector<LeafJobState> states;
  for (const LeafExpr& leaf : leaves) {
    std::string signature = LeafSignature(leaf);
    uint64_t table_version = catalog_->TableVersion(leaf.table);
    if (ReuseKnownStats(leaf, signature, table_version, report)) continue;
    LeafJobState state;
    state.leaf = &leaf;
    state.signature = signature;
    state.table_version = table_version;
    DYNO_ASSIGN_OR_RETURN(state.table_file, catalog_->OpenTable(leaf.table));
    size_t num_splits = state.table_file->splits().size();
    std::vector<uint64_t> order =
        rng.SampleWithoutReplacement(num_splits, num_splits);
    state.split_order.assign(order.begin(), order.end());
    state.stats = std::make_shared<StatsCollector>(leaf.join_columns);
    states.push_back(std::move(state));
  }

  // Each relation initially gets m/|R| random splits, all leaf jobs are
  // submitted together (paying the job startup latency once, not |R|
  // times), and rounds repeat — adding splits on demand, cf. [38] — until
  // every leaf reached k records or ran out of data. A leaf still short of
  // k after a round (a selective predicate) gets an exponentially larger
  // allocation next round, sized to the slots freed by finished leaves, so
  // the cluster stays utilized instead of trickling 1/|R|-sized rounds.
  size_t per_leaf = std::max<size_t>(
      1, static_cast<size_t>(engine_->config().map_slots) /
             std::max<size_t>(1, states.size()));
  int batch = 0;
  std::map<const LeafJobState*, size_t> allocation;
  while (true) {
    std::vector<JobSpec> specs;
    std::vector<LeafJobState*> active;
    size_t still_running = 0;
    for (const LeafJobState& state : states) {
      if (!state.done) ++still_running;
    }
    size_t fair_share = std::max<size_t>(
        per_leaf, static_cast<size_t>(engine_->config().map_slots) /
                      std::max<size_t>(1, still_running));
    for (LeafJobState& state : states) {
      if (state.done) continue;
      if (state.output_records >= static_cast<uint64_t>(options_.k) ||
          state.next_split >= state.split_order.size()) {
        state.done = true;
        continue;
      }
      size_t want = batch == 0 ? per_leaf
                               : std::max(fair_share, 2 * allocation[&state]);
      allocation[&state] = want;
      size_t take = std::min(want,
                             state.split_order.size() - state.next_split);
      std::vector<int> split_indexes(
          state.split_order.begin() + state.next_split,
          state.split_order.begin() + state.next_split + take);
      state.next_split += take;
      std::string output_path =
          StrFormat("%s/mt_%d_%s_b%d", QueryTempDir(options_.query_id).c_str(),
                    run_counter_, state.leaf->alias.c_str(), batch);
      // The batch stops once the leaf's k records exist, counting the
      // earlier batches' output.
      JobSpec spec = MakePilotJob(
          *state.leaf, state.table_file, std::move(split_indexes),
          state.stats, static_cast<uint64_t>(options_.k) - state.output_records,
          output_path, options_.query_id);
      // Follow-up batches extend the already-running sampling job with
      // fresh splits (situation-aware mappers, [38]) — no startup latency.
      spec.reuse_warm_containers = batch > 0;
      specs.push_back(std::move(spec));
      active.push_back(&state);
    }
    if (specs.empty()) break;
    SimMillis batch_start = engine_->now();
    DYNO_ASSIGN_OR_RETURN(std::vector<JobResult> results,
                          engine_->SubmitAll(specs));
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(batch_start,
                                    engine_->now() - batch_start,
                                    obs::TraceLane::kPilot, "pilot",
                                    "pilot_batch")
                        .ArgInt("batch", batch)
                        .ArgInt("leaves", (int64_t)specs.size()));
    }
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].status.ok()) return results[i].status;
      LeafJobState& state = *active[i];
      state.scanned_bytes += results[i].counters.map_input_bytes;
      state.output_records += results[i].counters.output_records;
      state.batch_outputs.push_back(results[i].output);
      if (!results[i].quarantine_path.empty()) {
        state.batch_quarantines.push_back(results[i].quarantine_path);
      }
    }
    ++batch;
  }

  for (LeafJobState& state : states) {
    PilotLeafResult result;
    result.alias = state.leaf->alias;
    result.signature = state.signature;
    bool scanned_everything =
        state.next_split >= state.split_order.size() &&
        state.scanned_bytes >= state.table_file->logical_bytes();
    double fraction =
        state.table_file->logical_bytes() == 0
            ? 1.0
            : static_cast<double>(state.scanned_bytes) /
                  static_cast<double>(state.table_file->logical_bytes());
    fraction = std::clamp(fraction, 1e-9, 1.0);
    result.stats = state.stats->Finalize(scanned_everything ? 1.0 : fraction);
    if (scanned_everything) {
      // Concatenate the batch outputs into one reusable materialization
      // (a client-side metadata move, like an HDFS rename).
      std::string path =
          StrFormat("%s/full_%d_%s", QueryTempDir(options_.query_id).c_str(),
                    run_counter_, state.leaf->alias.c_str());
      auto combined = engine_->dfs()->Create(path);
      if (combined.ok()) {
        for (const auto& out : state.batch_outputs) {
          if (out == nullptr) continue;
          for (const Split& split : out->splits()) {
            (*combined)->AppendSplit(split);
          }
        }
        result.full_output = *combined;
        // The poison records the batches skipped move, in batch order, to
        // the full output's own `<output>.quarantine` sibling.
        if (!state.batch_quarantines.empty()) {
          auto quarantine = engine_->dfs()->Create(path + ".quarantine");
          for (const std::string& batch_path : state.batch_quarantines) {
            auto batch_file = engine_->dfs()->Open(batch_path);
            if (!quarantine.ok() || !batch_file.ok()) continue;
            for (const Split& split : (*batch_file)->splits()) {
              (*quarantine)->AppendSplit(split);
            }
          }
        }
      }
    }
    // Observed (and, above, concatenated), the batch outputs and their
    // quarantine files are garbage.
    for (const auto& out : state.batch_outputs) {
      if (out != nullptr) engine_->dfs()->Delete(out->path()).ok();
    }
    for (const std::string& batch_path : state.batch_quarantines) {
      engine_->dfs()->Delete(batch_path).ok();
    }
    store_->Put(state.signature, state.table_version, result.stats);
    if (trace != nullptr) {
      trace->Record(
          obs::TraceEvent(start, engine_->now() - start,
                          obs::TraceLane::kPilot, "pilot", "pilot_leaf")
              .Arg("alias", state.leaf->alias)
              .Arg("mode", "MT")
              .ArgInt("splits_consumed", (int64_t)state.next_split)
              .ArgInt("total_splits", (int64_t)state.split_order.size())
              .ArgInt("output_records", (int64_t)state.output_records)
              .ArgInt("k", options_.k)
              .ArgBool("stop_hit",
                       state.output_records >=
                           static_cast<uint64_t>(options_.k))
              .ArgBool("scanned_all", scanned_everything));
    }
    report->leaves.push_back(std::move(result));
    ++report->runs_executed;
  }
  return Status::OK();
}

}  // namespace dyno
