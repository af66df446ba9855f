#include "dyno/join_block_run.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pilot/predicate_order.h"

namespace dyno {

namespace {

/// Units of a decomposition that can run now, in decomposition order: not
/// yet executed, and every input a bound leaf or an executed unit's output.
std::vector<const JobUnit*> ReadyUnits(const std::vector<JobUnit>& units,
                                       const std::set<int64_t>& executed) {
  std::vector<const JobUnit*> ready;
  for (const JobUnit& unit : units) {
    if (executed.count(unit.uid)) continue;
    if (std::all_of(unit.inputs.begin(), unit.inputs.end(),
                    [&](const JobInput& input) {
                      return input.IsLeaf() || executed.count(input.unit_uid);
                    })) {
      ready.push_back(&unit);
    }
  }
  return ready;
}

/// Preorder chain flags of every join under `node`. With the canonical
/// signature they fix how the subtree was cut into jobs, and so the splits
/// of each job's input.
void AppendChainFlags(const PlanNode& node, std::string* out) {
  if (node.IsLeaf()) return;
  out->push_back(node.chain_with_left ? 'c' : '-');
  AppendChainFlags(*node.left, out);
  AppendChainFlags(*node.right, out);
}

/// Cross-query cache key for one unit: the canonical subtree signature
/// decorated with the requested output statistics columns and projection.
/// Both change the entry's usability (a consumer needing column synopses the
/// entry lacks would plan differently; a projected root output holds
/// different bytes), so they are part of the key, not a lookup-time check.
std::string SubtreeCacheKey(const PlanExecutor& executor,
                            const PlanExecutor::UnitRequest& request) {
  std::string key = executor.CanonicalSignature(*request.unit->nodes.back());
  key += "|stats=";
  for (const std::string& c : request.stats_columns) {
    key += c;
    key += ',';
  }
  key += "|proj=";
  for (const std::string& c : request.projection) {
    key += c;
    key += ',';
  }
  return key;
}

/// UnitReplayLog key of `request`: the chain flags of its unit's subtree,
/// its subtree-cache key and the request's reduce-memory and reducer-count
/// overrides — every UnitRequest field.
std::string UnitReplayKey(const PlanExecutor& executor,
                          const PlanExecutor::UnitRequest& request) {
  std::string key;
  AppendChainFlags(*request.unit->nodes.back(), &key);
  return key + "|" + SubtreeCacheKey(executor, request) +
         StrFormat("|m%d|r%d", request.reduce_memory_mode,
                   request.num_reduce_tasks);
}

/// How many permanent job failures one block tolerates (each triggers a
/// re-plan around the materialized subtrees) before the query gives up.
constexpr int kMaxPermanentJobFailures = 3;

}  // namespace

DynoOptions JaqlRunOptions(const ExecOptions& exec) {
  DynoOptions options;
  options.exec = exec;
  options.strategy = ExecutionStrategy::kSimpleParallel;
  options.adaptive_join_fallback = false;
  options.max_job_attempts = 1;
  options.oom_retry_ladder = 0;
  return options;
}

void JoinBlockRun::BlockState::Substitute(const std::set<std::string>& covered,
                                          const std::string& new_id,
                                          TableStats stats) {
  for (const std::string& id : covered) relations.erase(id);
  relations[new_id] = std::move(stats);

  std::vector<OptEdge> kept_edges;
  for (OptEdge edge : edges) {
    if (covered.count(edge.left_id)) edge.left_id = new_id;
    if (covered.count(edge.right_id)) edge.right_id = new_id;
    if (edge.left_id == edge.right_id) continue;  // consumed by the join
    kept_edges.push_back(std::move(edge));
  }
  edges = std::move(kept_edges);

  std::vector<OptNonLocalPred> kept_preds;
  for (OptNonLocalPred pred : preds) {
    std::set<std::string> ids;
    for (std::string& id : pred.relation_ids) {
      if (covered.count(id)) id = new_id;
      ids.insert(id);
    }
    pred.relation_ids.assign(ids.begin(), ids.end());
    if (pred.relation_ids.size() >= 2) kept_preds.push_back(std::move(pred));
    // size == 1: the executed join covered the predicate and its
    // post_filter already applied it.
  }
  preds = std::move(kept_preds);
}

std::vector<std::string> JoinBlockRun::BlockState::StatsColumnsFor(
    const std::set<std::string>& covered) const {
  std::set<std::string> cols;
  for (const OptEdge& edge : edges) {
    bool left_in = covered.count(edge.left_id) > 0;
    bool right_in = covered.count(edge.right_id) > 0;
    if (left_in && !right_in) cols.insert(edge.left_column);
    if (right_in && !left_in) cols.insert(edge.right_column);
  }
  return {cols.begin(), cols.end()};
}

JoinBlockRun::JoinBlockRun(MapReduceEngine* engine, Catalog* catalog,
                           StatsStore* store, DynoOptions options,
                           const JoinBlock& block, QueryRunReport* report,
                           CheckpointManifest* manifest)
    : engine_(engine), catalog_(catalog), store_(store),
      options_(std::move(options)), block_(block), report_(report),
      manifest_(manifest), trace_(engine->trace()),
      can_replan_(!IsSimpleStrategy(options_.strategy)),
      cache_(can_replan_ ? options_.subtree_cache : nullptr),
      block_start_(engine->now()), executor_(engine, options_.exec) {}

Result<std::shared_ptr<DfsFile>> JoinBlockRun::Run(
    const CheckpointManifest* resume) {
  DYNO_RETURN_IF_ERROR(BindLeaves());
  DYNO_RETURN_IF_ERROR(AcquireStats());
  if (leaves_.size() == 1) return ScanSingleTable();
  for (const JoinEdge& edge : block_.edges) {
    state_.edges.push_back({edge.left_alias, edge.left_column,
                            edge.right_alias, edge.right_column});
  }
  for (const Predicate& pred : non_local_) {
    OptNonLocalPred opt_pred;
    opt_pred.expr = pred.expr;
    opt_pred.relation_ids = pred.aliases;
    state_.preds.push_back(std::move(opt_pred));
  }
  // Record the query's leaf signatures in the manifest, so a later Resume
  // can prove the checkpoints were written for this exact query text.
  if (!options_.checkpoint_path.empty()) {
    for (const LeafExpr& leaf : leaves_) {
      manifest_->leaf_signatures.insert_or_assign(leaf.alias,
                                                  LeafSignature(leaf));
    }
  }
  if (resume != nullptr) {
    DYNO_RETURN_IF_ERROR(ApplyResume(*resume));
    if (state_.relations.size() == 1) {
      // Every join ran before the kill: the last checkpoint is already the
      // block's projected output.
      DYNO_ASSIGN_OR_RETURN(
          RelationBinding binding,
          executor_.GetBinding(state_.relations.begin()->first));
      return binding.file;
    }
  }
  return Loop();
}

Result<std::shared_ptr<DfsFile>> JoinBlockRun::RunPlan(const PlanNode& plan,
                                                       UnitReplayLog* replay) {
  if (can_replan_) {
    return Status::InvalidArgument("a given plan runs without re-planning");
  }
  DYNO_RETURN_IF_ERROR(BindLeaves());
  if (plan.IsLeaf()) return ScanSingleTable();
  // A one-unit wave on an idle, fault-free engine takes the same clock
  // delta and writes the same rows every time it runs.
  if (!engine_->config().faults.enabled() && !engine_->has_submit_gate()) {
    replay_ = replay;
  }
  DYNO_ASSIGN_OR_RETURN(units_, PlanExecutor::Decompose(plan));
  return Loop();
}

Status JoinBlockRun::BindLeaves() {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block_));
  leaves_ = ExtractLeafExprs(block_, &non_local_);
  // Optional §4.4 extension: order each leaf's conjuncts by measured rank
  // so cheap, selective predicates run first at every scan.
  if (options_.reorder_local_predicates) {
    for (LeafExpr& leaf : leaves_) {
      if (leaf.filter == nullptr) continue;
      PredicateOrderOptions order_options;
      DYNO_ASSIGN_OR_RETURN(
          leaf.filter,
          ReorderConjunction(catalog_, leaf.table, leaf.filter,
                             order_options));
    }
  }
  for (const LeafExpr& leaf : leaves_) base_cover_[leaf.alias] = {leaf.alias};
  return executor_.BindLeaves(*catalog_, leaves_);
}

// A single-table block is a bare scan job: the leaf's local predicates and
// the block's projection, applied in one map-only pass.
Result<std::shared_ptr<DfsFile>> JoinBlockRun::ScanSingleTable() {
  std::string path =
      StrFormat("%s/scan_%lld", QueryTempDir(options_.exec.query_id).c_str(),
                static_cast<long long>(engine_->now()));
  DYNO_ASSIGN_OR_RETURN(JobResult job,
                        executor_.ScanRelation(leaves_[0].alias,
                                               block_.output_columns, "scan",
                                               path));
  ++report_->jobs_run;
  ++report_->map_only_jobs;
  report_->Add(job);
  return job.output;
}

Status JoinBlockRun::AcquireStats() {
  if (!options_.use_pilot_runs) {
    for (const LeafExpr& leaf : leaves_) {
      auto cached = store_->Get(leaf.table + "|");
      if (cached.has_value()) {
        state_.relations[leaf.alias] = *cached;
        continue;
      }
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                            catalog_->OpenTable(leaf.table));
      TableStats stats;
      stats.cardinality = static_cast<double>(file->num_records());
      stats.avg_record_size = file->avg_record_size();
      state_.relations[leaf.alias] = std::move(stats);
    }
    return Status::OK();
  }
  // Pilot jobs inherit the query scope so identically-aliased leaves of
  // concurrent queries keep independent engine fault streams.
  PilotRunOptions pilot_options = options_.pilot;
  if (pilot_options.query_id.empty()) {
    pilot_options.query_id = options_.exec.query_id;
  }
  PilotRunner pilot(engine_, catalog_, store_, pilot_options);
  DYNO_ASSIGN_OR_RETURN(PilotRunReport pilot_report, pilot.Run(leaves_));
  report_->pilot_ms += pilot_report.elapsed_ms;
  for (const LeafExpr& leaf : leaves_) {
    const PilotLeafResult* result = pilot_report.Find(leaf.alias);
    if (result == nullptr) {
      return Status::Internal("pilot run missing leaf " + leaf.alias);
    }
    state_.relations[leaf.alias] = result->stats;
    if (result->full_output != nullptr) {
      // The pilot consumed the whole relation: its output *is* the leaf
      // (paper §4.1).
      RelationBinding binding;
      binding.file = result->full_output;
      binding.signature = result->signature;
      executor_.Bind(leaf.alias, std::move(binding));
    }
  }
  return Status::OK();
}

Status JoinBlockRun::ApplyResume(const CheckpointManifest& resume) {
  // Refuse to substitute checkpoints into a changed query: every base alias
  // a manifest entry covers must still exist with the same leaf signature
  // (table + local filter). Silently reusing a materialization of different
  // predicates would return wrong rows, so a mismatch is an error, not a
  // skip.
  std::map<std::string, std::string> current_sigs;
  for (const LeafExpr& leaf : leaves_) {
    current_sigs[leaf.alias] = LeafSignature(leaf);
  }
  for (const CheckpointEntry& entry : resume.entries) {
    for (const std::string& alias : entry.covered) {
      auto current = current_sigs.find(alias);
      if (current == current_sigs.end()) {
        return Status::InvalidArgument(StrFormat(
            "checkpoint manifest covers leaf '%s', which the resumed "
            "query does not have — the query text changed since the "
            "checkpoint was written",
            alias.c_str()));
      }
      auto recorded = resume.leaf_signatures.find(alias);
      if (recorded == resume.leaf_signatures.end() ||
          recorded->second != current->second) {
        return Status::InvalidArgument(StrFormat(
            "checkpoint manifest was written for a different definition "
            "of leaf '%s' (recorded signature \"%s\", current \"%s\")",
            alias.c_str(),
            recorded == resume.leaf_signatures.end()
                ? "<missing>"
                : recorded->second.c_str(),
            current->second.c_str()));
      }
    }
  }
  int applied = 0;
  for (const CheckpointEntry& entry : resume.entries) {
    std::set<std::string> want(entry.covered.begin(), entry.covered.end());
    // The entry replaces the live relations whose covers tile `want`
    // exactly; anything else (already superseded, or from a different
    // query sharing the path) is skipped and re-executed normally.
    std::set<std::string> replaced;
    std::set<std::string> got;
    for (const auto& [id, cover] : base_cover_) {
      if (state_.relations.count(id) == 0) continue;
      if (!std::includes(want.begin(), want.end(), cover.begin(),
                         cover.end())) {
        continue;
      }
      replaced.insert(id);
      got.insert(cover.begin(), cover.end());
    }
    if (replaced.empty() || got != want) continue;
    // Skip entries whose base data was rewritten after the checkpoint:
    // their materializations hold pre-rewrite rows.
    if (std::any_of(entry.table_versions.begin(), entry.table_versions.end(),
                    [&](const auto& table_version) {
                      return catalog_->TableVersion(table_version.first) !=
                             table_version.second;
                    })) {
      continue;
    }
    auto file = engine_->dfs()->Open(entry.path);
    if (!file.ok()) continue;  // Materialization gone; re-execute it.
    RelationBinding binding;
    binding.file = std::move(*file);
    binding.signature = entry.signature;
    executor_.Bind(entry.relation_id, std::move(binding));
    state_.Substitute(replaced, entry.relation_id, entry.stats);
    store_->Put(entry.signature, entry.stats);
    base_cover_[entry.relation_id] = std::move(want);
    ++applied;
  }
  if (applied == 0) return Status::OK();
  // Continuation relation ids (and so subtree signatures) must match the
  // ones the killed run would have assigned next.
  executor_.ReserveTempIds(static_cast<int>(resume.temp_counter));
  report_->resumed_steps += applied;
  Count("driver.recovery_resumed_steps", applied);
  if (trace_ != nullptr) {
    trace_->Record(DriverEvent("resume_applied")
                       .ArgInt("steps", applied)
                       .ArgInt("reserved_temp_ids", resume.temp_counter));
  }
  return Status::OK();
}

// Optimizes the current join graph, records the plan in the report, the
// trace and the metrics, charges the optimizer's time, and decomposes the
// plan into its units.
Status JoinBlockRun::Plan() {
  OptJoinGraph graph;
  for (const auto& [id, stats] : state_.relations) {
    graph.relations.push_back({id, stats});
  }
  graph.edges = state_.edges;
  graph.non_local_preds = state_.preds;
  JoinOptimizer optimizer(options_.cost);
  DYNO_ASSIGN_OR_RETURN(OptimizeResult opt, optimizer.Optimize(graph));
  PlanEvent event;
  event.at_ms = engine_->now() - block_start_;
  event.plan_tree = opt.plan->ToTreeString();
  event.plan_compact = opt.plan->ToString();
  event.est_cost = opt.plan->est_cost;
  event.plan_changed =
      !previous_plan_.empty() && previous_plan_ != event.plan_compact;
  if (event.plan_changed) ++report_->plan_changes;
  if (trace_ != nullptr) {
    trace_->Record(
        obs::TraceEvent(engine_->now(), opt.report.simulated_ms,
                        obs::TraceLane::kOptimizer, "optimizer", "optimize")
            .ArgInt("groups_explored", opt.report.groups_explored)
            .ArgInt("expressions_costed", opt.report.expressions_costed)
            .ArgInt("plans_pruned_memory", opt.report.plans_pruned_memory)
            .ArgInt("broadcast_chain_collapses",
                    opt.report.broadcast_chain_collapses)
            .ArgDouble("best_cost", opt.plan->est_cost)
            .Arg("plan", event.plan_compact)
            .Arg("prev_plan", previous_plan_)
            .ArgBool("plan_changed", event.plan_changed));
  }
  Count("driver.optimizer_calls");
  if (event.plan_changed) Count("driver.plan_changes");
  Count("optimizer.groups_explored", opt.report.groups_explored);
  Count("optimizer.plans_pruned_memory", opt.report.plans_pruned_memory);
  previous_plan_ = event.plan_compact;
  report_->plan_history.push_back(std::move(event));
  report_->optimizer_ms += opt.report.simulated_ms;
  ++report_->optimizer_calls;
  engine_->AdvanceClock(opt.report.simulated_ms);
  plan_ = std::move(opt.plan);
  DYNO_ASSIGN_OR_RETURN(units_, PlanExecutor::Decompose(*plan_));
  executed_.clear();
  if (units_.empty()) {
    return Status::Internal("optimizer returned a plan with no jobs");
  }
  return Status::OK();
}

Result<JoinBlockRun::Wave> JoinBlockRun::PickWave() {
  std::vector<const JobUnit*> ready = ReadyUnits(units_, executed_);
  if (ready.empty()) {
    return Status::Internal("plan decomposition produced no ready jobs");
  }
  Wave wave;
  wave.units = PickLeafJobs(options_.strategy, ready);
  // The root is ready only once every other unit has run. It is then the
  // final wave, of one unit: it carries the block's output projection
  // (Algorithm 2, line 6), and its output ends the loop.
  wave.final = wave.units[0] == &units_.back();
  for (const JobUnit* unit : wave.units) {
    std::set<std::string> covered;
    for (const JobInput& input : unit->inputs) {
      DYNO_ASSIGN_OR_RETURN(std::string id, executor_.ResolveInput(input));
      covered.insert(std::move(id));
    }
    UnitRequest request;
    request.unit = unit;
    if (wave.final) {
      request.projection = block_.output_columns;
    } else if (can_replan_) {
      request.stats_columns = state_.StatsColumnsFor(covered);
    }
    wave.cache_keys.push_back(
        cache_ != nullptr ? SubtreeCacheKey(executor_, request) : "");
    wave.requests.push_back(std::move(request));
    wave.covered.push_back(std::move(covered));
  }
  if (replay_ != nullptr && wave.units.size() == 1) {
    wave.replay_key = UnitReplayKey(executor_, wave.requests[0]);
  }
  return wave;
}

std::optional<StepResult> JoinBlockRun::ConsultMemo(const Wave& wave, size_t i,
                                                    bool* from_cache) {
  const JobUnit& unit = *wave.units[i];
  if (cache_ != nullptr) {
    std::optional<SubtreeCache::Hit> hit =
        cache_->Lookup(wave.cache_keys[i], engine_->now());
    if (!hit.has_value()) return std::nullopt;
    StepResult step;
    step.subtree_signature = executor_.CanonicalSignature(*unit.nodes.back());
    step.stats = hit->stats;
    BindMemoized(unit, hit->file, &step);
    *from_cache = true;
    return step;
  }
  if (wave.replay_key.empty()) return std::nullopt;
  auto recorded = replay_->units.find(wave.replay_key);
  if (recorded == replay_->units.end()) return std::nullopt;
  StepResult step = recorded->second.step;
  BindMemoized(unit, step.job.output, &step);
  engine_->AdvanceClock(recorded->second.wave_ms);
  ++replay_->replayed;
  return step;
}

void JoinBlockRun::BindMemoized(const JobUnit& unit,
                                std::shared_ptr<DfsFile> file,
                                StepResult* step) {
  RelationBinding binding;
  binding.file = std::move(file);
  binding.signature = step->subtree_signature;
  step->relation_id = executor_.BindCachedRelation(std::move(binding));
  executor_.RegisterUnitOutput(unit.uid, step->relation_id);
}

Result<std::vector<StepResult>> JoinBlockRun::Execute(
    const Wave& wave, const std::vector<size_t>& to_run) {
  std::vector<UnitRequest> requests;
  for (size_t i : to_run) requests.push_back(wave.requests[i]);
  const SimMillis wave_start = engine_->now();
  DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> steps,
                        executor_.Execute(requests));
  if (!wave.replay_key.empty() && steps[0].status.ok()) {
    replay_->units.emplace(
        wave.replay_key,
        UnitReplayLog::Entry{steps[0], engine_->now() - wave_start});
  }
  return steps;
}

Result<StepResult> JoinBlockRun::Recover(
    const UnitRequest& request, StepResult step) {
  const JobUnit& unit = *request.unit;
  if (step.status.code() == StatusCode::kOutOfMemory && !unit.map_only &&
      options_.oom_retry_ladder > 0) {
    auto climbed =
        OomLadder(request, step.job.reduce_tasks_planned, step.status);
    if (climbed.ok()) {
      replan_ = true;  // the plan's memory footprint was provably wrong
      return climbed;
    }
    step.status = climbed.status();
  }
  if (step.status.code() == StatusCode::kOutOfMemory &&
      options_.adaptive_join_fallback && unit.map_only) {
    return RepartitionFallback(request);
  }
  auto retried = ExecuteWithRetry(request, step.status);
  if (retried.ok()) return retried;
  step.status = retried.status();
  return step;
}

// Whole-job retry: re-submit a transiently failed unit until the attempt
// budget runs out. OutOfMemory (handled by the broadcast fallback) and
// Unavailable (the cluster can never run it) are not retried, nor are
// Cancelled / DeadlineExceeded (the service told the query to stop —
// retrying would fight the scheduler).
Result<StepResult> JoinBlockRun::ExecuteWithRetry(const UnitRequest& request,
                                                  Status first_error) {
  // Slot-ms attributable to this query, for charging re-submissions against
  // DynoOptions::retry_budget_ms. With a query id the engine's per-query
  // ledger is exact even when other sessions share the wave; without one
  // the driver owns the engine, so the global ledger is equivalent.
  auto attained_slot_ms = [&]() -> SimMillis {
    if (options_.exec.query_id.empty()) return engine_->busy_slot_ms_total();
    const auto& ledger = engine_->query_slot_ms();
    auto it = ledger.find(options_.exec.query_id);
    return it == ledger.end() ? 0 : it->second;
  };
  Status last = std::move(first_error);
  for (int attempt = 2; attempt <= options_.max_job_attempts &&
                        last.code() != StatusCode::kOutOfMemory &&
                        last.code() != StatusCode::kUnavailable &&
                        last.code() != StatusCode::kCancelled &&
                        last.code() != StatusCode::kDeadlineExceeded;
       ++attempt) {
    if (options_.retry_budget_ms > 0 &&
        report_->retry_slot_ms >= options_.retry_budget_ms) {
      report_->retry_budget_exhausted = true;
      Count("driver.retry_budget_exhausted");
      if (trace_ != nullptr) {
        trace_->Record(DriverEvent("retry_budget_exhausted")
                           .ArgInt("unit", request.unit->uid)
                           .ArgInt("retry_slot_ms", report_->retry_slot_ms)
                           .ArgInt("budget_ms", options_.retry_budget_ms));
      }
      break;
    }
    ++report_->job_retries;
    Count("driver.recovery_job_retries");
    if (trace_ != nullptr) {
      trace_->Record(DriverEvent("job_retry")
                         .ArgInt("unit", request.unit->uid)
                         .ArgInt("attempt", attempt)
                         .Arg("error", last.ToString()));
    }
    const SimMillis before_ms = attained_slot_ms();
    auto again = executor_.ExecuteOne(request);
    report_->retry_slot_ms += attained_slot_ms() - before_ms;
    if (again.ok()) return std::move(*again);
    last = again.status();
  }
  return last;
}

// OOM retry ladder (DESIGN.md §6.10): a repartition unit whose reducers
// died of OutOfMemory under the strict memory mode is re-submitted with
// spill mode forced (rung 1); each further rung doubles the reducer count
// so every reducer's sort state halves. Runs until the ladder is exhausted,
// success, or a non-OOM failure (handed back for the normal retry/abandon
// machinery). Map-only (broadcast) OOMs never come here — the adaptive join
// fallback owns those.
Result<StepResult> JoinBlockRun::OomLadder(
    const UnitRequest& original, int planned_reducers,
    Status first_error) {
  UnitRequest request = original;
  request.reduce_memory_mode = 1;  // ClusterConfig::ReduceMemoryMode::kSpill
  Status last = std::move(first_error);
  int reducers = planned_reducers;
  for (int rung = 1; rung <= options_.oom_retry_ladder; ++rung) {
    if (rung >= 2) {
      if (reducers <= 0) reducers = 1;
      reducers *= 2;
      request.num_reduce_tasks = reducers;
    }
    ++report_->oom_retries;
    Count("driver.oom_retries");
    if (trace_ != nullptr) {
      trace_->Record(DriverEvent("oom_retry")
                         .ArgInt("unit", request.unit->uid)
                         .ArgInt("rung", rung)
                         .ArgInt("reduce_tasks", request.num_reduce_tasks)
                         .Arg("error", last.ToString()));
    }
    DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> again,
                          executor_.Execute({request}));
    StepResult& step = again[0];
    if (step.status.ok()) return std::move(step);
    if (step.status.code() != StatusCode::kOutOfMemory) return step.status;
    last = step.status;
    // The failed attempt still froze a reducer count; double from it.
    if (step.job.reduce_tasks_planned > 0) {
      reducers = step.job.reduce_tasks_planned;
    }
  }
  return last;  // Ladder exhausted: the OOM is permanent.
}

// The paper's §8 "dynamic join operator": when a broadcast join's build side
// turns out not to fit in task memory (discovered while building the hash
// tables, before wasting the probe scan), re-run the unit's joins as
// repartition jobs instead of failing the query, threading the original
// request's statistics/projection onto the last job. The final step's
// relation is registered as the unit's output so dependants resolving
// through the unit uid find it, and its counters fold every job it ran.
Result<StepResult> JoinBlockRun::RepartitionFallback(
    const UnitRequest& original) {
  const JobUnit& unit = *original.unit;
  DYNO_ASSIGN_OR_RETURN(std::string current,
                        executor_.ResolveInput(unit.inputs[0]));
  StepResult last;
  for (size_t i = 0; i < unit.nodes.size(); ++i) {
    const PlanNode& node = *unit.nodes[i];
    DYNO_ASSIGN_OR_RETURN(std::string build_id,
                          executor_.ResolveInput(unit.inputs[i + 1]));
    auto plan = PlanNode::Join(JoinMethod::kRepartition,
                               PlanNode::Leaf(current),
                               PlanNode::Leaf(build_id), node.key_pairs);
    plan->post_filter = node.post_filter;
    DYNO_ASSIGN_OR_RETURN(std::vector<JobUnit> units,
                          PlanExecutor::Decompose(*plan));
    UnitRequest request;
    request.unit = &units[0];
    if (i + 1 == unit.nodes.size()) {
      request.stats_columns = original.stats_columns;
      request.projection = original.projection;
    }
    DYNO_ASSIGN_OR_RETURN(StepResult step, executor_.ExecuteOne(request));
    current = step.relation_id;
    step.job.Add(last.job);
    last = std::move(step);
  }
  // The stats describe the original unit's subtree, so they must be keyed
  // by *its* signature: the synthesized per-join decompositions above have
  // signatures no later query will ever compute, and publishing under them
  // would pollute the stats store.
  last.subtree_signature = executor_.CanonicalSignature(*unit.nodes.back());
  executor_.RegisterUnitOutput(unit.uid, last.relation_id);
  const int extra_jobs = static_cast<int>(unit.nodes.size());
  report_->jobs_run += extra_jobs - 1;  // Account adds one more
  ++report_->broadcast_fallbacks;
  replan_ = true;  // the plan was provably wrong here
  if (trace_ != nullptr) {
    trace_->Record(DriverEvent("broadcast_fallback")
                       .ArgInt("unit", unit.uid)
                       .ArgInt("extra_jobs", extra_jobs));
  }
  return last;
}

Status JoinBlockRun::Abandon(const JobUnit& unit, const Status& error) {
  if (!can_replan_ || error.code() == StatusCode::kUnavailable ||
      error.code() == StatusCode::kCancelled ||
      error.code() == StatusCode::kDeadlineExceeded ||
      permanent_failures_ + 1 > kMaxPermanentJobFailures) {
    return error;
  }
  ++permanent_failures_;
  replan_ = true;
  if (trace_ != nullptr) {
    trace_->Record(DriverEvent("job_permanent_failure")
                       .ArgInt("unit", unit.uid)
                       .ArgInt("permanent_failures", permanent_failures_)
                       .Arg("error", error.ToString()));
  }
  Count("driver.recovery_replans");
  return Status::OK();
}

// Publishes a re-planning run's step: its statistics to the StatsStore,
// its output to the subtree cache, and a checkpoint entry to the manifest.
void JoinBlockRun::CommitToStores(const Wave& wave, size_t i,
                                  const StepResult& step, bool from_cache) {
  store_->Put(step.subtree_signature, step.stats);
  // Fold the new relation's base-leaf cover and checkpoint the step.
  std::set<std::string> base;
  for (const std::string& id : wave.covered[i]) {
    auto it = base_cover_.find(id);
    if (it != base_cover_.end()) {
      base.insert(it->second.begin(), it->second.end());
    } else {
      base.insert(id);
    }
  }
  base_cover_[step.relation_id] = base;
  // Current data version of every base table `base` reads — what cache
  // entries and checkpoint entries are validated against.
  auto versions = [&] {
    std::map<std::string, uint64_t> by_table;
    for (const LeafExpr& leaf : leaves_) {
      if (base.count(leaf.alias)) {
        by_table[leaf.table] = catalog_->TableVersion(leaf.table);
      }
    }
    return by_table;
  };
  auto binding = executor_.GetBinding(step.relation_id);
  if (!binding.ok() || binding->file == nullptr) return;
  if (cache_ != nullptr && !from_cache && !wave.cache_keys[i].empty() &&
      step.job.records_quarantined == 0) {
    // Publish for other queries. Quarantine-affected outputs stay private:
    // their rows depend on this query's corruption stream, not just on the
    // subtree definition.
    (void)cache_->Publish(wave.cache_keys[i], versions(),
                          *binding->file, step.stats, engine_->now());
  }
  if (options_.checkpoint_path.empty()) return;
  CheckpointEntry entry;
  entry.signature = step.subtree_signature;
  entry.relation_id = step.relation_id;
  entry.path = binding->file->path();
  entry.covered.assign(base.begin(), base.end());
  entry.stats = step.stats;
  entry.table_versions = versions();
  manifest_->entries.push_back(std::move(entry));
  manifest_->temp_counter = executor_.temp_counter();
  Status persisted =
      manifest_->WriteTo(engine_->dfs(), options_.checkpoint_path);
  if (persisted.ok()) Count("driver.recovery_checkpoint_writes");
}

// Folds one finished step — executed, replayed or served from the
// cross-query cache — into the run: account it; commit it when the run can
// re-plan; for the root, return the block's output; otherwise substitute
// the new relation and run the re-plan test. A cache entry's stats are the
// ones executing would have observed, so the re-plan decision matches a
// cold run exactly.
Result<std::shared_ptr<DfsFile>> JoinBlockRun::Commit(const Wave& wave,
                                                      size_t i,
                                                      const StepResult& step,
                                                      bool from_cache) {
  const JobUnit& unit = *wave.units[i];
  if (!from_cache) {
    ++report_->jobs_run;
    if (unit.map_only) ++report_->map_only_jobs;
    report_->stats_overhead_ms += step.job.observer_overhead_ms;
    report_->Add(step.job);
    if (step.job.records_quarantined > 0) {
      Count("driver.quarantine_records", step.job.records_quarantined);
      Count("driver.quarantine_steps");
    }
  }
  if (can_replan_) CommitToStores(wave, i, step, from_cache);
  // Aborts the query once the kill switch trips (checkpoint/resume tests).
  if (!from_cache && options_.abort_after_jobs >= 0 &&
      report_->jobs_run >= options_.abort_after_jobs) {
    return Status::Cancelled(StrFormat(
        "query aborted after %d jobs (test kill switch)", report_->jobs_run));
  }
  if (wave.final) {
    if (trace_ != nullptr && can_replan_) {
      obs::TraceEvent event =
          DriverEvent(from_cache ? "final_step_cached" : "final_step")
              .Arg("relation", step.relation_id);
      if (!from_cache) {
        std::move(event)
            .ArgDouble("est_rows", std::max(unit.est_rows, 1.0))
            .ArgDouble("observed_rows", std::max(step.stats.cardinality, 1.0));
      }
      trace_->Record(std::move(event).Arg("plan", previous_plan_));
    }
    DYNO_ASSIGN_OR_RETURN(RelationBinding binding,
                          executor_.GetBinding(step.relation_id));
    return binding.file;
  }
  executed_.insert(unit.uid);
  if (can_replan_) {
    state_.Substitute(wave.covered[i], step.relation_id, step.stats);
    ReplanTest(unit, step, from_cache);
  }
  return std::shared_ptr<DfsFile>();
}

obs::TraceEvent JoinBlockRun::DriverEvent(const char* name) const {
  return obs::TraceEvent(engine_->now(), -1, obs::TraceLane::kDriver,
                         "driver", name);
}

void JoinBlockRun::Count(const char* name, uint64_t n) const {
  if (auto* metrics = engine_->metrics()) metrics->GetCounter(name)->Add(n);
}

// Conditional re-optimization (paper §3/§5.1: "the decision to re-optimize
// could be conditional on a threshold difference between the estimated
// result size and the observed one"): re-plan when the step's observed
// cardinality missed its estimate by more than reopt_row_error_threshold.
// The default threshold of 0 re-optimizes after every step, the paper's
// implementation.
void JoinBlockRun::ReplanTest(const JobUnit& unit, const StepResult& step,
                              bool from_cache) {
  double estimated = std::max(unit.est_rows, 1.0);
  double observed = std::max(step.stats.cardinality, 1.0);
  double error = std::abs(observed - estimated) / estimated;
  bool step_triggers_replan = error > options_.reopt_row_error_threshold;
  if (step_triggers_replan) replan_ = true;
  // Observed spilling re-plans even when the cardinality landed: the cost
  // model charges spill I/O (SpillCost), so the re-optimizer can trade the
  // next joins toward broadcasts or cheaper shapes.
  if (step.job.reduce_spills > 0) replan_ = true;
  if (trace_ != nullptr) {
    obs::TraceEvent event =
        DriverEvent(from_cache ? "checkpoint_cached" : "checkpoint")
            .Arg("relation", step.relation_id)
            .ArgDouble("est_rows", estimated)
            .ArgDouble("observed_rows", observed);
    if (!from_cache) {
      std::move(event)
          .ArgDouble("row_error", error)
          .ArgDouble("threshold", options_.reopt_row_error_threshold)
          .ArgBool("replan", step_triggers_replan);
    }
    trace_->Record(std::move(event).Arg("plan", previous_plan_));
  }
  if (!from_cache) {
    Count("driver.checkpoints");
    if (step_triggers_replan) Count("driver.replans_triggered");
  }
}

// Algorithm 2: plan, execute a wave of leaf jobs, collect statistics,
// substitute, and repeat. A run that cannot re-plan keeps its one plan; a
// unit served from a memo skips execution.
Result<std::shared_ptr<DfsFile>> JoinBlockRun::Loop() {
  for (;;) {
    if (units_.empty() || (can_replan_ && replan_)) {
      DYNO_RETURN_IF_ERROR(Plan());
    }
    DYNO_ASSIGN_OR_RETURN(Wave wave, PickWave());
    replan_ = options_.reopt_row_error_threshold <= 0.0;
    std::vector<size_t> to_run;
    for (size_t i = 0; i < wave.units.size(); ++i) {
      bool from_cache = false;
      std::optional<StepResult> memo = ConsultMemo(wave, i, &from_cache);
      if (!memo.has_value()) {
        to_run.push_back(i);
        continue;
      }
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                            Commit(wave, i, *memo, from_cache));
      if (wave.final) return output;
    }
    if (to_run.empty()) continue;  // Whole wave served from a memo.

    DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> steps,
                          Execute(wave, to_run));
    for (size_t k = 0; k < steps.size(); ++k) {
      const size_t i = to_run[k];
      StepResult step = std::move(steps[k]);
      if (!step.status.ok()) {
        DYNO_ASSIGN_OR_RETURN(step,
                              Recover(wave.requests[i], std::move(step)));
        if (!step.status.ok()) {
          // Skip the commit; re-plan around what succeeded.
          DYNO_RETURN_IF_ERROR(Abandon(*wave.units[i], step.status));
          continue;
        }
      }
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                            Commit(wave, i, step, /*from_cache=*/false));
      if (wave.final) return output;
    }
  }
}

}  // namespace dyno
