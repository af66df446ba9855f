#include "dyno/driver.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "exec/aggregates.h"
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

/// UnitReplayLog key of `request`: the chain flags of its unit's subtree,
/// the canonical signature of its root and every UnitRequest field.
std::string UnitReplayKey(const PlanExecutor& executor,
                          const PlanExecutor::UnitRequest& request) {
  const PlanNode& root = *request.unit->nodes.back();
  std::string key;
  AppendChainFlags(root, &key);
  key += "|" + executor.CanonicalSignature(root) + "|p";
  for (const std::string& col : request.projection) key += ":" + col;
  key += "|s";
  for (const std::string& col : request.stats_columns) key += ":" + col;
  key += StrFormat("|m%d|r%d", request.reduce_memory_mode,
                   request.num_reduce_tasks);
  return key;
}

/// The paper's §8 "dynamic join operator": when a broadcast join's build
/// side turns out not to fit in task memory (discovered while building the
/// hash tables, before wasting the probe scan), re-run the unit's joins as
/// repartition jobs instead of failing the query, threading the original
/// request's statistics/projection onto the last job. Returns the final
/// step, whose relation is registered as the unit's output so dependants
/// resolving through the unit uid find it; `extra_jobs` counts the
/// repartition jobs run.
Result<StepResult> RunRepartitionFallback(
    PlanExecutor* executor, const JobUnit& unit,
    const PlanExecutor::UnitRequest& original, int* extra_jobs) {
  DYNO_ASSIGN_OR_RETURN(std::string current,
                        executor->ResolveInput(unit.inputs[0]));
  StepResult last;
  for (size_t i = 0; i < unit.nodes.size(); ++i) {
    const PlanNode& node = *unit.nodes[i];
    DYNO_ASSIGN_OR_RETURN(std::string build_id,
                          executor->ResolveInput(unit.inputs[i + 1]));
    auto plan = PlanNode::Join(JoinMethod::kRepartition,
                               PlanNode::Leaf(current),
                               PlanNode::Leaf(build_id), node.key_pairs);
    plan->post_filter = node.post_filter;
    DYNO_ASSIGN_OR_RETURN(std::vector<JobUnit> units,
                          PlanExecutor::Decompose(*plan));
    PlanExecutor::UnitRequest request;
    request.unit = &units[0];
    if (i + 1 == unit.nodes.size()) {
      request.stats_columns = original.stats_columns;
      request.projection = original.projection;
    }
    DYNO_ASSIGN_OR_RETURN(StepResult step, executor->ExecuteOne(request));
    ++*extra_jobs;
    current = step.relation_id;
    // Counters accumulate across the fallback's jobs so the caller can
    // account the whole recovery with one step.
    step.job.Add(last.job);
    last = std::move(step);
  }
  // The stats describe the original unit's subtree, so they must be keyed
  // by *its* signature: the synthesized per-join decompositions above have
  // signatures no later query will ever compute, and publishing under them
  // would pollute the stats store.
  last.subtree_signature = executor->CanonicalSignature(*unit.nodes.back());
  executor->RegisterUnitOutput(unit.uid, last.relation_id);
  return last;
}

/// How many permanent job failures one block tolerates (each triggers a
/// re-plan around the materialized subtrees) before the query gives up.
constexpr int kMaxPermanentJobFailures = 3;

}  // namespace

/// Mutable optimization state of one join block: the relations still to be
/// joined (base leaves and virtual intermediates), the surviving join
/// edges, and the not-yet-applied non-local predicates.
struct DynoDriver::BlockState {
  std::map<std::string, TableStats> relations;
  std::vector<OptEdge> edges;
  std::vector<OptNonLocalPred> preds;

  OptJoinGraph BuildGraph() const {
    OptJoinGraph graph;
    for (const auto& [id, stats] : relations) {
      graph.relations.push_back({id, stats});
    }
    graph.edges = edges;
    graph.non_local_preds = preds;
    return graph;
  }

  /// Replaces the executed relation set `covered` with the virtual relation
  /// `new_id` carrying `stats`: edges inside `covered` are consumed,
  /// crossing edges re-attach to `new_id`, and non-local predicates whose
  /// relations have all been merged are dropped (the join applied them).
  void Substitute(const std::set<std::string>& covered,
                  const std::string& new_id, TableStats stats) {
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

  /// Columns of relations in `covered` that future joins still need — the
  /// attribute set online statistics are collected for (paper §5.4).
  std::vector<std::string> StatsColumnsFor(
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
};

DynoDriver::DynoDriver(MapReduceEngine* engine, Catalog* catalog,
                       StatsStore* store, DynoOptions options)
    : engine_(engine), catalog_(catalog), store_(store),
      options_(std::move(options)) {
  if (options_.max_job_attempts <= 0) {
    options_.max_job_attempts = 1;
    if (const char* env = std::getenv("DYNO_MAX_JOB_ATTEMPTS")) {
      options_.max_job_attempts = static_cast<int>(
          EnvInt64OrDie("DYNO_MAX_JOB_ATTEMPTS", env, 1, 1000));
    }
  }
  if (options_.retry_budget_ms < 0) {
    options_.retry_budget_ms = 0;
    if (const char* env = std::getenv("DYNO_RETRY_BUDGET_MS")) {
      options_.retry_budget_ms = EnvInt64OrDie("DYNO_RETRY_BUDGET_MS", env, 0,
                                               int64_t{1} << 40);
    }
  }
  if (options_.oom_retry_ladder < 0) {
    options_.oom_retry_ladder = 0;
    if (const char* env = std::getenv("DYNO_OOM_RETRIES")) {
      options_.oom_retry_ladder =
          static_cast<int>(EnvInt64OrDie("DYNO_OOM_RETRIES", env, 0, 16));
    }
  }
  if (options_.sync_cost_memory) {
    // Single source of truth for the memory model: the optimizer's
    // feasibility/spill knobs are the engine's, so plan-time admission can
    // never disagree with run-time enforcement. Spill costing only engages
    // when the engine actually enforces reduce memory — otherwise the cost
    // model must reproduce the legacy (memory-oblivious) plans bit for bit.
    const ClusterConfig& cluster = engine_->config();
    bool enforced = cluster.reduce_memory_mode !=
                    ClusterConfig::ReduceMemoryMode::kUnbounded;
    options_.cost.AdoptClusterMemoryModel(
        cluster.memory_per_task_bytes, cluster.broadcast_memory_factor,
        enforced ? cluster.bytes_per_reduce_task : 0, cluster.reduce_slots);
  }
}

Result<QueryRunReport> DynoDriver::Execute(const Query& query) {
  return ExecuteInternal(query, nullptr);
}

Result<QueryRunReport> DynoDriver::Resume(const Query& query) {
  CheckpointManifest manifest;
  bool from_scratch = true;
  bool used_fallback = false;
  if (!options_.checkpoint_path.empty()) {
    auto loaded = CheckpointManifest::ReadWithFallback(
        *engine_->dfs(), options_.checkpoint_path, &used_fallback);
    if (loaded.ok()) {
      manifest = std::move(*loaded);
      from_scratch = manifest.entries.empty();
    }
  }
  if (obs::TraceSink* trace = engine_->trace()) {
    trace->Record(obs::TraceEvent(engine_->now(), -1, obs::TraceLane::kDriver,
                                  "driver", "resume")
                      .ArgBool("from_scratch", from_scratch)
                      .ArgInt("checkpointed_steps",
                              static_cast<int64_t>(manifest.entries.size())));
    if (used_fallback) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kDriver, "driver",
                                    "manifest_fallback")
                        .Arg("path", options_.checkpoint_path)
                        .ArgInt("recovered_steps",
                                static_cast<int64_t>(manifest.entries.size())));
    }
  }
  if (obs::MetricsRegistry* metrics = engine_->metrics()) {
    metrics->GetCounter("driver.recovery_resumes")->Add();
    if (used_fallback) {
      metrics->GetCounter("driver.manifest_fallbacks")->Add();
    }
  }
  auto report = ExecuteInternal(query, from_scratch ? nullptr : &manifest);
  if (report.ok() && used_fallback) ++report->manifest_fallbacks;
  return report;
}

Result<QueryRunReport> DynoDriver::ExecuteInternal(
    const Query& query, const CheckpointManifest* resume) {
  // Seeding with the resume manifest keeps the already-applied entries
  // available should this run itself be killed and resumed again.
  manifest_ = resume != nullptr ? *resume : CheckpointManifest{};
  const std::vector<std::string> existing =
      ListQueryTemp(*engine_->dfs(), options_.exec.query_id);
  QueryRunReport report;
  SimMillis start = engine_->now();
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> joined,
                        RunJoinBlock(query.join_block, &report, resume));
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> current,
                        RunPostJoin(std::move(joined), query.group_by,
                                    query.order_by, "", &report));
  report.result = current;
  report.result_records = current ? current->num_records() : 0;
  report.total_ms = engine_->now() - start;
  // Only a run that returns its result gives up its intermediates: a
  // failed or killed one keeps them for Resume.
  ReclaimQueryTemp(engine_->dfs(), options_.exec.query_id,
                   current ? current->path() : "", existing);
  return report;
}

Result<QueryRunReport> DynoDriver::ExecuteMultiBlock(
    const MultiBlockQuery& query) {
  if (query.blocks.empty()) {
    return Status::InvalidArgument("multi-block query has no blocks");
  }
  manifest_ = CheckpointManifest{};
  const std::vector<std::string> existing =
      ListQueryTemp(*engine_->dfs(), options_.exec.query_id);
  QueryRunReport report;
  SimMillis start = engine_->now();

  std::set<std::string> names;
  for (const auto& block : query.blocks) {
    if (block.name.empty() || StartsWith(block.name, kBlockRefPrefix)) {
      return Status::InvalidArgument("bad block name: " + block.name);
    }
    if (!names.insert(block.name).second) {
      return Status::InvalidArgument("duplicate block name: " + block.name);
    }
  }

  // Dependencies: block -> blocks it reads via "@block:" table references.
  auto deps_of = [&](const MultiBlockQuery::Block& block)
      -> Result<std::vector<std::string>> {
    std::vector<std::string> deps;
    for (const TableRef& ref : block.join_block.tables) {
      if (!StartsWith(ref.table, kBlockRefPrefix)) continue;
      std::string dep = ref.table.substr(sizeof(kBlockRefPrefix) - 1);
      if (!names.count(dep)) {
        return Status::InvalidArgument("unknown block reference: " +
                                       ref.table);
      }
      deps.push_back(std::move(dep));
    }
    return deps;
  };

  // Catalog names for block outputs. The catalog is shared by every driver
  // on the engine, so a concurrent query defining an identically-named
  // block must not collide: a query-scoped driver registers (and reads)
  // block outputs under "@block:<query_id>/<name>" instead of the bare
  // legacy "@block:<name>".
  auto scoped_block_name = [&](const std::string& bare) {
    return options_.exec.query_id.empty()
               ? kBlockRefPrefix + bare
               : kBlockRefPrefix + options_.exec.query_id + "/" + bare;
  };
  auto scope_block_refs = [&](const JoinBlock& jb) {
    JoinBlock scoped = jb;
    for (TableRef& ref : scoped.tables) {
      if (!StartsWith(ref.table, kBlockRefPrefix)) continue;
      ref.table =
          scoped_block_name(ref.table.substr(sizeof(kBlockRefPrefix) - 1));
    }
    return scoped;
  };

  // Execute in dependency order (Kahn-style over declaration order).
  std::set<std::string> done;
  std::vector<const MultiBlockQuery::Block*> pending;
  for (const auto& block : query.blocks) pending.push_back(&block);
  std::shared_ptr<DfsFile> last_output;

  while (!pending.empty()) {
    bool progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      DYNO_ASSIGN_OR_RETURN(std::vector<std::string> deps, deps_of(**it));
      bool ready = true;
      for (const std::string& dep : deps) {
        if (!done.count(dep)) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        ++it;
        continue;
      }
      const MultiBlockQuery::Block& block = **it;
      JoinBlock scoped_join_block = scope_block_refs(block.join_block);
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> joined,
                            RunJoinBlock(scoped_join_block, &report, nullptr));
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                            RunPostJoin(std::move(joined), block.group_by,
                                        std::nullopt, "mb_", &report));
      // Expose the block's output to downstream blocks through the catalog.
      // ReplaceTable (not RegisterTable) so re-running a query under the
      // same scope — e.g. Resume after a kill — re-points the name instead
      // of failing AlreadyExists, and bumps its data version.
      DYNO_RETURN_IF_ERROR(catalog_->ReplaceTable(
          scoped_block_name(block.name), output->path()));
      done.insert(block.name);
      last_output = std::move(output);
      it = pending.erase(it);
      progressed = true;
    }
    if (!progressed) {
      return Status::InvalidArgument("cyclic block references");
    }
  }

  DYNO_ASSIGN_OR_RETURN(last_output,
                        RunPostJoin(std::move(last_output), std::nullopt,
                                    query.final_order_by, "mb_", &report));
  report.result = last_output;
  report.result_records = last_output ? last_output->num_records() : 0;
  report.total_ms = engine_->now() - start;
  // The "@block:" tables point into the temp directory too: a later run
  // re-points each before it reads it.
  ReclaimQueryTemp(engine_->dfs(), options_.exec.query_id,
                   last_output ? last_output->path() : "", existing);
  return report;
}

Result<std::shared_ptr<DfsFile>> DynoDriver::RunPostJoin(
    std::shared_ptr<DfsFile> input, const std::optional<GroupBySpec>& group_by,
    const std::optional<OrderBySpec>& order_by, const std::string& path_prefix,
    QueryRunReport* report) {
  auto path = [&](const char* kind) {
    return StrFormat("%s/%s%s_%lld",
                     QueryTempDir(options_.exec.query_id).c_str(),
                     path_prefix.c_str(), kind,
                     static_cast<long long>(engine_->now()));
  };
  auto fold = [&](Result<JobResult> job) -> Status {
    DYNO_RETURN_IF_ERROR(job.status());
    input = job->output;
    ++report->jobs_run;
    report->Add(*job);
    return Status::OK();
  };
  if (group_by.has_value()) {
    DYNO_RETURN_IF_ERROR(fold(RunGroupBy(engine_, input, *group_by,
                                         path("gb"), /*use_combiner=*/true,
                                         options_.exec.query_id)));
  }
  if (order_by.has_value()) {
    DYNO_RETURN_IF_ERROR(fold(RunOrderBy(engine_, input, *order_by,
                                         path("ob"), options_.exec.query_id)));
  }
  return input;
}

Result<std::shared_ptr<DfsFile>> DynoDriver::RunJoinBlock(
    const JoinBlock& block, QueryRunReport* report,
    const CheckpointManifest* resume) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  SimMillis block_start = engine_->now();
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);

  // Optional §4.4 extension: order each leaf's conjuncts by measured rank
  // so cheap, selective predicates run first at every scan.
  if (options_.reorder_local_predicates) {
    for (LeafExpr& leaf : leaves) {
      if (leaf.filter == nullptr) continue;
      PredicateOrderOptions order_options;
      DYNO_ASSIGN_OR_RETURN(
          leaf.filter,
          ReorderConjunction(catalog_, leaf.table, leaf.filter,
                             order_options));
    }
  }

  PlanExecutor executor(engine_, options_.exec);

  DYNO_RETURN_IF_ERROR(executor.BindLeaves(*catalog_, leaves));

  // --- Acquire leaf statistics: pilot runs, or base statistics when the
  // pilot is ablated away. ---
  BlockState state;
  if (options_.use_pilot_runs) {
    // Pilot jobs inherit the query scope so identically-aliased leaves of
    // concurrent queries keep independent engine fault streams.
    PilotRunOptions pilot_options = options_.pilot;
    if (pilot_options.query_id.empty()) {
      pilot_options.query_id = options_.exec.query_id;
    }
    PilotRunner pilot(engine_, catalog_, store_, pilot_options);
    DYNO_ASSIGN_OR_RETURN(PilotRunReport pilot_report, pilot.Run(leaves));
    report->pilot_ms += pilot_report.elapsed_ms;
    for (const LeafExpr& leaf : leaves) {
      const PilotLeafResult* result = pilot_report.Find(leaf.alias);
      if (result == nullptr) {
        return Status::Internal("pilot run missing leaf " + leaf.alias);
      }
      state.relations[leaf.alias] = result->stats;
      if (result->full_output != nullptr) {
        // The pilot consumed the whole relation: its output *is* the leaf
        // (paper §4.1).
        RelationBinding binding;
        binding.file = result->full_output;
        binding.signature = result->signature;
        executor.Bind(leaf.alias, std::move(binding));
      }
    }
  } else {
    for (const LeafExpr& leaf : leaves) {
      auto cached = store_->Get(leaf.table + "|");
      if (cached.has_value()) {
        state.relations[leaf.alias] = *cached;
      } else {
        DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                              catalog_->OpenTable(leaf.table));
        TableStats stats;
        stats.cardinality = static_cast<double>(file->num_records());
        stats.avg_record_size = file->avg_record_size();
        state.relations[leaf.alias] = std::move(stats);
      }
    }
  }

  // --- Single-table block: a bare scan job. ---
  if (leaves.size() == 1) {
    std::string path =
        StrFormat("%s/scan_%lld", QueryTempDir(options_.exec.query_id).c_str(),
                  static_cast<long long>(engine_->now()));
    DYNO_ASSIGN_OR_RETURN(JobResult job,
                          executor.ScanRelation(leaves[0].alias,
                                                block.output_columns, "scan",
                                                path));
    ++report->jobs_run;
    ++report->map_only_jobs;
    report->Add(job);
    return job.output;
  }

  for (const JoinEdge& edge : block.edges) {
    state.edges.push_back({edge.left_alias, edge.left_column,
                           edge.right_alias, edge.right_column});
  }
  for (const Predicate& pred : non_local) {
    OptNonLocalPred opt_pred;
    opt_pred.expr = pred.expr;
    opt_pred.relation_ids = pred.aliases;
    state.preds.push_back(std::move(opt_pred));
  }

  JoinOptimizer optimizer(options_.cost);
  std::string previous_plan;
  obs::TraceSink* trace = engine_->trace();
  obs::MetricsRegistry* metrics = engine_->metrics();

  // Base-leaf cover set of every live relation: which original leaves it
  // embodies. Checkpoint entries are keyed by cover, because relation ids
  // are run-local — a resumed run matches entries through this map.
  std::map<std::string, std::set<std::string>> base_cover;
  for (const LeafExpr& leaf : leaves) base_cover[leaf.alias] = {leaf.alias};

  std::map<std::string, std::string> alias_to_table;
  for (const LeafExpr& leaf : leaves) alias_to_table[leaf.alias] = leaf.table;

  // Current data version of every base table a set of base aliases reads —
  // what cache entries and checkpoint entries are validated against.
  auto table_versions_for = [&](const std::set<std::string>& base_aliases) {
    std::map<std::string, uint64_t> versions;
    for (const std::string& alias : base_aliases) {
      auto it = alias_to_table.find(alias);
      if (it == alias_to_table.end()) continue;
      versions[it->second] = catalog_->TableVersion(it->second);
    }
    return versions;
  };

  // Cross-query cache key for one unit: the canonical subtree signature
  // decorated with the requested output statistics columns and projection.
  // Both change the entry's usability (a consumer needing column synopses
  // the entry lacks would plan differently; a projected root output holds
  // different bytes), so they are part of the key, not a lookup-time check.
  auto cache_key_for = [&](const JobUnit& unit,
                           const PlanExecutor::UnitRequest& request) {
    std::string key = executor.CanonicalSignature(*unit.nodes.back());
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
  };

  // Record the query's leaf signatures in the manifest, so a later Resume
  // can prove the checkpoints were written for this exact query text.
  if (!options_.checkpoint_path.empty()) {
    for (const LeafExpr& leaf : leaves) {
      manifest_.leaf_signatures.insert_or_assign(leaf.alias,
                                                 LeafSignature(leaf));
    }
  }

  if (resume != nullptr) {
    // Refuse to substitute checkpoints into a changed query: every base
    // alias a manifest entry covers must still exist with the same leaf
    // signature (table + local filter). Silently reusing a materialization
    // of different predicates would return wrong rows, so a mismatch is an
    // error, not a skip.
    std::map<std::string, std::string> current_sigs;
    for (const LeafExpr& leaf : leaves) {
      current_sigs[leaf.alias] = LeafSignature(leaf);
    }
    for (const CheckpointEntry& entry : resume->entries) {
      for (const std::string& alias : entry.covered) {
        auto current = current_sigs.find(alias);
        if (current == current_sigs.end()) {
          return Status::InvalidArgument(StrFormat(
              "checkpoint manifest covers leaf '%s', which the resumed "
              "query does not have — the query text changed since the "
              "checkpoint was written",
              alias.c_str()));
        }
        auto recorded = resume->leaf_signatures.find(alias);
        if (recorded == resume->leaf_signatures.end() ||
            recorded->second != current->second) {
          return Status::InvalidArgument(StrFormat(
              "checkpoint manifest was written for a different definition "
              "of leaf '%s' (recorded signature \"%s\", current \"%s\")",
              alias.c_str(),
              recorded == resume->leaf_signatures.end()
                  ? "<missing>"
                  : recorded->second.c_str(),
              current->second.c_str()));
        }
      }
    }
    int applied = 0;
    for (const CheckpointEntry& entry : resume->entries) {
      std::set<std::string> want(entry.covered.begin(), entry.covered.end());
      // The entry replaces the live relations whose covers tile `want`
      // exactly; anything else (already superseded, or from a different
      // query sharing the path) is skipped and re-executed normally.
      std::set<std::string> replaced;
      std::set<std::string> got;
      for (const auto& [id, cover] : base_cover) {
        if (state.relations.count(id) == 0) continue;
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
      bool stale = false;
      for (const auto& [table, version] : entry.table_versions) {
        if (catalog_->TableVersion(table) != version) {
          stale = true;
          break;
        }
      }
      if (stale) continue;
      auto file = engine_->dfs()->Open(entry.path);
      if (!file.ok()) continue;  // Materialization gone; re-execute it.
      RelationBinding binding;
      binding.file = std::move(*file);
      binding.signature = entry.signature;
      executor.Bind(entry.relation_id, std::move(binding));
      state.Substitute(replaced, entry.relation_id, entry.stats);
      store_->Put(entry.signature, entry.stats);
      base_cover[entry.relation_id] = std::move(want);
      ++applied;
    }
    if (applied > 0) {
      // Continuation relation ids (and so subtree signatures) must match
      // the ones the killed run would have assigned next.
      executor.ReserveTempIds(static_cast<int>(resume->temp_counter));
      report->resumed_steps += applied;
      if (metrics != nullptr) {
        metrics->GetCounter("driver.recovery_resumed_steps")->Add(applied);
      }
      if (trace != nullptr) {
        trace->Record(obs::TraceEvent(engine_->now(), -1,
                                      obs::TraceLane::kDriver, "driver",
                                      "resume_applied")
                          .ArgInt("steps", applied)
                          .ArgInt("reserved_temp_ids", resume->temp_counter));
      }
    }
    if (state.relations.size() == 1) {
      // Every join ran before the kill: the last checkpoint is already the
      // block's projected output.
      DYNO_ASSIGN_OR_RETURN(
          RelationBinding binding,
          executor.GetBinding(state.relations.begin()->first));
      return binding.file;
    }
  }

  auto record_plan = [&](const OptimizeResult& opt) {
    PlanEvent event;
    event.at_ms = engine_->now() - block_start;
    event.plan_tree = opt.plan->ToTreeString();
    event.plan_compact = opt.plan->ToString();
    event.est_cost = opt.plan->est_cost;
    event.plan_changed =
        !previous_plan.empty() && previous_plan != event.plan_compact;
    if (event.plan_changed) ++report->plan_changes;
    if (trace != nullptr) {
      trace->Record(
          obs::TraceEvent(engine_->now(), opt.report.simulated_ms,
                          obs::TraceLane::kOptimizer, "optimizer", "optimize")
              .ArgInt("groups_explored", opt.report.groups_explored)
              .ArgInt("expressions_costed", opt.report.expressions_costed)
              .ArgInt("plans_pruned_memory", opt.report.plans_pruned_memory)
              .ArgInt("broadcast_chain_collapses",
                      opt.report.broadcast_chain_collapses)
              .ArgDouble("best_cost", opt.plan->est_cost)
              .Arg("plan", event.plan_compact)
              .Arg("prev_plan", previous_plan)
              .ArgBool("plan_changed", event.plan_changed));
    }
    if (metrics != nullptr) {
      metrics->GetCounter("driver.optimizer_calls")->Add();
      if (event.plan_changed) {
        metrics->GetCounter("driver.plan_changes")->Add();
      }
      metrics->GetCounter("optimizer.groups_explored")
          ->Add(opt.report.groups_explored);
      metrics->GetCounter("optimizer.plans_pruned_memory")
          ->Add(opt.report.plans_pruned_memory);
    }
    previous_plan = event.plan_compact;
    report->plan_history.push_back(std::move(event));
    report->optimizer_ms += opt.report.simulated_ms;
    ++report->optimizer_calls;
    engine_->AdvanceClock(opt.report.simulated_ms);
  };

  auto account_step = [&](const JobUnit& unit, const StepResult& step,
                          const std::set<std::string>& covered,
                          const std::string& cache_key, bool from_cache) {
    if (!from_cache) {
      ++report->jobs_run;
      if (unit.map_only) ++report->map_only_jobs;
      report->stats_overhead_ms += step.job.observer_overhead_ms;
      report->Add(step.job);
      if (step.job.records_quarantined > 0 && metrics != nullptr) {
        metrics->GetCounter("driver.quarantine_records")
            ->Add(static_cast<int64_t>(step.job.records_quarantined));
        metrics->GetCounter("driver.quarantine_steps")->Add();
      }
    }
    store_->Put(step.subtree_signature, step.stats);
    // Fold the new relation's base-leaf cover and checkpoint the step.
    std::set<std::string> base;
    for (const std::string& id : covered) {
      auto it = base_cover.find(id);
      if (it != base_cover.end()) {
        base.insert(it->second.begin(), it->second.end());
      } else {
        base.insert(id);
      }
    }
    base_cover[step.relation_id] = base;
    auto binding = executor.GetBinding(step.relation_id);
    if (!binding.ok() || binding->file == nullptr) return;
    if (options_.subtree_cache != nullptr && !from_cache &&
        !cache_key.empty() && step.job.records_quarantined == 0) {
      // Publish for other queries. Quarantine-affected outputs stay
      // private: their rows depend on this query's corruption stream, not
      // just on the subtree definition.
      (void)options_.subtree_cache->Publish(cache_key,
                                            table_versions_for(base),
                                            *binding->file, step.stats,
                                            engine_->now());
    }
    if (options_.checkpoint_path.empty()) return;
    CheckpointEntry entry;
    entry.signature = step.subtree_signature;
    entry.relation_id = step.relation_id;
    entry.path = binding->file->path();
    entry.covered.assign(base.begin(), base.end());
    entry.stats = step.stats;
    entry.table_versions = table_versions_for(base);
    manifest_.entries.push_back(std::move(entry));
    manifest_.temp_counter = executor.temp_counter();
    Status persisted =
        manifest_.WriteTo(engine_->dfs(), options_.checkpoint_path);
    if (persisted.ok() && metrics != nullptr) {
      metrics->GetCounter("driver.recovery_checkpoint_writes")->Add();
    }
  };

  // Aborts the query once the kill switch trips (checkpoint/resume tests).
  auto abort_requested = [&]() {
    return options_.abort_after_jobs >= 0 &&
           report->jobs_run >= options_.abort_after_jobs;
  };

  // Whole-job retry: re-submit a transiently failed unit until the attempt
  // budget runs out. OutOfMemory (handled by the broadcast fallback) and
  // Unavailable (the cluster can never run it) are not retried, nor are
  // Cancelled / DeadlineExceeded (the service told the query to stop —
  // retrying would fight the scheduler).
  int permanent_failures = 0;

  // Slot-ms attributable to this query, for charging re-submissions against
  // DynoOptions::retry_budget_ms. With a query id the engine's per-query
  // ledger is exact even when other sessions share the wave; without one the
  // driver owns the engine, so the global ledger is equivalent.
  auto attained_slot_ms = [&]() -> SimMillis {
    if (!options_.exec.query_id.empty()) {
      const auto& ledger = engine_->query_slot_ms();
      auto it = ledger.find(options_.exec.query_id);
      return it == ledger.end() ? 0 : it->second;
    }
    return engine_->busy_slot_ms_total();
  };

  auto execute_with_retry =
      [&](const PlanExecutor::UnitRequest& request,
          Status first_error) -> Result<StepResult> {
    Status last = std::move(first_error);
    for (int attempt = 2; attempt <= options_.max_job_attempts &&
                          last.code() != StatusCode::kOutOfMemory &&
                          last.code() != StatusCode::kUnavailable &&
                          last.code() != StatusCode::kCancelled &&
                          last.code() != StatusCode::kDeadlineExceeded;
         ++attempt) {
      if (options_.retry_budget_ms > 0 &&
          report->retry_slot_ms >= options_.retry_budget_ms) {
        report->retry_budget_exhausted = true;
        if (metrics != nullptr) {
          metrics->GetCounter("driver.retry_budget_exhausted")->Add();
        }
        if (trace != nullptr) {
          trace->Record(obs::TraceEvent(engine_->now(), -1,
                                        obs::TraceLane::kDriver, "driver",
                                        "retry_budget_exhausted")
                            .ArgInt("unit", request.unit->uid)
                            .ArgInt("retry_slot_ms", report->retry_slot_ms)
                            .ArgInt("budget_ms", options_.retry_budget_ms));
        }
        break;
      }
      ++report->job_retries;
      if (metrics != nullptr) {
        metrics->GetCounter("driver.recovery_job_retries")->Add();
      }
      if (trace != nullptr) {
        trace->Record(obs::TraceEvent(engine_->now(), -1,
                                      obs::TraceLane::kDriver, "driver",
                                      "job_retry")
                          .ArgInt("unit", request.unit->uid)
                          .ArgInt("attempt", attempt)
                          .Arg("error", last.ToString()));
      }
      const SimMillis before_ms = attained_slot_ms();
      auto again = executor.ExecuteOne(request);
      report->retry_slot_ms += attained_slot_ms() - before_ms;
      if (again.ok()) return std::move(*again);
      last = again.status();
    }
    return last;
  };

  // OOM retry ladder (DESIGN.md §6.10): a repartition unit whose reducers
  // died of OutOfMemory under the strict memory mode is re-submitted with
  // spill mode forced (rung 1); each further rung doubles the reducer count
  // so every reducer's sort state halves. Runs until the ladder is
  // exhausted, success, or a non-OOM failure (handed back for the normal
  // retry/abandon machinery). Map-only (broadcast) OOMs never come here —
  // the adaptive join fallback owns those.
  auto oom_ladder = [&](const PlanExecutor::UnitRequest& original,
                        int planned_reducers,
                        Status first_error) -> Result<StepResult> {
    PlanExecutor::UnitRequest request = original;
    request.reduce_memory_mode = 1;  // ClusterConfig::ReduceMemoryMode::kSpill
    Status last = std::move(first_error);
    int reducers = planned_reducers;
    for (int rung = 1; rung <= options_.oom_retry_ladder; ++rung) {
      if (rung >= 2) {
        if (reducers <= 0) reducers = 1;
        reducers *= 2;
        request.num_reduce_tasks = reducers;
      }
      ++report->oom_retries;
      if (metrics != nullptr) {
        metrics->GetCounter("driver.oom_retries")->Add();
      }
      if (trace != nullptr) {
        trace->Record(obs::TraceEvent(engine_->now(), -1,
                                      obs::TraceLane::kDriver, "driver",
                                      "oom_retry")
                          .ArgInt("unit", request.unit->uid)
                          .ArgInt("rung", rung)
                          .ArgInt("reduce_tasks", request.num_reduce_tasks)
                          .Arg("error", last.ToString()));
      }
      DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> again,
                            executor.Execute({request}));
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
  };

  // A permanently failed unit is abandoned: the driver re-plans around the
  // subtrees it already materialized (bounded, and pointless when the
  // failure is environmental). Returns true when the loop should re-plan.
  auto abandon_job = [&](const JobUnit& unit, const Status& error) {
    ++permanent_failures;
    if (trace != nullptr) {
      trace->Record(obs::TraceEvent(engine_->now(), -1,
                                    obs::TraceLane::kDriver, "driver",
                                    "job_permanent_failure")
                        .ArgInt("unit", unit.uid)
                        .ArgInt("permanent_failures", permanent_failures)
                        .Arg("error", error.ToString()));
    }
    if (metrics != nullptr) {
      metrics->GetCounter("driver.recovery_replans")->Add();
    }
  };

  if (IsSimpleStrategy(options_.strategy)) {
    // --- DYNOPT-SIMPLE: one optimizer call, then run the plan as-is. ---
    DYNO_ASSIGN_OR_RETURN(OptimizeResult opt,
                          optimizer.Optimize(state.BuildGraph()));
    record_plan(opt);
    DYNO_ASSIGN_OR_RETURN(
        StaticRunResult run,
        RunStaticPlan(&executor, *opt.plan,
                      options_.strategy == ExecutionStrategy::kSimpleParallel,
                      block.output_columns,
                      options_.adaptive_join_fallback));
    report->jobs_run += run.jobs_run;
    report->map_only_jobs += run.map_only_jobs;
    report->broadcast_fallbacks += run.broadcast_fallbacks;
    report->Add(run);
    return run.output;
  }

  // --- DYNOPT (Algorithm 2): optimize, execute leaf jobs, collect
  // statistics, substitute, and repeat. Re-optimization is conditional: if
  // every executed job's observed cardinality landed within
  // `reopt_row_error_threshold` of its estimate, the current plan is
  // continued instead of re-planned (paper §3/§5.1: "the decision to
  // re-optimize could be conditional on a threshold difference between the
  // estimated result size and the observed one"). The default threshold of
  // 0 re-optimizes after every step, the paper's implementation.
  std::unique_ptr<PlanNode> plan;
  std::vector<JobUnit> units;
  std::set<int64_t> executed_units;
  bool replan = true;

  for (;;) {
    if (replan) {
      DYNO_ASSIGN_OR_RETURN(OptimizeResult opt,
                            optimizer.Optimize(state.BuildGraph()));
      record_plan(opt);
      plan = std::move(opt.plan);
      DYNO_ASSIGN_OR_RETURN(units, PlanExecutor::Decompose(*plan));
      executed_units.clear();
      if (units.empty()) {
        return Status::Internal("optimizer returned a plan with no jobs");
      }
    }

    std::vector<const JobUnit*> ready = ReadyUnits(units, executed_units);
    if (ready.empty()) {
      return Status::Internal("plan decomposition produced no ready jobs");
    }
    std::vector<const JobUnit*> chosen =
        PickLeafJobs(options_.strategy, ready);
    // The root is ready only once every other unit has run. It is then the
    // final wave, of one unit: it carries the block's output projection
    // (Algorithm 2, line 6), and its output ends the loop.
    const bool final_wave = chosen[0] == &units.back();

    std::vector<PlanExecutor::UnitRequest> requests;
    std::vector<std::set<std::string>> covered_sets;
    std::vector<std::string> cache_keys;
    for (const JobUnit* unit : chosen) {
      std::set<std::string> covered;
      for (const JobInput& input : unit->inputs) {
        DYNO_ASSIGN_OR_RETURN(std::string id,
                              executor.ResolveInput(input));
        covered.insert(std::move(id));
      }
      PlanExecutor::UnitRequest request;
      request.unit = unit;
      if (final_wave) {
        request.projection = block.output_columns;
      } else {
        request.stats_columns = state.StatsColumnsFor(covered);
      }
      cache_keys.push_back(options_.subtree_cache != nullptr
                               ? cache_key_for(*unit, request)
                               : std::string());
      requests.push_back(std::move(request));
      covered_sets.push_back(std::move(covered));
    }

    // Folds one finished step — executed, or served from the cross-query
    // cache — into the loop: account it; for the root, return the block's
    // output; otherwise substitute the new relation, test whether its
    // observed size calls for a re-plan, and checkpoint it. A cache entry's
    // stats are the ones executing would have observed, so the re-plan
    // decision matches a cold run exactly.
    auto commit = [&](size_t i, const StepResult& step,
                      bool from_cache) -> Result<std::shared_ptr<DfsFile>> {
      account_step(*chosen[i], step, covered_sets[i], cache_keys[i],
                   from_cache);
      if (!from_cache && abort_requested()) {
        return Status::Cancelled(
            StrFormat("query aborted after %d jobs (test kill switch)",
                      report->jobs_run));
      }
      double estimated = std::max(chosen[i]->est_rows, 1.0);
      double observed = std::max(step.stats.cardinality, 1.0);
      auto step_event = [&](const char* name) {
        return obs::TraceEvent(engine_->now(), -1, obs::TraceLane::kDriver,
                               "driver", name)
            .Arg("relation", step.relation_id);
      };
      if (final_wave) {
        if (trace != nullptr) {
          trace->Record(
              from_cache
                  ? step_event("final_step_cached").Arg("plan", previous_plan)
                  : step_event("final_step")
                        .ArgDouble("est_rows", estimated)
                        .ArgDouble("observed_rows", observed)
                        .Arg("plan", previous_plan));
        }
        DYNO_ASSIGN_OR_RETURN(RelationBinding binding,
                              executor.GetBinding(step.relation_id));
        return binding.file;
      }
      state.Substitute(covered_sets[i], step.relation_id, step.stats);
      executed_units.insert(chosen[i]->uid);
      // Estimation error check for conditional re-optimization.
      double error = std::abs(observed - estimated) / estimated;
      bool step_triggers_replan = error > options_.reopt_row_error_threshold;
      if (step_triggers_replan) replan = true;
      // Observed spilling re-plans even when the cardinality landed: the
      // cost model charges spill I/O (SpillCost), so the re-optimizer can
      // trade the next joins toward broadcasts or cheaper shapes.
      if (step.job.reduce_spills > 0) replan = true;
      if (trace != nullptr) {
        trace->Record(
            from_cache
                ? step_event("checkpoint_cached")
                      .ArgDouble("est_rows", estimated)
                      .ArgDouble("observed_rows", observed)
                      .Arg("plan", previous_plan)
                : step_event("checkpoint")
                      .ArgDouble("est_rows", estimated)
                      .ArgDouble("observed_rows", observed)
                      .ArgDouble("row_error", error)
                      .ArgDouble("threshold",
                                 options_.reopt_row_error_threshold)
                      .ArgBool("replan", step_triggers_replan)
                      .Arg("plan", previous_plan));
      }
      if (!from_cache && metrics != nullptr) {
        metrics->GetCounter("driver.checkpoints")->Add();
        if (step_triggers_replan) {
          metrics->GetCounter("driver.replans_triggered")->Add();
        }
      }
      return std::shared_ptr<DfsFile>();
    };

    // Consult the cross-query cache: a unit whose decorated subtree key is
    // pinned (and still valid against current table versions) is satisfied
    // without running a job; only the misses execute, as one wave. All
    // decisions happen on this (baton-serialized) driver thread, so hit
    // patterns depend only on admission order — never on engine threading.
    replan = options_.reopt_row_error_threshold <= 0.0;
    std::vector<size_t> to_run;
    for (size_t i = 0; i < chosen.size(); ++i) {
      std::optional<SubtreeCache::Hit> hit;
      if (options_.subtree_cache != nullptr) {
        hit = options_.subtree_cache->Lookup(cache_keys[i], engine_->now());
      }
      if (!hit.has_value()) {
        to_run.push_back(i);
        continue;
      }
      StepResult step;
      step.subtree_signature =
          executor.CanonicalSignature(*chosen[i]->nodes.back());
      step.stats = hit->stats;
      RelationBinding cached;
      cached.file = hit->file;
      cached.signature = step.subtree_signature;
      step.relation_id = executor.BindCachedRelation(std::move(cached));
      executor.RegisterUnitOutput(chosen[i]->uid, step.relation_id);
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                            commit(i, step, /*from_cache=*/true));
      if (final_wave) return output;
    }
    if (to_run.empty()) continue;  // Whole wave served from cache.

    std::vector<PlanExecutor::UnitRequest> wave;
    for (size_t i : to_run) wave.push_back(std::move(requests[i]));
    DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> steps,
                          executor.Execute(wave));
    for (size_t k = 0; k < steps.size(); ++k) {
      const size_t i = to_run[k];
      StepResult& step = steps[k];
      if (!step.status.ok() &&
          step.status.code() == StatusCode::kOutOfMemory &&
          !chosen[i]->map_only && options_.oom_retry_ladder > 0) {
        auto climbed = oom_ladder(wave[k], step.job.reduce_tasks_planned,
                                  step.status);
        if (climbed.ok()) {
          step = std::move(*climbed);
          replan = true;  // the plan's memory footprint was provably wrong
        } else {
          step.status = climbed.status();
        }
      }
      if (!step.status.ok()) {
        if (step.status.code() == StatusCode::kOutOfMemory &&
            options_.adaptive_join_fallback && chosen[i]->map_only) {
          int extra_jobs = 0;
          DYNO_ASSIGN_OR_RETURN(
              step, RunRepartitionFallback(&executor, *chosen[i], wave[k],
                                           &extra_jobs));
          report->jobs_run += extra_jobs - 1;  // account_step adds one more
          ++report->broadcast_fallbacks;
          replan = true;  // the plan was provably wrong here
          if (trace != nullptr) {
            trace->Record(obs::TraceEvent(engine_->now(), -1,
                                          obs::TraceLane::kDriver, "driver",
                                          "broadcast_fallback")
                              .ArgInt("unit", chosen[i]->uid)
                              .ArgInt("extra_jobs", extra_jobs));
          }
        } else {
          auto retried = execute_with_retry(wave[k], step.status);
          if (retried.ok()) {
            step = std::move(*retried);
          } else if (retried.status().code() == StatusCode::kUnavailable ||
                     retried.status().code() == StatusCode::kCancelled ||
                     retried.status().code() ==
                         StatusCode::kDeadlineExceeded ||
                     permanent_failures + 1 > kMaxPermanentJobFailures) {
            return retried.status();
          } else {
            abandon_job(*chosen[i], retried.status());
            replan = true;
            continue;  // Skip the commit; re-plan around what succeeded.
          }
        }
      }
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> output,
                            commit(i, step, /*from_cache=*/false));
      if (final_wave) return output;
    }
  }
}

Result<StaticRunResult> RunStaticPlan(
    PlanExecutor* executor, const PlanNode& plan, bool parallel_waves,
    const std::vector<std::string>& final_projection,
    bool broadcast_fallback, UnitReplayLog* replay) {
  StaticRunResult result;
  if (plan.IsLeaf()) {
    DYNO_ASSIGN_OR_RETURN(RelationBinding binding,
                          executor->GetBinding(plan.relation_id));
    result.output = binding.file;
    result.final_relation_id = plan.relation_id;
    return result;
  }
  DYNO_ASSIGN_OR_RETURN(std::vector<JobUnit> units,
                        PlanExecutor::Decompose(plan));
  executor->ResetUnitOutputs();
  std::set<int64_t> executed;
  std::string last_id;
  int64_t final_uid = units.empty() ? -1 : units.back().uid;
  MapReduceEngine* engine = executor->engine();
  const bool replayable = replay != nullptr &&
                          !engine->config().faults.enabled() &&
                          !engine->has_submit_gate();

  while (executed.size() < units.size()) {
    std::vector<const JobUnit*> ready = ReadyUnits(units, executed);
    if (ready.empty()) {
      return Status::Internal("static plan has unexecutable units");
    }
    if (!parallel_waves) ready.resize(1);
    std::vector<PlanExecutor::UnitRequest> requests;
    for (const JobUnit* unit : ready) {
      PlanExecutor::UnitRequest request;
      request.unit = unit;
      if (unit->uid == final_uid) request.projection = final_projection;
      requests.push_back(std::move(request));
    }
    // A one-unit wave on an idle, fault-free engine takes the same clock
    // delta and writes the same rows every time it runs.
    std::string replay_key;
    const UnitReplayLog::Entry* recorded = nullptr;
    if (replayable && requests.size() == 1) {
      replay_key = UnitReplayKey(*executor, requests[0]);
      auto it = replay->units.find(replay_key);
      if (it != replay->units.end()) recorded = &it->second;
    }
    std::vector<StepResult> steps;
    if (recorded != nullptr) {
      StepResult step = recorded->step;
      RelationBinding binding;
      binding.file = step.job.output;
      binding.signature = step.subtree_signature;
      step.relation_id = executor->BindCachedRelation(std::move(binding));
      executor->RegisterUnitOutput(ready[0]->uid, step.relation_id);
      engine->AdvanceClock(recorded->wave_ms);
      ++replay->replayed;
      steps.push_back(std::move(step));
    } else {
      const SimMillis wave_start = engine->now();
      DYNO_ASSIGN_OR_RETURN(steps, executor->Execute(requests));
      if (!replay_key.empty() && steps[0].status.ok()) {
        replay->units.emplace(
            replay_key,
            UnitReplayLog::Entry{steps[0], engine->now() - wave_start});
      }
    }
    for (size_t i = 0; i < steps.size(); ++i) {
      if (!steps[i].status.ok()) {
        if (steps[i].status.code() == StatusCode::kOutOfMemory &&
            broadcast_fallback && ready[i]->map_only) {
          int extra_jobs = 0;
          DYNO_ASSIGN_OR_RETURN(
              steps[i], RunRepartitionFallback(executor, *ready[i],
                                               requests[i], &extra_jobs));
          result.jobs_run += extra_jobs - 1;
          ++result.broadcast_fallbacks;
        } else {
          return steps[i].status;
        }
      }
      executed.insert(ready[i]->uid);
      ++result.jobs_run;
      if (ready[i]->map_only) ++result.map_only_jobs;
      result.Add(steps[i].job);
      if (ready[i]->uid == final_uid) {
        last_id = steps[i].relation_id;
        result.output = steps[i].job.output;
      }
    }
  }
  result.final_relation_id = last_id;
  return result;
}

}  // namespace dyno
