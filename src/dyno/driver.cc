#include "dyno/driver.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/knobs.h"
#include "common/string_util.h"
#include "dyno/join_block_run.h"
#include "exec/aggregates.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dyno {

DynoDriver::DynoDriver(MapReduceEngine* engine, Catalog* catalog,
                       StatsStore* store, DynoOptions options)
    : engine_(engine), catalog_(catalog), store_(store),
      options_(std::move(options)) {
  // An unset recovery option reads its driver-group knob, else takes its
  // default.
  if (options_.max_job_attempts <= 0) {
    options_.max_job_attempts = 1;
    ReadKnob(Knob::DYNO_MAX_JOB_ATTEMPTS, &options_.max_job_attempts);
  }
  if (options_.retry_budget_ms < 0) {
    options_.retry_budget_ms = 0;
    ReadKnob(Knob::DYNO_RETRY_BUDGET_MS, &options_.retry_budget_ms);
  }
  if (options_.oom_retry_ladder < 0) {
    options_.oom_retry_ladder = 0;
    ReadKnob(Knob::DYNO_OOM_RETRIES, &options_.oom_retry_ladder);
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
    if (used_fallback) metrics->GetCounter("driver.manifest_fallbacks")->Add();
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
  std::vector<std::string> existing =
      ListQueryTemp(*engine_->dfs(), options_.exec.query_id);
  // The checkpointed subtrees of a killed attempt of this query belong to
  // this run: a checkpoint path names one logical query.
  for (const CheckpointEntry& entry : manifest_.entries) {
    existing.erase(std::remove(existing.begin(), existing.end(), entry.path),
                   existing.end());
  }
  QueryRunReport report;
  SimMillis start = engine_->now();
  JoinBlockRun run(engine_, catalog_, store_, options_, query.join_block,
                   &report, &manifest_);
  DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> joined, run.Run(resume));
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
      if (!std::all_of(deps.begin(), deps.end(), [&](const std::string& dep) {
            return done.count(dep) > 0;
          })) {
        ++it;
        continue;
      }
      const MultiBlockQuery::Block& block = **it;
      JoinBlock scoped_join_block = scope_block_refs(block.join_block);
      JoinBlockRun run(engine_, catalog_, store_, options_, scoped_join_block,
                       &report, &manifest_);
      DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> joined,
                            run.Run(nullptr));
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
  // The "@block:" tables point into the temp directory, which is reclaimed
  // next: their names go with it.
  for (const std::string& name : names) {
    catalog_->DropTable(scoped_block_name(name));
  }
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

}  // namespace dyno
