#include "exec/plan_executor.h"

#include <cmath>
#include <utility>

#include "common/knobs.h"
#include "common/string_util.h"
#include "exec/broadcast.h"
#include "exec/row_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dyno {

namespace {

std::vector<std::string> LeftKeyColumns(const PlanNode& node) {
  std::vector<std::string> cols;
  cols.reserve(node.key_pairs.size());
  for (const auto& [left_col, right_col] : node.key_pairs) {
    cols.push_back(left_col);
  }
  return cols;
}

std::vector<std::string> RightKeyColumns(const PlanNode& node) {
  std::vector<std::string> cols;
  cols.reserve(node.key_pairs.size());
  for (const auto& [left_col, right_col] : node.key_pairs) {
    cols.push_back(right_col);
  }
  return cols;
}

/// Records one pruned leaf scan: the scan.splits_pruned counter plus a
/// split_pruned instant event per skipped file (both absent when zone maps
/// are off, keeping golden traces and metric dumps byte-stable).
void RecordSplitsPruned(MapReduceEngine* engine, const std::string& path,
                        uint64_t pruned, uint64_t total) {
  if (pruned == 0) return;
  if (engine->metrics() != nullptr) {
    engine->metrics()->GetCounter("scan.splits_pruned")->Add(pruned);
  }
  if (engine->trace() != nullptr) {
    engine->trace()->Record(
        obs::TraceEvent(engine->now(), -1, obs::TraceLane::kEngine, "scan",
                        "split_pruned")
            .Arg("file", path)
            .ArgInt("pruned", static_cast<int64_t>(pruned))
            .ArgInt("total", static_cast<int64_t>(total)));
  }
}

/// Configures one leaf-scan MapInput from its binding: when DYNO_COLUMNAR=1
/// the scan filter is pushed into the engine (batch evaluation on columnar
/// splits), otherwise it stays inside the map closure exactly as before.
/// When DYNO_ZONE_MAPS=1 the filter additionally prunes whole splits via
/// their zone maps before the job is submitted. Returns the filter the map
/// closure must still apply (null when pushed down).
ExprPtr ConfigureLeafScan(MapReduceEngine* engine,
                          const RelationBinding& binding, MapInput* input) {
  input->file = binding.file;
  ExprPtr closure_filter = binding.scan_filter;
  if (KnobEnabled(Knob::DYNO_COLUMNAR) && binding.scan_filter != nullptr) {
    input->scan_filter = binding.scan_filter;
    input->scan_filter_cpu = binding.scan_cpu_per_record;
    input->cpu_per_record = 1.0;
    closure_filter = nullptr;
  } else {
    input->cpu_per_record = 1.0 + binding.scan_cpu_per_record;
  }
  if (KnobEnabled(Knob::DYNO_ZONE_MAPS) && binding.scan_filter != nullptr) {
    PruneResult pruned = PruneSplitIndexes(*binding.file, binding.scan_filter);
    if (pruned.pruned > 0) {
      input->split_indexes.assign(pruned.kept.begin(), pruned.kept.end());
      input->split_indexes_exact = true;
      RecordSplitsPruned(engine, binding.file->path(), pruned.pruned,
                         binding.file->splits().size());
    }
  }
  return closure_filter;
}

// Globally unique unit uids, so outputs of units from different
// decompositions never collide in one executor's bookkeeping.
int64_t g_unit_uid = 0;

/// Recursively walks a plan, emitting JobUnits bottom-up.
Result<JobInput> DecomposeNode(const PlanNode& node,
                               std::vector<JobUnit>* units) {
  if (node.IsLeaf()) {
    return JobInput{node.relation_id, -1};
  }
  if (node.left == nullptr || node.right == nullptr) {
    return Status::InvalidArgument("join node missing a child");
  }
  // Collect the chain: a node with chain_with_left runs in the same map
  // job as its left child, so keep descending left while the flag is set
  // (all members must be broadcast joins).
  std::vector<const PlanNode*> chain_top_down;
  const PlanNode* cur = &node;
  chain_top_down.push_back(cur);
  while (cur->chain_with_left) {
    if (cur->method != JoinMethod::kBroadcast) {
      return Status::InvalidArgument("chain_with_left on a repartition join");
    }
    if (cur->left->IsLeaf()) {
      return Status::InvalidArgument("chain_with_left above a leaf");
    }
    cur = cur->left.get();
    if (cur->method != JoinMethod::kBroadcast) {
      return Status::InvalidArgument("chained node is not a broadcast join");
    }
    chain_top_down.push_back(cur);
  }
  // Bottom-up order.
  std::vector<const PlanNode*> nodes(chain_top_down.rbegin(),
                                     chain_top_down.rend());
  const PlanNode* bottom = nodes.front();

  JobUnit unit;
  unit.nodes = nodes;
  unit.map_only = node.method == JoinMethod::kBroadcast;

  if (node.method == JoinMethod::kRepartition) {
    DYNO_ASSIGN_OR_RETURN(JobInput left, DecomposeNode(*node.left, units));
    DYNO_ASSIGN_OR_RETURN(JobInput right, DecomposeNode(*node.right, units));
    unit.inputs = {left, right};
  } else {
    // Probe side of the bottom node (ignoring the chain flag on bottom
    // itself — that was already consumed).
    DYNO_ASSIGN_OR_RETURN(JobInput probe,
                          DecomposeNode(*bottom->left, units));
    unit.inputs.push_back(probe);
    for (const PlanNode* n : nodes) {
      DYNO_ASSIGN_OR_RETURN(JobInput build, DecomposeNode(*n->right, units));
      unit.inputs.push_back(build);
    }
  }

  // Per-job cost: cumulative cost at the root minus the cumulative cost of
  // input jobs.
  double child_cost = 0.0;
  for (const JobInput& in : unit.inputs) {
    if (in.IsLeaf()) continue;
    for (const JobUnit& child : *units) {
      if (child.uid == in.unit_uid) {
        child_cost += child.nodes.back()->est_cost;
        break;
      }
    }
  }
  unit.est_cost = node.est_cost - child_cost;
  unit.est_rows = node.est_rows;
  unit.est_bytes = node.est_bytes;
  unit.uncertainty = static_cast<int>(unit.nodes.size());
  unit.index = static_cast<int>(units->size());
  unit.uid = ++g_unit_uid;
  units->push_back(std::move(unit));
  return JobInput{"", units->back().uid};
}

}  // namespace

namespace {
// Process-wide executor instance counter, giving every executor a unique
// DFS namespace for its intermediate results.
int g_executor_instances = 0;
}  // namespace

PlanExecutor::PlanExecutor(MapReduceEngine* engine, ExecOptions options)
    : engine_(engine),
      options_(std::move(options)),
      instance_id_(++g_executor_instances) {}

void PlanExecutor::Bind(const std::string& id, RelationBinding binding) {
  bindings_[id] = std::move(binding);
}

bool PlanExecutor::IsBound(const std::string& id) const {
  return bindings_.count(id) > 0;
}

Result<RelationBinding> PlanExecutor::GetBinding(const std::string& id) const {
  auto it = bindings_.find(id);
  if (it == bindings_.end()) {
    return Status::NotFound("unbound relation: " + id);
  }
  return it->second;
}

std::string PlanExecutor::CanonicalSignature(const PlanNode& node) const {
  if (node.IsLeaf()) {
    auto it = bindings_.find(node.relation_id);
    if (it != bindings_.end() && !it->second.signature.empty()) {
      return "[" + it->second.signature + "]";
    }
    // Unbound (or signature-less) leaves fall back to the run-local id;
    // such signatures are still usable within the run, just not shareable.
    return "[" + node.relation_id + "]";
  }
  std::string keys;
  for (const auto& [left_col, right_col] : node.key_pairs) {
    if (!keys.empty()) keys += ",";
    keys += left_col + "=" + right_col;
  }
  std::string out = "(" + CanonicalSignature(*node.left) +
                    (node.method == JoinMethod::kBroadcast ? " *b<" : " *r<") +
                    keys + "> " + CanonicalSignature(*node.right) + ")";
  if (node.post_filter != nullptr) out += "{" + node.post_filter->ToString() + "}";
  return out;
}

std::string PlanExecutor::BindCachedRelation(RelationBinding binding) {
  ++temp_counter_;
  std::string id = StrFormat("t%d", temp_counter_);
  Bind(id, std::move(binding));
  return id;
}

Result<std::vector<JobUnit>> PlanExecutor::Decompose(const PlanNode& plan) {
  std::vector<JobUnit> units;
  if (plan.IsLeaf()) return units;  // Nothing to execute.
  DYNO_ASSIGN_OR_RETURN(JobInput top, DecomposeNode(plan, &units));
  (void)top;
  return units;
}

Result<std::string> PlanExecutor::ResolveInput(const JobInput& input) const {
  if (input.IsLeaf()) {
    if (!IsBound(input.leaf_id)) {
      return Status::NotFound("unbound relation: " + input.leaf_id);
    }
    return input.leaf_id;
  }
  return OutputOf(input.unit_uid);
}

Result<std::string> PlanExecutor::OutputOf(int64_t unit_uid) const {
  auto it = unit_outputs_.find(unit_uid);
  if (it == unit_outputs_.end()) {
    return Status::FailedPrecondition(
        StrFormat("unit %lld has not executed yet",
                  static_cast<long long>(unit_uid)));
  }
  return it->second;
}

Status PlanExecutor::BindLeaves(const Catalog& catalog,
                                const std::vector<LeafExpr>& leaves) {
  for (const LeafExpr& leaf : leaves) {
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                          catalog.OpenTable(leaf.table));
    RelationBinding binding;
    binding.file = std::move(file);
    binding.scan_filter = leaf.filter;
    binding.scan_cpu_per_record = leaf.filter ? leaf.filter->CpuCost() : 0.0;
    binding.signature = LeafSignature(leaf);
    Bind(leaf.alias, std::move(binding));
  }
  return Status::OK();
}

Result<JobResult> PlanExecutor::ScanRelation(
    const std::string& id, const std::vector<std::string>& projection,
    const std::string& job_name, const std::string& output_path) {
  DYNO_ASSIGN_OR_RETURN(RelationBinding binding, GetBinding(id));
  JobSpec spec;
  spec.name = job_name;
  spec.query_id = options_.query_id;
  spec.output_path = output_path;
  MapInput input;
  ExprPtr filter = ConfigureLeafScan(engine_, binding, &input);
  input.map_fn = [filter, projection](const Value& record,
                                      MapContext* ctx) -> Status {
    DYNO_ASSIGN_OR_RETURN(bool keep, EvalFilter(filter, record));
    if (!keep) return Status::OK();
    ctx->Output(projection.empty() ? record : ProjectRow(record, projection));
    return Status::OK();
  };
  spec.inputs = {std::move(input)};
  DYNO_ASSIGN_OR_RETURN(JobResult job, engine_->Submit(spec));
  if (!job.status.ok()) return job.status;
  return job;
}

Status PlanExecutor::MaterializeFilteredLeaf(const std::string& id) {
  DYNO_ASSIGN_OR_RETURN(RelationBinding binding, GetBinding(id));
  if (binding.scan_filter == nullptr) return Status::OK();

  ++temp_counter_;
  DYNO_ASSIGN_OR_RETURN(
      JobResult job,
      ScanRelation(id, /*projection=*/{}, StrFormat("filter:%s", id.c_str()),
                   QueryTempDir(options_.query_id) +
                       StrFormat("/e%d_f%d_%s", instance_id_, temp_counter_,
                                 id.c_str())));

  RelationBinding rebound;
  rebound.file = job.output;
  rebound.scan_filter = nullptr;
  rebound.scan_cpu_per_record = 0.0;
  rebound.signature = binding.signature;
  Bind(id, std::move(rebound));
  return Status::OK();
}

Result<StepResult> PlanExecutor::ExecuteOne(const UnitRequest& request) {
  DYNO_ASSIGN_OR_RETURN(std::vector<StepResult> results, Execute({request}));
  if (!results[0].status.ok()) return results[0].status;
  return std::move(results[0]);
}

struct PlanExecutor::PreparedJob {
  JobSpec spec;
  std::shared_ptr<StatsCollector> collector;
  std::string output_id;
  std::string signature;
};

Result<PlanExecutor::PreparedJob> PlanExecutor::Prepare(
    const UnitRequest& request) {
  if (request.unit == nullptr || request.unit->nodes.empty()) {
    return Status::InvalidArgument("empty unit request");
  }
  const JobUnit& unit = *request.unit;
  const PlanNode& root = *unit.nodes.back();

  PreparedJob p;
  ++temp_counter_;
  p.output_id = StrFormat("t%d", temp_counter_);
  p.signature = CanonicalSignature(root);
  p.spec.name = p.output_id;
  p.spec.query_id = options_.query_id;
  p.spec.output_path = QueryTempDir(options_.query_id) +
                       StrFormat("/e%d_%s", instance_id_,
                                 p.output_id.c_str());

  if (request.collect_stats()) {
    p.collector = std::make_shared<StatsCollector>(request.stats_columns);
    std::shared_ptr<StatsCollector> collector = p.collector;
    p.spec.output_observer = [collector](const Value& record) {
      collector->Observe(record);
    };
    p.spec.observer_cpu_per_record = p.collector->CpuCostPerRecord();
  }

  std::vector<std::string> projection = request.projection;

  if (!unit.map_only) {
    // --- Repartition join: one full map-reduce job. ---
    // The driver's OOM retry ladder re-runs a unit with spill mode forced
    // and/or a pinned (doubled) reducer count; both default to "inherit".
    p.spec.reduce_memory_mode = request.reduce_memory_mode;
    if (request.num_reduce_tasks > 0) {
      p.spec.num_reduce_tasks = request.num_reduce_tasks;
    }
    const PlanNode& node = root;
    DYNO_ASSIGN_OR_RETURN(std::string left_id, ResolveInput(unit.inputs[0]));
    DYNO_ASSIGN_OR_RETURN(std::string right_id,
                          ResolveInput(unit.inputs[1]));
    DYNO_ASSIGN_OR_RETURN(RelationBinding left, GetBinding(left_id));
    DYNO_ASSIGN_OR_RETURN(RelationBinding right, GetBinding(right_id));

    auto make_tagged_map = [](ExprPtr filter,
                              std::vector<std::string> key_cols,
                              int64_t tag) -> MapFn {
      return [filter = std::move(filter), key_cols = std::move(key_cols),
              tag](const Value& record, MapContext* ctx) -> Status {
        DYNO_ASSIGN_OR_RETURN(bool keep, EvalFilter(filter, record));
        if (!keep) return Status::OK();
        Value key = JoinKeyValue(record, key_cols);
        Value tagged = Value::Struct(
            {{"__t", Value::Int(tag)}, {"__r", record}});
        ctx->Emit(std::move(key), std::move(tagged));
        return Status::OK();
      };
    };

    MapInput left_input;
    ExprPtr left_closure = ConfigureLeafScan(engine_, left, &left_input);
    left_input.map_fn =
        make_tagged_map(std::move(left_closure), LeftKeyColumns(node), 0);
    MapInput right_input;
    ExprPtr right_closure = ConfigureLeafScan(engine_, right, &right_input);
    right_input.map_fn =
        make_tagged_map(std::move(right_closure), RightKeyColumns(node), 1);
    p.spec.inputs = {std::move(left_input), std::move(right_input)};

    ExprPtr post_filter = node.post_filter;
    double post_cpu = post_filter ? post_filter->CpuCost() : 0.0;
    p.spec.reduce_fn = [post_filter, post_cpu, projection](
                           const Value& key, const std::vector<Value>& values,
                           ReduceContext* ctx) -> Status {
      (void)key;
      // Separate the two sides, then join them pairwise.
      std::vector<const Value*> lefts;
      std::vector<const Value*> rights;
      for (const Value& v : values) {
        const Value* tag = v.FindField("__t");
        const Value* row = v.FindField("__r");
        if (tag == nullptr || row == nullptr) {
          return Status::Internal("untagged shuffle record");
        }
        (tag->int_value() == 0 ? lefts : rights).push_back(row);
      }
      for (const Value* l : lefts) {
        for (const Value* r : rights) {
          Value merged = MergeRows(*l, *r);
          ctx->ChargeCpu(2.0);
          if (post_filter != nullptr) {
            ctx->ChargeCpu(post_cpu);
            DYNO_ASSIGN_OR_RETURN(bool keep,
                                  EvalFilter(post_filter, merged));
            if (!keep) continue;
          }
          ctx->Output(projection.empty() ? std::move(merged)
                                         : ProjectRow(merged, projection));
        }
      }
      return Status::OK();
    };
  } else {
    // --- Broadcast chain: a single map-only job probing one stream
    // through the hash tables of every chained build side. ---
    DYNO_ASSIGN_OR_RETURN(std::string probe_id,
                          ResolveInput(unit.inputs[0]));
    DYNO_ASSIGN_OR_RETURN(RelationBinding probe, GetBinding(probe_id));

    struct Stage {
      std::shared_ptr<BroadcastTable> table;
      std::vector<std::string> probe_key_cols;
      ExprPtr post_filter;
      double post_cpu = 0.0;
    };
    auto stages = std::make_shared<std::vector<Stage>>();
    uint64_t side_load = 0;
    uint64_t side_memory = 0;
    // Waves the probe scan will run: in Jaql mode every task of every
    // wave re-loads the side data, so a filtered build side whose *raw*
    // file is large gets expensive fast.
    const double probe_waves = std::max(
        1.0, std::ceil(static_cast<double>(probe.file->splits().size()) /
                       std::max(1, engine_->config().map_slots)));
    for (size_t i = 0; i < unit.nodes.size(); ++i) {
      const PlanNode& n = *unit.nodes[i];
      DYNO_ASSIGN_OR_RETURN(std::string build_id,
                            ResolveInput(unit.inputs[i + 1]));
      DYNO_ASSIGN_OR_RETURN(RelationBinding build, GetBinding(build_id));
      uint64_t build_pruned = 0;
      uint64_t* build_pruned_out =
          KnobEnabled(Knob::DYNO_ZONE_MAPS) ? &build_pruned : nullptr;
      DYNO_ASSIGN_OR_RETURN(
          std::shared_ptr<BroadcastTable> table,
          BuildBroadcastTable(*build.file, build.scan_filter,
                              RightKeyColumns(n), build_pruned_out));
      RecordSplitsPruned(engine_, build.file->path(), build_pruned,
                         build.file->splits().size());
      // A filtered build side makes every map task re-read the raw file.
      // When the filter is selective and the probe runs for many waves,
      // materialize the filtered relation once as a map-only job and
      // ship the small result instead — what a production compiler does
      // under a broadcast join. Decided by comparing the side-load time
      // saved against the cost of the extra filter job.
      if (build.scan_filter != nullptr &&
          table->load_bytes > 2 * table->built_bytes) {
        const ClusterConfig& config = engine_->config();
        double saved_bytes = static_cast<double>(table->load_bytes) -
                             static_cast<double>(table->built_bytes);
        double repeat = options_.hive_broadcast ? 1.0 : probe_waves;
        double benefit_ms =
            repeat * saved_bytes / config.side_load_bytes_per_ms;
        double filter_job_ms =
            static_cast<double>(config.job_startup_ms) +
            static_cast<double>(table->load_bytes) /
                (config.map_read_bytes_per_ms *
                 std::max(1, config.map_slots)) +
            static_cast<double>(table->built_bytes) /
                config.map_write_bytes_per_ms;
        if (benefit_ms > 2.0 * filter_job_ms) {
          DYNO_RETURN_IF_ERROR(MaterializeFilteredLeaf(build_id));
          DYNO_ASSIGN_OR_RETURN(build, GetBinding(build_id));
          table->load_bytes = build.file->num_bytes();
        }
      }
      side_load += table->load_bytes;
      side_memory += table->built_bytes;
      Stage stage;
      stage.table = std::move(table);
      stage.probe_key_cols = LeftKeyColumns(n);
      stage.post_filter = n.post_filter;
      stage.post_cpu = n.post_filter ? n.post_filter->CpuCost() : 0.0;
      stages->push_back(std::move(stage));
    }
    p.spec.side_load_bytes = side_load;
    p.spec.side_memory_bytes = side_memory;
    p.spec.side_data_via_distributed_cache = options_.hive_broadcast;

    MapInput probe_input;
    ExprPtr scan_filter = ConfigureLeafScan(engine_, probe, &probe_input);
    probe_input.cpu_per_record += 2.0 * static_cast<double>(stages->size());
    probe_input.map_fn = [scan_filter, stages, projection](
                             const Value& record,
                             MapContext* ctx) -> Status {
      DYNO_ASSIGN_OR_RETURN(bool keep, EvalFilter(scan_filter, record));
      if (!keep) return Status::OK();
      // Depth-first probe through the chain.
      std::function<Status(const Value&, size_t)> probe_stage =
          [&](const Value& row, size_t stage_idx) -> Status {
        if (stage_idx == stages->size()) {
          ctx->Output(projection.empty() ? row
                                         : ProjectRow(row, projection));
          return Status::OK();
        }
        const Stage& stage = (*stages)[stage_idx];
        auto it = stage.table->rows_by_key.find(
            EncodeJoinKey(row, stage.probe_key_cols));
        if (it == stage.table->rows_by_key.end()) return Status::OK();
        for (const Value& build_row : it->second) {
          Value merged = MergeRows(row, build_row);
          ctx->ChargeCpu(2.0);
          if (stage.post_filter != nullptr) {
            ctx->ChargeCpu(stage.post_cpu);
            DYNO_ASSIGN_OR_RETURN(bool pass,
                                  EvalFilter(stage.post_filter, merged));
            if (!pass) continue;
          }
          DYNO_RETURN_IF_ERROR(probe_stage(merged, stage_idx + 1));
        }
        return Status::OK();
      };
      return probe_stage(record, 0);
    };
    p.spec.inputs = {std::move(probe_input)};
  }
  return p;
}

Result<std::vector<StepResult>> PlanExecutor::Execute(
    const std::vector<UnitRequest>& requests) {
  // A request that cannot be prepared fails alone; the rest still run.
  std::vector<Result<PreparedJob>> prepared;
  prepared.reserve(requests.size());
  std::vector<JobSpec> specs;
  for (const UnitRequest& request : requests) {
    prepared.push_back(Prepare(request));
    if (prepared.back().ok()) specs.push_back(prepared.back()->spec);
  }
  std::vector<JobResult> job_results;
  if (!specs.empty()) {
    DYNO_ASSIGN_OR_RETURN(job_results, engine_->SubmitAll(specs));
  }

  std::vector<StepResult> results(requests.size());
  size_t next_job = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    StepResult& step = results[i];
    if (!prepared[i].ok()) {
      step.status = prepared[i].status();
      continue;
    }
    const PreparedJob& p = *prepared[i];
    const JobResult& job = job_results[next_job++];
    step.job = job;
    if (!job.status.ok()) {
      step.status = Status(job.status.code(), "job " + p.output_id +
                                                  " failed: " +
                                                  job.status.message());
      continue;
    }
    step.relation_id = p.output_id;
    step.subtree_signature = p.signature;
    if (p.collector != nullptr) {
      step.stats = p.collector->Finalize(1.0);
    } else {
      step.stats.cardinality = static_cast<double>(job.counters.output_records);
      step.stats.avg_record_size =
          job.counters.output_records == 0
              ? 0.0
              : static_cast<double>(job.counters.output_bytes) /
                    static_cast<double>(job.counters.output_records);
    }
    // Exact cardinality from counters always wins over synopsis scaling.
    step.stats.cardinality = static_cast<double>(job.counters.output_records);
    if (job.counters.output_records > 0) {
      step.stats.avg_record_size =
          static_cast<double>(job.counters.output_bytes) /
          static_cast<double>(job.counters.output_records);
    }

    RelationBinding binding;
    binding.file = job.output;
    binding.scan_filter = nullptr;
    binding.scan_cpu_per_record = 0.0;
    binding.signature = p.signature;
    Bind(step.relation_id, std::move(binding));
    unit_outputs_[requests[i].unit->uid] = step.relation_id;
  }
  return results;
}

}  // namespace dyno
