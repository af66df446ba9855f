#include "baselines/relopt.h"

#include <algorithm>
#include <set>

#include "dyno/join_block_run.h"
#include "obs/trace.h"

namespace dyno {

namespace {

/// Default selectivity for predicates the traditional estimator cannot
/// reason about but that are not UDFs (e.g. comparisons over nested paths —
/// "even if the optimizer could deal with the array datatype…", §4.1).
/// System R-style magic constant.
constexpr double kUnknownPredicateSelectivity = 1.0 / 3.0;

/// DBMS-X costs plans for *its own* engine — a shared-nothing MPP where a
/// repartitioned join is a cheap pipelined exchange (no job materialization
/// between operators) while broadcasting replicates the build side to every
/// node. Under that model broadcast only pays off for tiny relations, which
/// is why the paper's DBMS-X plans repartition almost everything (Fig. 3);
/// the resulting plan is then hand-coded to Jaql and executed on MapReduce,
/// where those exchanges become full jobs with materialized outputs.
CostModelParams DbmsCostModel(const CostModelParams& mapreduce_params,
                              int num_nodes) {
  CostModelParams dbms = mapreduce_params;
  dbms.mpp_pipelined = true;
  dbms.c_rep = mapreduce_params.c_probe * 2.0;   // pipelined exchange
  dbms.c_build =
      mapreduce_params.c_build * static_cast<double>(num_nodes);
  dbms.enable_broadcast_chains = false;  // chaining is a Jaql concept
  return dbms;
}

}  // namespace

RelOptBaseline::RelOptBaseline(MapReduceEngine* engine, Catalog* catalog,
                               CostModelParams cost, int num_nodes)
    : engine_(engine), catalog_(catalog), cost_(cost),
      num_nodes_(num_nodes) {}

Status RelOptBaseline::AnalyzeTable(const std::string& table,
                                    const std::vector<std::string>& columns) {
  auto file = catalog_->OpenTable(table);
  if (!file.ok()) return file.status();

  TableAnalysis& analysis = analyzed_[table];
  std::map<std::string, std::vector<Value>> values;
  std::set<std::string> wanted(columns.begin(), columns.end());
  for (const auto& [col, hist] : analysis.histograms) wanted.erase(col);
  if (wanted.empty() && analysis.stats.cardinality > 0) return Status::OK();

  uint64_t records = 0;
  uint64_t bytes = 0;
  for (const Split& split : (*file)->splits()) {
    DYNO_ASSIGN_OR_RETURN(std::vector<Value> rows, DecodeSplitRows(split));
    for (const Value& row : rows) {
      ++records;
      bytes += row.EncodedSize();
      for (const std::string& col : wanted) {
        const Value* v = row.FindField(col);
        if (v != nullptr && !v->is_null()) values[col].push_back(*v);
      }
    }
  }
  analysis.stats.cardinality = static_cast<double>(records);
  analysis.stats.avg_record_size =
      records == 0 ? 0.0
                   : static_cast<double>(bytes) / static_cast<double>(records);
  for (const std::string& col : wanted) {
    EquiDepthHistogram hist = EquiDepthHistogram::Build(values[col]);
    ColumnStats cs;
    cs.ndv = hist.distinct_estimate();
    if (!values[col].empty()) {
      auto [min_it, max_it] = std::minmax_element(
          values[col].begin(), values[col].end(),
          [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
      cs.min_value = *min_it;
      cs.max_value = *max_it;
    }
    analysis.stats.columns[col] = std::move(cs);
    analysis.histograms.emplace(col, std::move(hist));
  }
  return Status::OK();
}

Status RelOptBaseline::AnalyzeForBlock(const JoinBlock& block) {
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);
  std::map<std::string, std::set<std::string>> columns_by_table;
  for (const LeafExpr& leaf : leaves) {
    auto& cols = columns_by_table[leaf.table];
    cols.insert(leaf.join_columns.begin(), leaf.join_columns.end());
    if (leaf.filter != nullptr) {
      std::vector<std::string> pred_cols;
      leaf.filter->CollectColumns(&pred_cols);
      cols.insert(pred_cols.begin(), pred_cols.end());
    }
  }
  for (const auto& [table, cols] : columns_by_table) {
    DYNO_RETURN_IF_ERROR(
        AnalyzeTable(table, {cols.begin(), cols.end()}));
  }
  return Status::OK();
}

Result<TableStats> RelOptBaseline::EstimateLeaf(const LeafExpr& leaf) {
  auto it = analyzed_.find(leaf.table);
  if (it == analyzed_.end()) {
    return Status::FailedPrecondition("table not analyzed: " + leaf.table);
  }
  const TableAnalysis& analysis = it->second;
  double selectivity = 1.0;
  std::vector<ExprPtr> factors;
  DecomposeConjunction(leaf.filter, &factors);
  // Simple-comparison selectivities are grouped per column first: a modern
  // optimizer recognizes `c >= lo AND c <= hi` as one range and combines
  // the bounds with the conjunction identity sel(A∧B) ≥ sel(A)+sel(B)-1
  // rather than multiplying. *Across* columns, factors still multiply —
  // the independence assumption the paper's correlated pair defeats.
  std::map<std::string, std::vector<double>> range_sels_by_column;
  for (const ExprPtr& factor : factors) {
    std::string column;
    Expr::CompareOp op;
    Value literal;
    if (factor->AsSimpleComparison(&column, &op, &literal)) {
      auto hist = analysis.histograms.find(column);
      if (hist != analysis.histograms.end()) {
        double sel = hist->second.EstimateSelectivity(op, literal);
        bool is_range = op != Expr::CompareOp::kEq &&
                        op != Expr::CompareOp::kNe;
        if (is_range) {
          range_sels_by_column[column].push_back(sel);
        } else {
          selectivity *= sel;
        }
        continue;
      }
      selectivity *= kUnknownPredicateSelectivity;
    } else if (factor->ContainsUdf()) {
      // Opaque UDF: no information; assume it keeps everything.
      selectivity *= 1.0;
    } else {
      selectivity *= kUnknownPredicateSelectivity;
    }
  }
  for (const auto& [column, sels] : range_sels_by_column) {
    double combined = 1.0;
    for (double sel : sels) combined += sel - 1.0;
    selectivity *= std::clamp(combined, 0.0001, 1.0);
  }
  TableStats stats;
  stats.cardinality =
      std::max(analysis.stats.cardinality * selectivity, 1.0);
  stats.avg_record_size = analysis.stats.avg_record_size;
  for (const auto& [col, cs] : analysis.stats.columns) {
    ColumnStats out = cs;
    out.ndv = std::min(cs.ndv, stats.cardinality);
    stats.columns[col] = std::move(out);
  }
  return stats;
}

Result<std::unique_ptr<PlanNode>> RelOptBaseline::Plan(
    const JoinBlock& block) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  DYNO_RETURN_IF_ERROR(AnalyzeForBlock(block));
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);

  OptJoinGraph graph;
  for (const LeafExpr& leaf : leaves) {
    DYNO_ASSIGN_OR_RETURN(TableStats stats, EstimateLeaf(leaf));
    graph.relations.push_back({leaf.alias, std::move(stats)});
  }
  for (const JoinEdge& edge : block.edges) {
    graph.edges.push_back({edge.left_alias, edge.left_column,
                           edge.right_alias, edge.right_column});
  }
  for (const Predicate& pred : non_local) {
    OptNonLocalPred opt_pred;
    opt_pred.expr = pred.expr;
    opt_pred.relation_ids = pred.aliases;
    opt_pred.assumed_selectivity = 1.0;  // UDF on join result: unknown.
    graph.non_local_preds.push_back(std::move(opt_pred));
  }
  // Plan with DBMS-X's own cost model, then let Jaql's broadcast-chain
  // rule fire on the transplanted plan (Jaql chains at execution time).
  JoinOptimizer optimizer(DbmsCostModel(cost_, num_nodes_));
  DYNO_ASSIGN_OR_RETURN(OptimizeResult result, optimizer.Optimize(graph));
  ApplyBroadcastChaining(result.plan.get(), cost_);
  return std::move(result.plan);
}

Result<RelOptBaseline::RunResult> RelOptBaseline::PlanAndExecute(
    const JoinBlock& block, const ExecOptions& exec_options) {
  DYNO_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, Plan(block));
  RunResult result;
  result.plan_compact = plan->ToString();
  result.plan_tree = plan->ToTreeString();

  const std::vector<std::string> existing =
      ListQueryTemp(*engine_->dfs(), exec_options.query_id);
  QueryRunReport report;
  JoinBlockRun run(engine_, catalog_, /*store=*/nullptr,
                   JaqlRunOptions(exec_options), block, &report);
  SimMillis start = engine_->now();
  auto output = run.RunPlan(*plan);
  result.elapsed_ms = engine_->now() - start;
  // Whether the plan ran or failed, only its output outlives it.
  ReclaimQueryTemp(engine_->dfs(), exec_options.query_id,
                   output.ok() && *output != nullptr ? (*output)->path() : "",
                   existing);
  if (obs::TraceSink* trace = engine_->trace()) {
    trace->Record(obs::TraceEvent(start, result.elapsed_ms,
                                  obs::TraceLane::kDriver, "baseline",
                                  "relopt_plan")
                      .Arg("plan", result.plan_compact)
                      .ArgBool("ok", output.ok()));
  }
  if (!output.ok()) {
    result.exec_status = output.status();
    return result;
  }
  result.jobs_run = report.jobs_run;
  result.map_only_jobs = report.map_only_jobs;
  result.output = *output;
  return result;
}

}  // namespace dyno
