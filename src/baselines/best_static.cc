#include "baselines/best_static.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "dyno/join_block_run.h"
#include "obs/trace.h"

namespace dyno {

namespace {

/// Running estimate of the left-deep prefix during plan construction.
struct PrefixEstimate {
  double rows = 1.0;
  double avg_size = 0.0;
  /// NDV keyed by "<alias>.<column>": two prefix relations sharing a bare
  /// column name (both having `id`, say) must not overwrite each other.
  std::map<std::string, double> ndv;
};

std::string NdvKey(const std::string& alias, const std::string& col) {
  return alias + "." + col;
}

}  // namespace

BestStaticBaseline::BestStaticBaseline(MapReduceEngine* engine,
                                       Catalog* catalog,
                                       BestStaticOptions options)
    : engine_(engine), catalog_(catalog), options_(std::move(options)) {}

Result<std::unique_ptr<PlanNode>> BestStaticBaseline::BuildJaqlPlan(
    const JoinBlock& block, const std::vector<std::string>& order) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  if (order.size() != block.tables.size()) {
    return Status::InvalidArgument("order size mismatch");
  }
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(block, &non_local);
  std::map<std::string, const LeafExpr*> leaf_by_alias;
  for (const LeafExpr& leaf : leaves) leaf_by_alias[leaf.alias] = &leaf;

  // Exact statistics for ranking, held by the catalog (Run() enumerates
  // hundreds of orders over the same leaves); raw file sizes for Jaql's
  // broadcast rule.
  std::map<std::string, TableStats> exact;
  std::map<std::string, double> file_bytes;
  for (const LeafExpr& leaf : leaves) {
    DYNO_ASSIGN_OR_RETURN(
        exact[leaf.alias],
        catalog_->ExactStats(leaf.table, leaf.filter, leaf.join_columns));
    DYNO_ASSIGN_OR_RETURN(std::shared_ptr<DfsFile> file,
                          catalog_->OpenTable(leaf.table));
    file_bytes[leaf.alias] = static_cast<double>(file->num_bytes());
  }

  auto make_leaf = [&](const std::string& alias) {
    auto node = PlanNode::Leaf(alias);
    const TableStats& stats = exact.at(alias);
    node->est_rows = stats.cardinality;
    node->est_bytes = stats.SizeBytes();
    return node;
  };

  std::set<std::string> prefix{order[0]};
  PrefixEstimate est;
  {
    const TableStats& stats = exact.at(order[0]);
    est.rows = std::max(stats.cardinality, 1.0);
    est.avg_size = std::max(stats.avg_record_size, 1.0);
    for (const auto& [col, cs] : stats.columns) {
      est.ndv[NdvKey(order[0], col)] = std::max(cs.ndv, 1.0);
    }
  }
  std::unique_ptr<PlanNode> plan = make_leaf(order[0]);
  std::set<size_t> preds_applied;

  for (size_t i = 1; i < order.size(); ++i) {
    const std::string& alias = order[i];
    if (leaf_by_alias.find(alias) == leaf_by_alias.end()) {
      return Status::InvalidArgument("unknown alias in order: " + alias);
    }
    // Join keys between the prefix and the new relation. Multiple edges to
    // the same relation form a composite key: apply the same exponential
    // backoff as the optimizer (most selective edge fully, then sqrt...).
    std::vector<std::pair<std::string, std::string>> key_pairs;
    std::vector<double> denoms;
    const TableStats& rstats = exact.at(alias);
    for (const JoinEdge& edge : block.edges) {
      if (prefix.count(edge.left_alias) && edge.right_alias == alias) {
        key_pairs.emplace_back(edge.left_column, edge.right_column);
        std::string key = NdvKey(edge.left_alias, edge.left_column);
        double a = est.ndv.count(key) ? est.ndv[key] : est.rows;
        double b = rstats.ColumnNdv(edge.right_column);
        denoms.push_back(std::max({a, b, 1.0}));
      } else if (prefix.count(edge.right_alias) && edge.left_alias == alias) {
        key_pairs.emplace_back(edge.right_column, edge.left_column);
        std::string key = NdvKey(edge.right_alias, edge.right_column);
        double a = est.ndv.count(key) ? est.ndv[key] : est.rows;
        double b = rstats.ColumnNdv(edge.left_column);
        denoms.push_back(std::max({a, b, 1.0}));
      }
    }
    double selectivity_den = 1.0;
    std::sort(denoms.begin(), denoms.end(), std::greater<double>());
    double exponent = 1.0;
    for (double d : denoms) {
      selectivity_den *= std::pow(d, exponent);
      exponent *= 0.5;
    }
    if (key_pairs.empty()) {
      return Status::InvalidArgument(
          "order requires a cartesian product at " + alias);
    }

    // Jaql's join-method rule: broadcast iff the build relation's raw file
    // fits in memory — no selectivity reasoning (paper §2.2.2).
    JoinMethod method =
        options_.cost.BroadcastFits(file_bytes.at(alias))
            ? JoinMethod::kBroadcast
            : JoinMethod::kRepartition;

    auto node = PlanNode::Join(method, std::move(plan), make_leaf(alias),
                               std::move(key_pairs));

    // Estimate propagation (for candidate ranking only).
    est.rows = std::max(
        est.rows * std::max(rstats.cardinality, 1.0) / selectivity_den, 1.0);
    est.avg_size += std::max(rstats.avg_record_size, 1.0);
    for (const auto& [col, cs] : rstats.columns) {
      est.ndv[NdvKey(alias, col)] = std::max(cs.ndv, 1.0);
    }
    for (auto& [col, ndv] : est.ndv) ndv = std::min(ndv, est.rows);
    prefix.insert(alias);

    // Non-local predicates that become applicable here (selectivity
    // unknown; Jaql just applies them).
    std::vector<ExprPtr> applicable;
    for (size_t p = 0; p < non_local.size(); ++p) {
      if (preds_applied.count(p)) continue;
      bool covered = true;
      for (const std::string& a : non_local[p].aliases) {
        if (!prefix.count(a)) {
          covered = false;
          break;
        }
      }
      if (covered) {
        applicable.push_back(non_local[p].expr);
        preds_applied.insert(p);
      }
    }
    node->post_filter = Conjoin(applicable);
    node->est_rows = est.rows;
    node->est_bytes = est.rows * est.avg_size;
    plan = std::move(node);
  }

  // Jaql chains consecutive broadcast joins when the build files fit in
  // memory simultaneously — by file size, like the join-method rule itself.
  // Reuse the generic chain pass but feed it the estimates already embedded
  // (build leaves carry exact post-filter bytes; Jaql would use file bytes,
  // a conservative superset, so emulate that by checking file bytes here).
  {
    PlanNode* cur = plan.get();
    std::vector<PlanNode*> spine;
    while (!cur->IsLeaf()) {
      spine.push_back(cur);
      cur = cur->left.get();
    }
    // spine is top-down; walk bottom-up accumulating file bytes.
    double chain_bytes = 0.0;
    for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
      PlanNode* node = *it;
      if (node->method != JoinMethod::kBroadcast) {
        chain_bytes = 0.0;
        continue;
      }
      double build_bytes =
          node->right->IsLeaf()
              ? file_bytes.at(node->right->relation_id) *
                    options_.cost.memory_factor
              : node->right->est_bytes * options_.cost.memory_factor;
      if (chain_bytes > 0.0 &&
          chain_bytes + build_bytes <=
              static_cast<double>(options_.cost.max_memory_bytes)) {
        node->chain_with_left = true;
        chain_bytes += build_bytes;
      } else {
        node->chain_with_left = false;
        chain_bytes = build_bytes;
      }
    }
  }
  RecostPlan(plan.get(), options_.cost, /*chained_by_parent=*/false);
  return plan;
}

Result<BestStaticResult> BestStaticBaseline::Run(const JoinBlock& block) {
  DYNO_RETURN_IF_ERROR(ValidateJoinBlock(block));
  std::vector<std::string> aliases;
  for (const TableRef& ref : block.tables) aliases.push_back(ref.alias);

  // Enumerate connectivity-valid join orders by DFS.
  std::vector<std::vector<std::string>> orders;
  std::vector<std::string> current;
  std::set<std::string> used;
  std::function<void()> dfs = [&]() {
    if (current.size() == aliases.size()) {
      orders.push_back(current);
      return;
    }
    for (const std::string& alias : aliases) {
      if (used.count(alias)) continue;
      if (!current.empty()) {
        bool connects = false;
        for (const JoinEdge& edge : block.edges) {
          if ((edge.left_alias == alias && used.count(edge.right_alias)) ||
              (edge.right_alias == alias && used.count(edge.left_alias))) {
            connects = true;
            break;
          }
        }
        if (!connects) continue;
      }
      used.insert(alias);
      current.push_back(alias);
      dfs();
      current.pop_back();
      used.erase(alias);
    }
  };
  dfs();

  BestStaticResult result;
  // Build + rank all candidates, deduplicating identical physical plans.
  struct Candidate {
    std::vector<std::string> order;
    std::unique_ptr<PlanNode> plan;
    double cost;
    std::string compact;
  };
  std::vector<Candidate> candidates;
  std::set<std::string> seen;
  for (const std::vector<std::string>& order : orders) {
    auto plan = BuildJaqlPlan(block, order);
    if (!plan.ok()) continue;
    std::string compact = (*plan)->ToString();
    if (!seen.insert(compact).second) continue;
    Candidate c;
    c.order = order;
    c.cost = (*plan)->est_cost;
    c.compact = std::move(compact);
    c.plan = std::move(*plan);
    candidates.push_back(std::move(c));
  }
  result.plans_enumerated = static_cast<int>(candidates.size());
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.cost < b.cost;
            });
  size_t top_k = std::min<size_t>(options_.execute_top_k, candidates.size());

  // The candidates mostly share their first joins: a unit one of them ran
  // is replayed for the next, at the clock cost it had.
  UnitReplayLog replay;
  SimMillis best = -1;
  const std::vector<std::string> existing =
      ListQueryTemp(*engine_->dfs(), options_.exec.query_id);
  for (size_t i = 0; i < top_k; ++i) {
    QueryRunReport report;
    JoinBlockRun run(engine_, catalog_, /*store=*/nullptr,
                     JaqlRunOptions(options_.exec), block, &report);
    SimMillis start = engine_->now();
    auto output = run.RunPlan(*candidates[i].plan, &replay);
    ++result.plans_executed;
    if (!output.ok()) {
      ++result.plans_failed;  // e.g. broadcast OOM at runtime
      continue;
    }
    SimMillis elapsed = engine_->now() - start;
    if (best < 0 || elapsed < best) {
      best = elapsed;
      result.best_plan = candidates[i].compact;
      result.best_order = candidates[i].order;
      result.output = *output;
    }
  }
  // Every candidate has run: all but the winner's output is reclaimed, the
  // losing candidates' outputs included.
  ReclaimQueryTemp(engine_->dfs(), options_.exec.query_id,
                   result.output != nullptr ? result.output->path() : "",
                   existing);
  if (best < 0) {
    return Status::Internal("no static candidate executed successfully");
  }
  result.best_time_ms = best;
  result.units_replayed = replay.replayed;
  if (obs::TraceSink* trace = engine_->trace()) {
    trace->Record(obs::TraceEvent(engine_->now(), -1,
                                  obs::TraceLane::kDriver, "baseline",
                                  "best_static")
                      .ArgInt("plans_enumerated", result.plans_enumerated)
                      .ArgInt("plans_executed", result.plans_executed)
                      .ArgInt("plans_failed", result.plans_failed)
                      .ArgInt("units_replayed", result.units_replayed)
                      .Arg("best_plan", result.best_plan)
                      .ArgInt("best_time_ms", result.best_time_ms));
  }
  return result;
}

}  // namespace dyno
