#ifndef DYNO_LANG_PLAN_H_
#define DYNO_LANG_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"

namespace dyno {

/// The two physical join implementations of the runtime (paper §2.2.1):
/// repartition (one full map-reduce job) and broadcast (map-only; the build
/// side must fit in task memory).
enum class JoinMethod { kRepartition, kBroadcast };

/// A physical join tree over *relations* identified by string ids — a base
/// leaf expression (identified by its alias) or a materialized intermediate
/// (a virtual relation created by an earlier execution step). Keeping the
/// plan id-based decouples it from storage; the executor resolves ids to
/// DFS files through its bindings map.
struct PlanNode {
  enum class Kind { kLeaf, kJoin };

  Kind kind = Kind::kLeaf;

  /// --- Leaf fields ---
  std::string relation_id;

  /// --- Join fields ---
  JoinMethod method = JoinMethod::kRepartition;
  std::unique_ptr<PlanNode> left;
  /// Build side for broadcast joins.
  std::unique_ptr<PlanNode> right;
  /// Equi-join keys: pairs of (left-side column, right-side column).
  std::vector<std::pair<std::string, std::string>> key_pairs;
  /// Non-local predicates that become applicable at this join's output
  /// (e.g. Q8's UDF over orders⋈customer). Null when none.
  ExprPtr post_filter;

  /// Broadcast chaining (paper §5.2): when true, this broadcast join runs
  /// in the same map-only job as its left child's broadcast join, probing a
  /// stream through several hash tables without materializing between them.
  bool chain_with_left = false;

  /// --- Optimizer estimates (populated during plan extraction) ---
  double est_rows = 0.0;
  double est_bytes = 0.0;
  double est_cost = 0.0;

  static std::unique_ptr<PlanNode> Leaf(std::string relation_id);
  static std::unique_ptr<PlanNode> Join(
      JoinMethod method, std::unique_ptr<PlanNode> left,
      std::unique_ptr<PlanNode> right,
      std::vector<std::pair<std::string, std::string>> key_pairs);

  bool IsLeaf() const { return kind == Kind::kLeaf; }

  /// Single-line rendering, e.g. "(l ⋈r (p ⋈b s))".
  std::string ToString() const;

  /// Multi-line indented rendering for plan-evolution figures.
  std::string ToTreeString() const;

 private:
  void AppendTree(int depth, std::string* out) const;
};

}  // namespace dyno

#endif  // DYNO_LANG_PLAN_H_
