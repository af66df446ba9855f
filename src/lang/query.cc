#include "lang/query.h"

#include <algorithm>
#include <map>
#include <set>

namespace dyno {

Status ValidateJoinBlock(const JoinBlock& block) {
  if (block.tables.empty()) {
    return Status::InvalidArgument("join block has no tables");
  }
  std::set<std::string> aliases;
  for (const TableRef& ref : block.tables) {
    if (ref.alias.empty()) {
      return Status::InvalidArgument("empty alias for table " + ref.table);
    }
    if (!aliases.insert(ref.alias).second) {
      return Status::InvalidArgument("duplicate alias: " + ref.alias);
    }
  }
  for (const JoinEdge& edge : block.edges) {
    if (!aliases.count(edge.left_alias)) {
      return Status::InvalidArgument("unknown alias in join edge: " +
                                     edge.left_alias);
    }
    if (!aliases.count(edge.right_alias)) {
      return Status::InvalidArgument("unknown alias in join edge: " +
                                     edge.right_alias);
    }
    if (edge.left_alias == edge.right_alias) {
      return Status::InvalidArgument("self-join edge on alias: " +
                                     edge.left_alias);
    }
  }
  for (const Predicate& pred : block.predicates) {
    if (pred.expr == nullptr) {
      return Status::InvalidArgument("null predicate expression");
    }
    if (pred.aliases.empty()) {
      return Status::InvalidArgument("predicate with no aliases: " +
                                     pred.expr->ToString());
    }
    for (const std::string& alias : pred.aliases) {
      if (!aliases.count(alias)) {
        return Status::InvalidArgument("unknown alias in predicate: " +
                                       alias);
      }
    }
  }
  return Status::OK();
}

std::vector<LeafExpr> ExtractLeafExprs(const JoinBlock& block,
                                       std::vector<Predicate>* non_local) {
  // Gather local predicates per alias, preserving query order (the paper
  // does not reorder predicates within a leaf, §4.4).
  std::map<std::string, std::vector<ExprPtr>> local;
  for (const Predicate& pred : block.predicates) {
    if (pred.IsLocal()) {
      local[pred.aliases[0]].push_back(pred.expr);
    } else if (non_local != nullptr) {
      non_local->push_back(pred);
    }
  }
  // Join columns per alias.
  std::map<std::string, std::set<std::string>> join_cols;
  for (const JoinEdge& edge : block.edges) {
    join_cols[edge.left_alias].insert(edge.left_column);
    join_cols[edge.right_alias].insert(edge.right_column);
  }

  std::vector<LeafExpr> leaves;
  leaves.reserve(block.tables.size());
  for (const TableRef& ref : block.tables) {
    LeafExpr leaf;
    leaf.alias = ref.alias;
    leaf.table = ref.table;
    auto it = local.find(ref.alias);
    if (it != local.end()) leaf.filter = Conjoin(it->second);
    auto jc = join_cols.find(ref.alias);
    if (jc != join_cols.end()) {
      leaf.join_columns.assign(jc->second.begin(), jc->second.end());
    }
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

std::string LeafSignature(const LeafExpr& leaf) {
  std::string sig = leaf.table;
  sig += "|";
  if (leaf.filter != nullptr) sig += leaf.filter->ToString();
  return sig;
}

}  // namespace dyno
