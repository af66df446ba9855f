#include "lang/plan.h"

#include "common/string_util.h"

namespace dyno {

std::unique_ptr<PlanNode> PlanNode::Leaf(std::string relation_id) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kLeaf;
  node->relation_id = std::move(relation_id);
  return node;
}

std::unique_ptr<PlanNode> PlanNode::Join(
    JoinMethod method, std::unique_ptr<PlanNode> left,
    std::unique_ptr<PlanNode> right,
    std::vector<std::pair<std::string, std::string>> key_pairs) {
  auto node = std::make_unique<PlanNode>();
  node->kind = Kind::kJoin;
  node->method = method;
  node->left = std::move(left);
  node->right = std::move(right);
  node->key_pairs = std::move(key_pairs);
  return node;
}

std::string PlanNode::ToString() const {
  if (IsLeaf()) return relation_id;
  const char* op = method == JoinMethod::kBroadcast ? "*b" : "*r";
  std::string out = "(" + left->ToString() + " " + op + " " +
                    right->ToString() + ")";
  if (post_filter != nullptr) out += "[f]";
  return out;
}

void PlanNode::AppendTree(int depth, std::string* out) const {
  out->append(static_cast<size_t>(2 * depth), ' ');
  if (IsLeaf()) {
    out->append(relation_id);
    out->append(StrFormat("  (rows~%.0f)\n", est_rows));
    return;
  }
  out->append(method == JoinMethod::kBroadcast ? "JOIN[broadcast]"
                                               : "JOIN[repartition]");
  if (chain_with_left) out->append(" (chained)");
  if (post_filter != nullptr) {
    out->append(" filter=" + post_filter->ToString());
  }
  out->append(StrFormat("  (rows~%.0f)\n", est_rows));
  left->AppendTree(depth + 1, out);
  right->AppendTree(depth + 1, out);
}

std::string PlanNode::ToTreeString() const {
  std::string out;
  AppendTree(0, &out);
  return out;
}

}  // namespace dyno
