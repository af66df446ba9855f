#include <gtest/gtest.h>

#include "lang/plan.h"
#include "lang/query.h"

namespace dyno {
namespace {

JoinBlock ThreeWayBlock() {
  JoinBlock b;
  b.tables = {{"ta", "a"}, {"tb", "b"}, {"tc", "c"}};
  b.edges = {{"a", "x", "b", "x"}, {"b", "y", "c", "y"}};
  b.predicates = {
      {Eq(Col("p"), LitInt(1)), {"a"}},
      {Eq(Col("q"), LitInt(2)), {"a"}},
      {Gt(Col("r"), LitInt(3)), {"c"}},
      {Eq(Col("s"), Col("t")), {"a", "c"}},
  };
  return b;
}

TEST(QueryTest, ValidateAcceptsWellFormedBlock) {
  EXPECT_TRUE(ValidateJoinBlock(ThreeWayBlock()).ok());
}

TEST(QueryTest, ValidateRejectsBadBlocks) {
  JoinBlock empty;
  EXPECT_FALSE(ValidateJoinBlock(empty).ok());

  JoinBlock dup = ThreeWayBlock();
  dup.tables.push_back({"td", "a"});
  EXPECT_FALSE(ValidateJoinBlock(dup).ok());

  JoinBlock bad_edge = ThreeWayBlock();
  bad_edge.edges.push_back({"a", "x", "zz", "x"});
  EXPECT_FALSE(ValidateJoinBlock(bad_edge).ok());

  JoinBlock self_edge = ThreeWayBlock();
  self_edge.edges.push_back({"a", "x", "a", "y"});
  EXPECT_FALSE(ValidateJoinBlock(self_edge).ok());

  JoinBlock bad_pred = ThreeWayBlock();
  bad_pred.predicates.push_back({Eq(Col("u"), LitInt(1)), {"zz"}});
  EXPECT_FALSE(ValidateJoinBlock(bad_pred).ok());

  JoinBlock null_pred = ThreeWayBlock();
  null_pred.predicates.push_back({nullptr, {"a"}});
  EXPECT_FALSE(ValidateJoinBlock(null_pred).ok());
}

TEST(QueryTest, ExtractLeafExprsPushesDownLocals) {
  std::vector<Predicate> non_local;
  std::vector<LeafExpr> leaves = ExtractLeafExprs(ThreeWayBlock(), &non_local);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0].alias, "a");
  ASSERT_NE(leaves[0].filter, nullptr);
  EXPECT_EQ(leaves[0].filter->ToString(), "((p = 1) AND (q = 2))");
  EXPECT_EQ(leaves[1].filter, nullptr);
  ASSERT_NE(leaves[2].filter, nullptr);
  ASSERT_EQ(non_local.size(), 1u);
  EXPECT_EQ(non_local[0].aliases.size(), 2u);
}

TEST(QueryTest, LeafJoinColumns) {
  std::vector<LeafExpr> leaves = ExtractLeafExprs(ThreeWayBlock(), nullptr);
  EXPECT_EQ(leaves[0].join_columns, std::vector<std::string>{"x"});
  EXPECT_EQ(leaves[1].join_columns, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(leaves[2].join_columns, std::vector<std::string>{"y"});
}

TEST(QueryTest, LeafSignatureIncludesTableAndFilter) {
  std::vector<LeafExpr> leaves = ExtractLeafExprs(ThreeWayBlock(), nullptr);
  EXPECT_EQ(LeafSignature(leaves[0]), "ta|((p = 1) AND (q = 2))");
  EXPECT_EQ(LeafSignature(leaves[1]), "tb|");
}

// --- PlanNode ---

std::unique_ptr<PlanNode> SamplePlan() {
  auto j1 = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("a"),
                           PlanNode::Leaf("b"), {{"x", "x"}});
  auto j2 = PlanNode::Join(JoinMethod::kRepartition, std::move(j1),
                           PlanNode::Leaf("c"), {{"y", "y"}});
  return j2;
}

TEST(PlanTest, ToStringRendersMethods) {
  EXPECT_EQ(SamplePlan()->ToString(), "((a *b b) *r c)");
}

TEST(PlanTest, TreeStringShowsChainAndFilter) {
  auto plan = SamplePlan();
  plan->post_filter = Eq(Col("u"), LitInt(9));
  plan->left->chain_with_left = false;
  std::string tree = plan->ToTreeString();
  EXPECT_NE(tree.find("JOIN[repartition]"), std::string::npos);
  EXPECT_NE(tree.find("JOIN[broadcast]"), std::string::npos);
  EXPECT_NE(tree.find("filter="), std::string::npos);
}

}  // namespace
}  // namespace dyno
