#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

namespace dyno {
namespace {

TableStats MakeStats(double rows, double avg_size,
                     std::map<std::string, double> ndvs = {}) {
  TableStats stats;
  stats.cardinality = rows;
  stats.avg_record_size = avg_size;
  for (const auto& [col, ndv] : ndvs) {
    ColumnStats cs;
    cs.ndv = ndv;
    stats.columns[col] = cs;
  }
  return stats;
}

/// The relation ids of every leaf under `node`, left to right.
std::vector<std::string> LeafIds(const PlanNode& node) {
  if (node.IsLeaf()) return {node.relation_id};
  std::vector<std::string> ids = LeafIds(*node.left);
  for (std::string& id : LeafIds(*node.right)) ids.push_back(std::move(id));
  return ids;
}

CostModelParams DefaultParams() {
  CostModelParams params;
  params.max_memory_bytes = 10000;
  params.memory_factor = 1.0;
  return params;
}

/// fact(100k rows) -- dim1(100) -- and fact -- dim2(50): a small star.
OptJoinGraph StarGraph() {
  OptJoinGraph graph;
  graph.relations = {
      {"fact", MakeStats(100000, 50, {{"d1", 100}, {"d2", 50}})},
      {"dim1", MakeStats(100, 30, {{"k1", 100}})},
      {"dim2", MakeStats(50, 30, {{"k2", 50}})},
  };
  graph.edges = {{"fact", "d1", "dim1", "k1"}, {"fact", "d2", "dim2", "k2"}};
  return graph;
}

TEST(OptimizerTest, SingleRelationDegenerates) {
  OptJoinGraph graph;
  graph.relations = {{"only", MakeStats(10, 10)}};
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan->IsLeaf());
}

TEST(OptimizerTest, TwoWayPrefersBroadcastWhenBuildFits) {
  OptJoinGraph graph;
  graph.relations = {{"big", MakeStats(100000, 50, {{"k", 100}})},
                     {"small", MakeStats(100, 30, {{"k", 100}})}};
  graph.edges = {{"big", "k", "small", "k"}};
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  const PlanNode& plan = *result->plan;
  ASSERT_FALSE(plan.IsLeaf());
  EXPECT_EQ(plan.method, JoinMethod::kBroadcast);
  EXPECT_EQ(plan.right->relation_id, "small")
      << "the small relation must be the build side";
  EXPECT_EQ(plan.left->relation_id, "big");
}

TEST(OptimizerTest, RepartitionWhenNothingFits) {
  OptJoinGraph graph;
  graph.relations = {{"a", MakeStats(50000, 100, {{"k", 1000}})},
                     {"b", MakeStats(60000, 100, {{"k", 1000}})}};
  graph.edges = {{"a", "k", "b", "k"}};
  JoinOptimizer optimizer(DefaultParams());  // memory 10000 bytes
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan->method, JoinMethod::kRepartition);
}

TEST(OptimizerTest, JoinCardinalityUsesMaxNdv) {
  OptJoinGraph graph;
  graph.relations = {{"a", MakeStats(1000, 10, {{"k", 100}})},
                     {"b", MakeStats(500, 10, {{"k", 50}})}};
  graph.edges = {{"a", "k", "b", "k"}};
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  // |a ⋈ b| = 1000 * 500 / max(100, 50) = 5000.
  EXPECT_NEAR(result->plan->est_rows, 5000.0, 1.0);
}

TEST(OptimizerTest, StarJoinChainsBroadcasts) {
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(StarGraph());
  ASSERT_TRUE(result.ok());
  const PlanNode& top = *result->plan;
  ASSERT_FALSE(top.IsLeaf());
  EXPECT_EQ(top.method, JoinMethod::kBroadcast);
  ASSERT_FALSE(top.left->IsLeaf());
  EXPECT_EQ(top.left->method, JoinMethod::kBroadcast);
  EXPECT_TRUE(top.chain_with_left)
      << "both dims fit simultaneously -> one map-only job";
}

TEST(OptimizerTest, ChainDisabledByFlag) {
  CostModelParams params = DefaultParams();
  params.enable_broadcast_chains = false;
  JoinOptimizer optimizer(params);
  auto result = optimizer.Optimize(StarGraph());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->plan->chain_with_left);
}

TEST(OptimizerTest, ChainRespectsSimultaneousMemoryLimit) {
  CostModelParams params = DefaultParams();
  // Each dim ~3000 bytes; both together exceed 4000.
  params.max_memory_bytes = 4000;
  OptJoinGraph graph;
  graph.relations = {
      {"fact", MakeStats(100000, 50, {{"d1", 100}, {"d2", 100}})},
      {"dim1", MakeStats(100, 30, {{"k1", 100}})},
      {"dim2", MakeStats(100, 30, {{"k2", 100}})},
  };
  graph.edges = {{"fact", "d1", "dim1", "k1"}, {"fact", "d2", "dim2", "k2"}};
  JoinOptimizer optimizer(params);
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  const PlanNode& top = *result->plan;
  if (top.method == JoinMethod::kBroadcast && !top.left->IsLeaf() &&
      top.left->method == JoinMethod::kBroadcast) {
    EXPECT_FALSE(top.chain_with_left)
        << "builds do not fit simultaneously -> no chain";
  }
}

TEST(OptimizerTest, BroadcastDisabledByFlag) {
  CostModelParams params = DefaultParams();
  params.enable_broadcast = false;
  JoinOptimizer optimizer(params);
  auto result = optimizer.Optimize(StarGraph());
  ASSERT_TRUE(result.ok());
  std::function<void(const PlanNode&)> check = [&](const PlanNode& node) {
    if (node.IsLeaf()) return;
    EXPECT_EQ(node.method, JoinMethod::kRepartition);
    check(*node.left);
    check(*node.right);
  };
  check(*result->plan);
}

TEST(OptimizerTest, LeftDeepOnlyModeRestrictsShape) {
  // Chain a-b-c-d where a bushy split would be natural.
  OptJoinGraph graph;
  graph.relations = {{"a", MakeStats(10000, 40, {{"ab", 100}})},
                     {"b", MakeStats(10000, 40, {{"ab", 100}, {"bc", 100}})},
                     {"c", MakeStats(10000, 40, {{"bc", 100}, {"cd", 100}})},
                     {"d", MakeStats(10000, 40, {{"cd", 100}})}};
  graph.edges = {{"a", "ab", "b", "ab"},
                 {"b", "bc", "c", "bc"},
                 {"c", "cd", "d", "cd"}};
  CostModelParams params = DefaultParams();
  params.left_deep_only = true;
  JoinOptimizer optimizer(params);
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  std::function<void(const PlanNode&)> check = [&](const PlanNode& node) {
    if (node.IsLeaf()) return;
    EXPECT_TRUE(node.right->IsLeaf()) << "left-deep: right child is a leaf";
    check(*node.left);
  };
  check(*result->plan);
}

TEST(OptimizerTest, BushyBeatsLeftDeepOnTwoBranchQuery) {
  // Two heavy branches that each reduce massively before the final join:
  // bushy evaluates both reductions first.
  OptJoinGraph graph;
  graph.relations = {
      {"l1", MakeStats(100000, 60, {{"k1", 50000}, {"j", 5000}})},
      {"f1", MakeStats(50, 20, {{"k1", 50}})},
      {"l2", MakeStats(100000, 60, {{"k2", 50000}, {"j", 5000}})},
      {"f2", MakeStats(50, 20, {{"k2", 50}})},
  };
  graph.edges = {{"l1", "k1", "f1", "k1"},
                 {"l2", "k2", "f2", "k2"},
                 {"l1", "j", "l2", "j"}};
  CostModelParams bushy_params = DefaultParams();
  CostModelParams ld_params = DefaultParams();
  ld_params.left_deep_only = true;
  auto bushy = JoinOptimizer(bushy_params).Optimize(graph);
  auto left_deep = JoinOptimizer(ld_params).Optimize(graph);
  ASSERT_TRUE(bushy.ok());
  ASSERT_TRUE(left_deep.ok());
  EXPECT_LE(bushy->plan->est_cost, left_deep->plan->est_cost);
}

TEST(OptimizerTest, NonLocalPredAttachedAtLowestCoveringJoin) {
  OptJoinGraph graph = StarGraph();
  OptNonLocalPred pred;
  pred.expr = Eq(Col("x"), LitInt(1));
  pred.relation_ids = {"fact", "dim1"};
  pred.assumed_selectivity = 1.0;
  graph.non_local_preds = {pred};
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  // Find the unique node with a post filter; it must cover fact+dim1 and
  // its children must not.
  int filters = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.IsLeaf()) return;
    if (node.post_filter != nullptr) {
      ++filters;
      std::vector<std::string> ids = LeafIds(node);
      EXPECT_NE(std::find(ids.begin(), ids.end(), "fact"), ids.end());
      EXPECT_NE(std::find(ids.begin(), ids.end(), "dim1"), ids.end());
    }
    walk(*node.left);
    walk(*node.right);
  };
  walk(*result->plan);
  EXPECT_EQ(filters, 1);
}

TEST(OptimizerTest, AssumedSelectivityShrinksEstimates) {
  OptJoinGraph graph = StarGraph();
  OptNonLocalPred pred;
  pred.expr = Eq(Col("x"), LitInt(1));
  pred.relation_ids = {"fact", "dim1"};
  pred.assumed_selectivity = 0.1;
  graph.non_local_preds = {pred};
  JoinOptimizer optimizer(DefaultParams());
  auto with_pred = optimizer.Optimize(graph);
  auto without = optimizer.Optimize(StarGraph());
  ASSERT_TRUE(with_pred.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LT(with_pred->plan->est_rows, without->plan->est_rows);
}

TEST(OptimizerTest, DisconnectedGraphRejected) {
  OptJoinGraph graph;
  graph.relations = {{"a", MakeStats(10, 10)}, {"b", MakeStats(10, 10)}};
  JoinOptimizer optimizer(DefaultParams());
  EXPECT_FALSE(optimizer.Optimize(graph).ok());
}

TEST(OptimizerTest, ValidationErrors) {
  JoinOptimizer optimizer(DefaultParams());
  OptJoinGraph empty;
  EXPECT_FALSE(optimizer.Optimize(empty).ok());

  OptJoinGraph dup;
  dup.relations = {{"a", MakeStats(1, 1)}, {"a", MakeStats(1, 1)}};
  EXPECT_FALSE(optimizer.Optimize(dup).ok());

  OptJoinGraph bad_edge;
  bad_edge.relations = {{"a", MakeStats(1, 1)}, {"b", MakeStats(1, 1)}};
  bad_edge.edges = {{"a", "k", "zz", "k"}};
  EXPECT_FALSE(optimizer.Optimize(bad_edge).ok());
}

TEST(OptimizerTest, WideJoinGraphsUpTo63RelationsValidate) {
  // The enumeration mask is 64-bit: 63 relations are representable, 64 are
  // not. Exhaustive enumeration is infeasible at that width, so exercise
  // only the validation boundary (left_deep_only keeps any accidental
  // enumeration from exploding if validation were to pass wrongly).
  auto chain = [](int n) {
    OptJoinGraph graph;
    for (int i = 0; i < n; ++i) {
      std::map<std::string, double> ndvs;
      if (i > 0) ndvs["e" + std::to_string(i - 1)] = 10;
      if (i < n - 1) ndvs["e" + std::to_string(i)] = 10;
      graph.relations.push_back(
          {"r" + std::to_string(i), MakeStats(100, 20, ndvs)});
    }
    for (int i = 0; i + 1 < n; ++i) {
      std::string col = "e" + std::to_string(i);
      graph.edges.push_back(
          {"r" + std::to_string(i), col, "r" + std::to_string(i + 1), col});
    }
    return graph;
  };
  JoinOptimizer optimizer(DefaultParams());
  auto too_wide = optimizer.Optimize(chain(64));
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_wide.status().ToString().find("63"), std::string::npos)
      << too_wide.status().ToString();

  // The old 20-relation cap is gone: a 24-way chain optimizes fine (chains
  // have few connected subgraphs, so this stays fast even bushy).
  auto wide = optimizer.Optimize(chain(24));
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(LeafIds(*wide->plan).size(), 24u);
}

TEST(OptimizerTest, SameColumnNameOnBothSidesKeepsDistinctNdvs) {
  // Both relations expose a join column literally named "id" with very
  // different NDVs. Estimation must key NDV by (relation, column): with the
  // old bare-column map, one side's NDV silently overwrote the other's.
  OptJoinGraph graph;
  graph.relations = {{"orders", MakeStats(10000, 20, {{"id", 2500}})},
                     {"users", MakeStats(400, 20, {{"id", 40}})}};
  graph.edges = {{"orders", "id", "users", "id"}};
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  // |orders ⋈ users| = 10000 * 400 / max(2500, 40) = 1600.
  EXPECT_NEAR(result->plan->est_rows, 1600.0, 1.0);
}

TEST(OptimizerTest, ReportCountsGrowWithRelations) {
  JoinOptimizer optimizer(DefaultParams());
  auto small = optimizer.Optimize(StarGraph());
  ASSERT_TRUE(small.ok());

  // 6-way chain.
  OptJoinGraph big;
  for (int i = 0; i < 6; ++i) {
    std::map<std::string, double> ndvs;
    if (i > 0) ndvs["e" + std::to_string(i - 1)] = 100;
    if (i < 5) ndvs["e" + std::to_string(i)] = 100;
    big.relations.push_back(
        {"r" + std::to_string(i), MakeStats(1000, 20, ndvs)});
  }
  for (int i = 0; i < 5; ++i) {
    std::string col = "e" + std::to_string(i);
    big.edges.push_back(
        {"r" + std::to_string(i), col, "r" + std::to_string(i + 1), col});
  }
  auto large = optimizer.Optimize(big);
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->report.expressions_costed,
            small->report.expressions_costed);
  EXPECT_GE(large->report.simulated_ms, small->report.simulated_ms);
}

TEST(OptimizerTest, StarGraphReportsEnumerationMetrics) {
  // The §5.2 star: 3 relations -> every connected subset is a memo group
  // ({fact},{dim1},{dim2},{fact,dim1},{fact,dim2},{fact,dim1,dim2} = 6; the
  // dim1-dim2 pair is disconnected and must not become a group). Each split
  // whose build side contains the 5 MB fact is pruned by M_max before
  // costing: (dim1|fact), (dim2|fact), (dim1|fact dim2), (dim2|fact dim1)
  // = 4. Chaining then collapses the two stacked dim broadcasts into one
  // map-only job.
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(StarGraph());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.groups_explored, 6);
  EXPECT_EQ(result->report.plans_pruned_memory, 4);
  EXPECT_EQ(result->report.broadcast_chain_collapses, 1);
  EXPECT_GT(result->report.expressions_costed, 0);
  EXPECT_GT(result->report.best_cost, 0.0);
}

TEST(OptimizerTest, MemoryPruneCountsSkippedBroadcasts) {
  // Neither side of this join fits in M_max, so every broadcast alternative
  // is pruned before costing; the report must say so, and with broadcast
  // impossible there is nothing to chain.
  OptJoinGraph graph;
  graph.relations = {{"a", MakeStats(50000, 100, {{"k", 1000}})},
                     {"b", MakeStats(60000, 100, {{"k", 1000}})}};
  graph.edges = {{"a", "k", "b", "k"}};
  JoinOptimizer optimizer(DefaultParams());  // memory 10000 bytes
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->report.plans_pruned_memory, 0);
  EXPECT_EQ(result->report.broadcast_chain_collapses, 0);
  EXPECT_EQ(result->report.groups_explored, 3);  // {a},{b},{a,b}

  // The same graph with broadcast disabled outright skips those
  // alternatives silently: they were never candidates, so nothing is
  // counted as a *memory* prune.
  CostModelParams params = DefaultParams();
  params.enable_broadcast = false;
  JoinOptimizer no_broadcast(params);
  auto repart_only = no_broadcast.Optimize(graph);
  ASSERT_TRUE(repart_only.ok());
  EXPECT_EQ(repart_only->report.plans_pruned_memory, 0);
}

TEST(OptimizerTest, ChainCollapseCountMatchesPlanShape) {
  // A fact with three in-memory dims: chaining should collapse both upper
  // broadcasts onto the lowest one (two chain_with_left flags).
  OptJoinGraph graph;
  graph.relations = {
      {"fact",
       MakeStats(100000, 50, {{"d1", 100}, {"d2", 50}, {"d3", 25}})},
      {"dim1", MakeStats(100, 30, {{"k1", 100}})},
      {"dim2", MakeStats(50, 30, {{"k2", 50}})},
      {"dim3", MakeStats(25, 30, {{"k3", 25}})},
  };
  graph.edges = {{"fact", "d1", "dim1", "k1"},
                 {"fact", "d2", "dim2", "k2"},
                 {"fact", "d3", "dim3", "k3"}};
  JoinOptimizer optimizer(DefaultParams());
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());
  int flags = 0;
  std::function<void(const PlanNode&)> count = [&](const PlanNode& node) {
    if (node.IsLeaf()) return;
    if (node.chain_with_left) ++flags;
    count(*node.left);
    count(*node.right);
  };
  count(*result->plan);
  EXPECT_EQ(result->report.broadcast_chain_collapses, flags);
  EXPECT_EQ(flags, 2);

  // With chaining disabled the report must agree with the (flag-free) plan.
  CostModelParams params = DefaultParams();
  params.enable_broadcast_chains = false;
  JoinOptimizer unchained(params);
  auto flat = unchained.Optimize(graph);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->report.broadcast_chain_collapses, 0);
}

TEST(OptimizerTest, RecostPlanChainAccounting) {
  // Manual chain: (probe *b s1) *b s2 with chain flag; chained recost must
  // be cheaper than unchained (saves the intermediate materialization and
  // re-probe).
  auto build = [](bool chained) {
    auto j1 = PlanNode::Join(JoinMethod::kBroadcast, PlanNode::Leaf("probe"),
                             PlanNode::Leaf("s1"), {{"a", "a"}});
    j1->left->est_bytes = 100000;
    j1->right->est_bytes = 500;
    j1->est_bytes = 100000;
    auto j2 = PlanNode::Join(JoinMethod::kBroadcast, std::move(j1),
                             PlanNode::Leaf("s2"), {{"b", "b"}});
    j2->right->est_bytes = 500;
    j2->est_bytes = 100000;
    j2->chain_with_left = chained;
    return j2;
  };
  CostModelParams params = DefaultParams();
  auto chained = build(true);
  auto unchained = build(false);
  double c1 = RecostPlan(chained.get(), params, false);
  double c2 = RecostPlan(unchained.get(), params, false);
  EXPECT_LT(c1, c2);
}

}  // namespace
}  // namespace dyno
