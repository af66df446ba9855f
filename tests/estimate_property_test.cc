// Property tests on the optimizer's cardinality estimation: with exact
// input statistics, the textbook estimator must land within a bounded
// factor of the true join cardinality across randomized PK-FK and skewed
// workloads — the accuracy contract DYNO relies on when it feeds measured
// leaf statistics into join enumeration (paper §1: the optimizer
// "estimates join result cardinalities using textbook techniques, however
// it operates on very accurate input cardinality estimates").

#include <map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "optimizer/optimizer.h"
#include "test_util.h"

namespace dyno {
namespace {

struct SyntheticRelation {
  std::string id;
  std::vector<int64_t> keys;  // values of its single join column
  std::string column;
};

TableStats ExactStats(const SyntheticRelation& relation) {
  TableStats stats;
  stats.cardinality = static_cast<double>(relation.keys.size());
  stats.avg_record_size = 32;
  std::unordered_set<int64_t> distinct(relation.keys.begin(),
                                       relation.keys.end());
  ColumnStats cs;
  cs.ndv = static_cast<double>(distinct.size());
  stats.columns[relation.column] = cs;
  return stats;
}

uint64_t TrueJoinSize(const SyntheticRelation& a,
                      const SyntheticRelation& b) {
  std::map<int64_t, uint64_t> counts;
  for (int64_t k : a.keys) ++counts[k];
  uint64_t total = 0;
  for (int64_t k : b.keys) {
    auto it = counts.find(k);
    if (it != counts.end()) total += it->second;
  }
  return total;
}

class JoinEstimateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEstimateTest, TwoWayEstimateWithinBoundedFactor) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  // Dimension with unique keys 0..n-1, fact with (possibly skewed) FKs.
  uint64_t dim_rows = 50 + rng.Uniform(500);
  uint64_t fact_rows = 500 + rng.Uniform(5000);
  double theta = rng.Bernoulli(0.5) ? 0.0 : rng.NextDouble() * 0.9;

  SyntheticRelation dim{"dim", {}, "k"};
  for (uint64_t i = 0; i < dim_rows; ++i) {
    dim.keys.push_back(static_cast<int64_t>(i));
  }
  SyntheticRelation fact{"fact", {}, "k"};
  ZipfSampler zipf;
  for (uint64_t i = 0; i < fact_rows; ++i) {
    fact.keys.push_back(
        static_cast<int64_t>(zipf.Next(&rng, dim_rows, theta)));
  }

  OptJoinGraph graph;
  graph.relations = {{"fact", ExactStats(fact)}, {"dim", ExactStats(dim)}};
  graph.edges = {{"fact", "k", "dim", "k"}};
  CostModelParams params;
  params.max_memory_bytes = 1 << 30;
  JoinOptimizer optimizer(params);
  auto result = optimizer.Optimize(graph);
  ASSERT_TRUE(result.ok());

  double actual = static_cast<double>(TrueJoinSize(fact, dim));
  double estimated = result->plan->est_rows;
  // PK-FK with exact NDVs: |fact ⋈ dim| = |fact| exactly (every fact key
  // hits). The estimator divides by max(ndv) which may under-count when
  // skew left some dimension keys unreferenced; allow a 3x band.
  EXPECT_GT(estimated, actual / 3.0) << "dim=" << dim_rows
                                     << " fact=" << fact_rows
                                     << " theta=" << theta;
  EXPECT_LT(estimated, actual * 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEstimateTest,
                         ::testing::Range<uint64_t>(1, 16));

class ManyToManyEstimateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ManyToManyEstimateTest, UniformManyToManyIsAccurate) {
  // Both sides draw uniformly from the same small domain: the textbook
  // formula |A||B|/max(ndv) is asymptotically exact here.
  uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  uint64_t domain = 10 + rng.Uniform(40);
  SyntheticRelation a{"a", {}, "k"};
  SyntheticRelation b{"b", {}, "k"};
  for (int i = 0; i < 3000; ++i) {
    a.keys.push_back(static_cast<int64_t>(rng.Uniform(domain)));
    b.keys.push_back(static_cast<int64_t>(rng.Uniform(domain)));
  }
  OptJoinGraph graph;
  graph.relations = {{"a", ExactStats(a)}, {"b", ExactStats(b)}};
  graph.edges = {{"a", "k", "b", "k"}};
  CostModelParams params;
  params.max_memory_bytes = 1 << 30;
  auto result = JoinOptimizer(params).Optimize(graph);
  ASSERT_TRUE(result.ok());
  double actual = static_cast<double>(TrueJoinSize(a, b));
  EXPECT_NEAR(result->plan->est_rows / actual, 1.0, 0.25)
      << "domain=" << domain;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManyToManyEstimateTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(JoinEstimateTest, CompositeKeyBackoffBeatsNaiveMultiplication) {
  // Two edges between the same pair on correlated columns (a composite
  // key): naive per-edge multiplication underestimates by ~ndv2; the
  // backoff must land much closer.
  constexpr int kPairs = 300;  // (k1, k2) with k2 = k1 % 17 (correlated)
  // Build stats by hand: both relations have ndv(k1)=300, ndv(k2)=17.
  auto stats = [](double rows) {
    TableStats s;
    s.cardinality = rows;
    s.avg_record_size = 32;
    ColumnStats k1;
    k1.ndv = kPairs;
    ColumnStats k2;
    k2.ndv = 17;
    s.columns["k1"] = k1;
    s.columns["k2"] = k2;
    return s;
  };
  OptJoinGraph graph;
  graph.relations = {{"a", stats(3000)}, {"b", stats(300)}};
  graph.edges = {{"a", "k1", "b", "k1"}, {"a", "k2", "b", "k2"}};
  CostModelParams params;
  params.max_memory_bytes = 1 << 30;
  auto result = JoinOptimizer(params).Optimize(graph);
  ASSERT_TRUE(result.ok());
  // True size (FK into composite key): |a| = 3000. Naive estimation:
  // 3000*300/(300*17) = 176; backoff: 3000*300/(300*sqrt(17)) = 728.
  EXPECT_GT(result->plan->est_rows, 500)
      << "backoff must soften the composite-key underestimate";
  EXPECT_LT(result->plan->est_rows, 3000.1);
}

}  // namespace
}  // namespace dyno
