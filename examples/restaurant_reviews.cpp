// The paper's running example (§4.1, query Q1): restaurants with nested
// address arrays, a sentiment-analysis UDF over reviews, and an identity
// check joining reviews to tweets. Demonstrates why pilot runs matter:
// correlated nested-path predicates and UDFs make static estimation
// hopeless, while a pilot run measures the real selectivities.
//
//   ./build/examples/restaurant_reviews

#include <cstdio>

#include "dyno/driver.h"
#include "tpch/restaurant.h"

namespace {

using namespace dyno;  // NOLINT — example brevity

int RunExample() {
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig cluster;
  cluster.memory_per_task_bytes = 128 * 1024;
  MapReduceEngine engine(&dfs, cluster);

  RestaurantConfig data;
  data.num_restaurants = 3000;
  data.num_reviews = 20000;
  data.num_tweets = 30000;
  if (!GenerateRestaurantData(&catalog, data).ok()) {
    std::fprintf(stderr, "data generation failed\n");
    return 1;
  }

  Query q1 = MakeRestaurantQuery();

  // What would the independence assumption predict for the restaurant
  // leaf?  sel(zip=94301) * sel(state=CA) — but 94301 implies CA, so the
  // truth is just sel(zip=94301). Compute both for contrast.
  std::vector<LeafExpr> leaves = ExtractLeafExprs(q1.join_block, nullptr);
  auto exact = catalog.ExactStats(leaves[0].table, leaves[0].filter,
                                  leaves[0].join_columns);
  if (!exact.ok()) return 1;
  double both_sel = exact->cardinality / data.num_restaurants;

  LeafExpr state_only = leaves[0];
  state_only.filter = Eq(Path({PathStep::Field("rs_addr"), PathStep::Index(0),
                               PathStep::Field("state")}),
                         LitString("CA"));
  auto state_stats = catalog.ExactStats(state_only.table, state_only.filter,
                                        state_only.join_columns);
  if (!state_stats.ok()) return 1;
  double state_sel = state_stats->cardinality / data.num_restaurants;

  std::printf("=== restaurant/review/tweet (paper Q1) ===\n");
  std::printf("restaurant leaf: actual selectivity of zip AND state: %.4f\n",
              both_sel);
  std::printf("independence would predict sel_zip * sel_state = %.4f * %.4f "
              "= %.4f  (a %.1fx underestimate)\n",
              both_sel, state_sel, both_sel * state_sel,
              1.0 / state_sel);

  StatsStore store;
  DynoOptions options;
  options.cost.max_memory_bytes = cluster.memory_per_task_bytes;
  DynoDriver driver(&engine, &catalog, &store, options);
  auto report = driver.Execute(q1);
  if (!report.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("\npilot-run measured leaf statistics (from the metastore):\n");
  for (const LeafExpr& leaf : leaves) {
    auto stats = store.Get(LeafSignature(leaf));
    if (stats.has_value()) {
      std::printf("  %-10s -> ~%.0f rows after local predicates/UDFs\n",
                  leaf.alias.c_str(), stats->cardinality);
    }
  }

  std::printf("\nchosen plan:\n%s\n",
              report->plan_history.front().plan_tree.c_str());
  std::printf("result rows    : %llu positive-review CA restaurants\n",
              (unsigned long long)report->result_records);
  std::printf("simulated time : %s (%d jobs, %d map-only)\n",
              FormatSimMillis(report->total_ms).c_str(), report->jobs_run,
              report->map_only_jobs);
  return 0;
}

}  // namespace

int main() { return RunExample(); }
