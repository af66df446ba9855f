// Standalone runs reclaim their intermediates (DESIGN.md §6.6): a DYNOPT,
// BESTSTATIC or RELOPT run that returns leaves exactly its result, plus its
// `.quarantine` files, on top of the files that were there before it. A run
// that is killed keeps everything, so Resume can rebind it.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/best_static.h"
#include "baselines/relopt.h"
#include "common/string_util.h"
#include "dyno/driver.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest() : catalog_(&dfs_) {
    TpchConfig config;
    config.scale = 0.0005;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.map_slots = 20;
    config.reduce_slots = 10;
    config.memory_per_task_bytes = 64 * 1024;
    return config;
  }

  static CostModelParams Cost() {
    CostModelParams cost;
    cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    cost.memory_factor = 1.5;
    return cost;
  }

  static DynoOptions MakeOptions() {
    DynoOptions options;
    options.pilot.k = 256;
    options.pilot.mode = PilotRunOptions::Mode::kParallel;
    options.cost = Cost();
    return options;
  }

  std::set<std::string> Files() const {
    std::vector<std::string> paths = dfs_.List();
    return std::set<std::string>(paths.begin(), paths.end());
  }

  /// The files that exist now and not in `before`.
  std::set<std::string> AddedSince(const std::set<std::string>& before) const {
    std::set<std::string> added;
    for (const std::string& path : dfs_.List()) {
      if (before.count(path) == 0) added.insert(path);
    }
    return added;
  }

  void ExpectRowsMatch(const JoinBlock& oracle_block, const DfsFile& result) {
    auto expected = NaiveEvaluateJoinBlock(&catalog_, oracle_block);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    std::vector<Value> actual = MustReadAll(result);
    std::vector<Value> want = std::move(expected).value();
    SortRowsForComparison(&actual);
    SortRowsForComparison(&want);
    ASSERT_EQ(actual.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(actual[i].Compare(want[i]), 0) << "row " << i;
    }
  }

  /// Runs Q2 standalone so that the temp directory already holds an
  /// earlier query's result, which the next run must leave alone.
  std::string RunEarlierQuery(MapReduceEngine* engine) {
    DynoDriver driver(engine, &catalog_, &store_, MakeOptions());
    auto report = driver.Execute(MakeTpchQ2());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return "";
    EXPECT_TRUE(StartsWith(report->result->path(), QueryTempDir("") + "/"));
    return report->result->path();
  }

  Dfs dfs_;
  Catalog catalog_;
  StatsStore store_;
};

TEST_F(ReclaimTest, DynoptRunLeavesOnlyItsResultAndManifest) {
  MapReduceEngine engine(&dfs_, MakeConfig());
  const std::string earlier = RunEarlierQuery(&engine);
  const std::set<std::string> before = Files();

  DynoOptions options = MakeOptions();
  options.checkpoint_path = "/ckpt/q10";
  DynoDriver driver(&engine, &catalog_, &store_, options);
  Query query = MakeTpchQ10();
  auto report = driver.Execute(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->jobs_run, 1);
  ASSERT_FALSE(driver.manifest().entries.empty());

  std::set<std::string> added = AddedSince(before);
  added.erase(options.checkpoint_path);
  added.erase(options.checkpoint_path + ".prev");
  EXPECT_EQ(added, std::set<std::string>{report->result->path()});
  EXPECT_TRUE(dfs_.Exists(earlier));
  ExpectRowsMatch(query.join_block, *report->result);
}

TEST_F(ReclaimTest, BestStaticKeepsOnlyTheWinningOutput) {
  MapReduceEngine engine(&dfs_, MakeConfig());
  const std::string earlier = RunEarlierQuery(&engine);
  const std::set<std::string> before = Files();

  BestStaticOptions options;
  options.cost = Cost();
  options.execute_top_k = 3;
  BestStaticBaseline baseline(&engine, &catalog_, options);
  Query query = MakeTpchQ10();
  auto result = baseline.Run(query.join_block);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->plans_executed, 3) << "losing candidates must exist";
  ASSERT_NE(result->output, nullptr);

  EXPECT_EQ(AddedSince(before),
            std::set<std::string>{result->output->path()});
  EXPECT_TRUE(dfs_.Exists(earlier));
  ExpectRowsMatch(query.join_block, *result->output);
}

TEST_F(ReclaimTest, RelOptKeepsOnlyItsOutput) {
  MapReduceEngine engine(&dfs_, MakeConfig());
  const std::string earlier = RunEarlierQuery(&engine);
  const std::set<std::string> before = Files();

  RelOptBaseline relopt(&engine, &catalog_, Cost());
  Query query = MakeTpchQ10();
  auto run = relopt.PlanAndExecute(query.join_block, ExecOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->exec_status.ok()) << run->exec_status.ToString();
  ASSERT_GT(run->jobs_run, 1);

  EXPECT_EQ(AddedSince(before), std::set<std::string>{run->output->path()});
  EXPECT_TRUE(dfs_.Exists(earlier));
  ExpectRowsMatch(query.join_block, *run->output);
}

TEST_F(ReclaimTest, PoisonRecordsKeepTheirQuarantineFiles) {
  ClusterConfig config = MakeConfig();
  config.faults.seed = 3;
  config.faults.poison_record_rate = 0.01;
  config.faults.max_skipped_records = -1;
  MapReduceEngine engine(&dfs_, config);
  const std::set<std::string> before = Files();

  DynoDriver driver(&engine, &catalog_, &store_, MakeOptions());
  auto report = driver.Execute(MakeTpchQ10());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->records_quarantined, 0u)
      << "no poison record fired at this rate/seed";

  const std::string result = report->result->path();
  std::set<std::string> added = AddedSince(before);
  EXPECT_EQ(added.count(result), 1u);
  EXPECT_EQ(added.count(result + ".quarantine"), 1u)
      << "the result's own quarantine file must stay";
  int pilot_quarantines = 0;
  for (const std::string& path : added) {
    if (path == result) continue;
    EXPECT_TRUE(EndsWith(path, ".quarantine")) << path;
    const std::string dir = QueryTempDir("") + "/";
    if (StartsWith(path, dir + "full_") || StartsWith(path, dir + "mt_") ||
        StartsWith(path, dir + "st_")) {
      ++pilot_quarantines;
    }
  }
  EXPECT_GT(pilot_quarantines, 0) << "the pilots' quarantine files must stay";
}

TEST_F(ReclaimTest, KilledRunKeepsItsIntermediatesForResume) {
  MapReduceEngine engine(&dfs_, MakeConfig());
  const std::set<std::string> before = Files();
  Query query = MakeTpchQ10();

  DynoOptions kill = MakeOptions();
  kill.checkpoint_path = "/ckpt/killed";
  kill.abort_after_jobs = 1;
  DynoDriver killed(&engine, &catalog_, &store_, kill);
  auto killed_report = killed.Execute(query);
  ASSERT_FALSE(killed_report.ok());
  EXPECT_EQ(killed_report.status().code(), StatusCode::kCancelled);
  ASSERT_FALSE(killed.manifest().entries.empty());
  for (const auto& entry : killed.manifest().entries) {
    EXPECT_TRUE(dfs_.Exists(entry.path))
        << "a killed run must keep the subtree at " << entry.path;
  }
  const std::set<std::string> left = AddedSince(before);

  DynoOptions resume = MakeOptions();
  resume.checkpoint_path = kill.checkpoint_path;
  DynoDriver resumed(&engine, &catalog_, &store_, resume);
  auto report = resumed.Resume(query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->resumed_steps, 0);
  ExpectRowsMatch(query.join_block, *report->result);
  // The resumed run reclaims only what it created itself.
  std::set<std::string> added = AddedSince(before);
  for (const std::string& path : left) added.erase(path);
  added.erase(resume.checkpoint_path);
  added.erase(resume.checkpoint_path + ".prev");
  EXPECT_EQ(added, std::set<std::string>{report->result->path()});
  // The killed attempt's checkpointed subtrees belong to the resumed query
  // and go with its other intermediates.
  for (const auto& entry : killed.manifest().entries) {
    if (entry.path == report->result->path()) continue;
    EXPECT_FALSE(dfs_.Exists(entry.path))
        << "the resumed run must reclaim the subtree at " << entry.path;
  }
}

TEST_F(ReclaimTest, MultiBlockQueryRunsTwiceOnOneCatalog) {
  MapReduceEngine engine(&dfs_, MakeConfig());
  MultiBlockQuery query;
  MultiBlockQuery::Block window;
  window.name = "window";
  window.join_block.tables = {{"customer", "c"}, {"orders", "o"}};
  window.join_block.edges = {{"c", "c_custkey", "o", "o_custkey"}};
  window.join_block.predicates = {
      {Ge(Col("o_orderdate"), LitInt(19950101)), {"o"}}};
  window.join_block.output_columns = {"c_custkey", "c_nationkey",
                                      "o_orderkey"};
  MultiBlockQuery::Block named;
  named.name = "named";
  named.join_block.tables = {{"@block:window", "w"}, {"nation", "n"}};
  named.join_block.edges = {{"w", "c_nationkey", "n", "n_nationkey"}};
  named.join_block.output_columns = {"c_custkey", "n_name", "o_orderkey"};
  query.blocks = {window, named};

  JoinBlock flat;
  flat.tables = {{"customer", "c"}, {"orders", "o"}, {"nation", "n"}};
  flat.edges = {{"c", "c_custkey", "o", "o_custkey"},
                {"c", "c_nationkey", "n", "n_nationkey"}};
  flat.predicates = {{Ge(Col("o_orderdate"), LitInt(19950101)), {"o"}}};
  flat.output_columns = {"c_custkey", "n_name", "o_orderkey"};

  DynoDriver driver(&engine, &catalog_, &store_, MakeOptions());
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(StrFormat("run %d", run));
    const std::set<std::string> before = Files();
    auto report = driver.ExecuteMultiBlock(query);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(AddedSince(before),
              std::set<std::string>{report->result->path()});
    ExpectRowsMatch(flat, *report->result);
    // No catalog name is left pointing at a reclaimed block output.
    for (const std::string& name : catalog_.TableNames()) {
      EXPECT_TRUE(catalog_.OpenTable(name).ok()) << name;
    }
  }
}

}  // namespace
}  // namespace dyno
