#include "pilot/pilot_runner.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class PilotTest : public ::testing::Test {
 protected:
  PilotTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    // One table with 10k rows in many splits; a 50% filter column and a
    // key column with 1000 distinct values.
    std::vector<Value> rows;
    for (int i = 0; i < 10000; ++i) {
      rows.push_back(MakeRow({{"id", Value::Int(i)},
                              {"k", Value::Int(i % 1000)},
                              {"flag", Value::Int(i % 2)},
                              {"pad", Value::String(std::string(30, 'p'))}}));
    }
    EXPECT_TRUE(catalog_.CreateTable("big", rows).ok());
    std::vector<Value> small;
    for (int i = 0; i < 200; ++i) {
      small.push_back(MakeRow({{"sid", Value::Int(i)},
                               {"sk", Value::Int(i % 50)}}));
    }
    EXPECT_TRUE(catalog_.CreateTable("small", small).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 1000;
    config.map_slots = 8;
    return config;
  }

  LeafExpr BigLeaf(ExprPtr filter = nullptr) {
    LeafExpr leaf;
    leaf.alias = "b";
    leaf.table = "big";
    leaf.filter = std::move(filter);
    leaf.join_columns = {"k"};
    return leaf;
  }

  LeafExpr SmallLeaf() {
    LeafExpr leaf;
    leaf.alias = "s";
    leaf.table = "small";
    leaf.join_columns = {"sk"};
    return leaf;
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
};

TEST_F(PilotTest, ParallelModeEstimatesCardinality) {
  PilotRunOptions options;
  options.k = 512;
  options.mode = PilotRunOptions::Mode::kParallel;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto report = runner.Run({BigLeaf(Eq(Col("flag"), LitInt(1)))});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->leaves.size(), 1u);
  const TableStats& stats = report->leaves[0].stats;
  // True post-filter cardinality is 5000; the sample-based estimate should
  // land within a factor-ish window.
  EXPECT_GT(stats.cardinality, 3000.0);
  EXPECT_LT(stats.cardinality, 7500.0);
  EXPECT_TRUE(stats.from_sample);
}

TEST_F(PilotTest, SerialModeEstimatesCardinality) {
  PilotRunOptions options;
  options.k = 512;
  options.mode = PilotRunOptions::Mode::kSerial;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto report = runner.Run({BigLeaf(Eq(Col("flag"), LitInt(1)))});
  ASSERT_TRUE(report.ok());
  const TableStats& stats = report->leaves[0].stats;
  EXPECT_GT(stats.cardinality, 3000.0);
  EXPECT_LT(stats.cardinality, 7500.0);
}

TEST_F(PilotTest, ParallelFasterThanSerialForMultipleLeaves) {
  // ST pays job startup per leaf; MT pays it once.
  std::vector<LeafExpr> leaves = {BigLeaf(), SmallLeaf()};
  PilotRunOptions st;
  st.mode = PilotRunOptions::Mode::kSerial;
  st.reuse_stats = false;
  PilotRunOptions mt = st;
  mt.mode = PilotRunOptions::Mode::kParallel;
  PilotRunner st_runner(&engine_, &catalog_, &store_, st);
  PilotRunner mt_runner(&engine_, &catalog_, &store_, mt);
  auto st_report = st_runner.Run(leaves);
  auto mt_report = mt_runner.Run(leaves);
  ASSERT_TRUE(st_report.ok());
  ASSERT_TRUE(mt_report.ok());
  EXPECT_LT(mt_report->elapsed_ms, st_report->elapsed_ms);
}

TEST_F(PilotTest, StopsEarlyOnUnselectiveLeaf) {
  PilotRunOptions options;
  options.k = 256;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto report = runner.Run({BigLeaf()});
  ASSERT_TRUE(report.ok());
  // The pilot must not scan all 10k rows to produce 256 outputs.
  auto file = catalog_.OpenTable("big");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(report->leaves[0].full_output, nullptr)
      << "unselective leaf must not be fully materialized";
}

TEST_F(PilotTest, SelectiveLeafYieldsFullOutputForReuse) {
  // A filter so selective the whole table is consumed before k outputs:
  // the pilot output doubles as the leaf materialization (§4.1).
  PilotRunOptions options;
  options.k = 1024;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto report = runner.Run({BigLeaf(Lt(Col("id"), LitInt(50)))});
  ASSERT_TRUE(report.ok());
  ASSERT_NE(report->leaves[0].full_output, nullptr);
  EXPECT_EQ(report->leaves[0].full_output->num_records(), 50u);
  EXPECT_FALSE(report->leaves[0].stats.from_sample);
  EXPECT_DOUBLE_EQ(report->leaves[0].stats.cardinality, 50.0);
}

// PILR keeps only what it hands back: every pilot output other than a
// returned full materialization is deleted once its statistics are merged
// (MT batch outputs after concatenation, an ST output that stopped early).
TEST_F(PilotTest, OnlyReturnedFullOutputsOutliveTheRun) {
  std::set<std::string> returned;
  for (PilotRunOptions::Mode mode :
       {PilotRunOptions::Mode::kParallel, PilotRunOptions::Mode::kSerial}) {
    PilotRunOptions options;
    options.k = 256;
    options.mode = mode;
    options.reuse_stats = false;
    PilotRunner runner(&engine_, &catalog_, &store_, options);
    auto report = runner.Run({BigLeaf(), SmallLeaf()});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const PilotLeafResult& leaf : report->leaves) {
      if (leaf.full_output != nullptr) {
        returned.insert(leaf.full_output->path());
      }
    }
  }
  // The 200-row small table is consumed whole in both modes.
  EXPECT_EQ(returned.size(), 2u);
  std::set<std::string> listed;
  for (const std::string& path : dfs_.List()) {
    if (StartsWith(path, QueryTempDir("") + "/")) listed.insert(path);
  }
  EXPECT_EQ(listed, returned);
}

// Poison records follow the output they were skipped from. A discarded
// partial scan takes its quarantine file with it; the MT batches of a whole
// scan hand theirs to the full output's `<output>.quarantine`, so every
// record of the table is either in the full output or in that file.
TEST_F(PilotTest, QuarantineFilesFollowTheirOutputs) {
  ClusterConfig config = MakeConfig();
  config.faults.seed = 5;
  config.faults.poison_record_rate = 0.05;
  config.faults.max_skipped_records = -1;
  MapReduceEngine engine(&dfs_, config);
  std::set<std::string> kept;
  for (int k : {256, 20000}) {
    for (PilotRunOptions::Mode mode :
         {PilotRunOptions::Mode::kParallel, PilotRunOptions::Mode::kSerial}) {
      PilotRunOptions options;
      options.k = k;
      options.mode = mode;
      options.reuse_stats = false;
      PilotRunner runner(&engine, &catalog_, &store_, options);
      auto report = runner.Run({BigLeaf(), SmallLeaf()});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      for (const PilotLeafResult& leaf : report->leaves) {
        if (leaf.full_output == nullptr) continue;
        const std::string path = leaf.full_output->path();
        auto quarantine = dfs_.Open(path + ".quarantine");
        ASSERT_TRUE(quarantine.ok()) << path << " skipped no record";
        const uint64_t rows = leaf.alias == "b" ? 10000 : 200;
        EXPECT_EQ(leaf.full_output->num_records() +
                      (*quarantine)->num_records(),
                  rows)
            << path;
        kept.insert({path, path + ".quarantine"});
      }
    }
  }
  // k = 256 stops the big table early in both modes; k = 20000 does not.
  EXPECT_EQ(kept.size(), 12u);
  std::set<std::string> listed;
  for (const std::string& path : dfs_.List()) {
    if (StartsWith(path, QueryTempDir("") + "/")) listed.insert(path);
  }
  EXPECT_EQ(listed, kept);
}

// A whole-table pilot reports exactly the rows it kept: its statistics
// come from committed task outputs alone, so neither the partial output of
// an attempt that died on a poison record nor that of an attempt a node
// crash killed is counted.
TEST_F(PilotTest, WholeTableStatsCountEachCommittedRecordOnce) {
  ClusterConfig poison = MakeConfig();
  poison.faults.seed = 5;
  ClusterConfig crashes = poison;
  poison.faults.poison_record_rate = 0.05;
  poison.faults.max_skipped_records = -1;
  crashes.num_nodes = 4;
  crashes.faults.node_failure_rate = 0.05;
  crashes.faults.node_recovery_ms = 2000;
  for (const ClusterConfig& config : {poison, crashes}) {
    MapReduceEngine engine(&dfs_, config);
    for (PilotRunOptions::Mode mode :
         {PilotRunOptions::Mode::kParallel, PilotRunOptions::Mode::kSerial}) {
      PilotRunOptions options;
      options.k = 20000;
      options.mode = mode;
      options.reuse_stats = false;
      PilotRunner runner(&engine, &catalog_, &store_, options);
      auto report = runner.Run({BigLeaf(), SmallLeaf()});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      for (const PilotLeafResult& leaf : report->leaves) {
        const std::string where =
            StrFormat("%s in %s mode, %s", leaf.alias.c_str(),
                      mode == PilotRunOptions::Mode::kSerial ? "ST" : "MT",
                      config.faults.poison_record_rate > 0 ? "poison"
                                                           : "node crashes");
        ASSERT_NE(leaf.full_output, nullptr) << where;
        EXPECT_FALSE(leaf.stats.from_sample) << where;
        EXPECT_EQ(leaf.stats.cardinality,
                  static_cast<double>(leaf.full_output->num_records()))
            << where;
      }
    }
  }
}

TEST_F(PilotTest, NdvEstimateReasonable) {
  PilotRunOptions options;
  options.k = 2048;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto report = runner.Run({BigLeaf()});
  ASSERT_TRUE(report.ok());
  double ndv = report->leaves[0].stats.ColumnNdv("k");
  // True NDV is 1000; linear extrapolation from a uniform sample can
  // overshoot, but must stay in a sane band.
  EXPECT_GT(ndv, 500.0);
  EXPECT_LT(ndv, 5000.0);
}

TEST_F(PilotTest, StatsReuseSkipsRuns) {
  PilotRunOptions options;
  options.reuse_stats = true;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto first = runner.Run({BigLeaf()});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->runs_executed, 1);
  auto second = runner.Run({BigLeaf()});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->runs_executed, 0);
  EXPECT_EQ(second->runs_skipped_cached, 1);
  EXPECT_DOUBLE_EQ(second->leaves[0].stats.cardinality,
                   first->leaves[0].stats.cardinality);
}

TEST_F(PilotTest, ReuseDisabledReruns) {
  PilotRunOptions options;
  options.reuse_stats = false;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  ASSERT_TRUE(runner.Run({BigLeaf()}).ok());
  auto second = runner.Run({BigLeaf()});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->runs_executed, 1);
}

TEST_F(PilotTest, UdfSelectivityMeasuredAccurately) {
  // The whole point of pilot runs: a UDF's selectivity is unknowable
  // statically but measurable on a sample.
  ExprPtr udf = MakeHashFilterUdf("pilot_udf", {"id"}, 0.2, 10.0);
  PilotRunOptions options;
  options.k = 512;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto report = runner.Run({BigLeaf(udf)});
  ASSERT_TRUE(report.ok());
  double est = report->leaves[0].stats.cardinality;
  EXPECT_GT(est, 0.10 * 10000);
  EXPECT_LT(est, 0.35 * 10000);
}

TEST_F(PilotTest, MissingTableFails) {
  LeafExpr leaf;
  leaf.alias = "x";
  leaf.table = "no_such_table";
  PilotRunner runner(&engine_, &catalog_, &store_, PilotRunOptions());
  EXPECT_FALSE(runner.Run({leaf}).ok());
}

TEST_F(PilotTest, MtScalesWithSampleNotTableSize) {
  // Duplicate the big table 4x larger; MT pilot time should grow far less
  // than 4x (Table 1: "performance of PILR_MT does not depend on the size
  // of the dataset").
  std::vector<Value> rows;
  for (int i = 0; i < 40000; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"k", Value::Int(i % 1000)},
                            {"flag", Value::Int(i % 2)},
                            {"pad", Value::String(std::string(30, 'p'))}}));
  }
  ASSERT_TRUE(catalog_.CreateTable("big4x", rows).ok());
  PilotRunOptions options;
  options.k = 512;
  options.reuse_stats = false;
  PilotRunner runner(&engine_, &catalog_, &store_, options);
  auto small_report = runner.Run({BigLeaf()});
  LeafExpr big_leaf = BigLeaf();
  big_leaf.table = "big4x";
  auto big_report = runner.Run({big_leaf});
  ASSERT_TRUE(small_report.ok());
  ASSERT_TRUE(big_report.ok());
  EXPECT_LT(big_report->elapsed_ms, 2 * small_report->elapsed_ms);
}

}  // namespace
}  // namespace dyno
