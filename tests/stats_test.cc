#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/histogram.h"
#include "stats/kmv.h"
#include "stats/stats_store.h"
#include "stats/table_stats.h"

namespace dyno {
namespace {

// --- KMV synopsis ---

TEST(KmvTest, ExactBelowK) {
  KmvSynopsis kmv(64);
  for (int i = 0; i < 40; ++i) kmv.Add(Value::Int(i % 20));
  EXPECT_DOUBLE_EQ(kmv.Estimate(), 20.0);
}

TEST(KmvTest, EmptyIsZero) {
  KmvSynopsis kmv;
  EXPECT_DOUBLE_EQ(kmv.Estimate(), 0.0);
}

class KmvAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(KmvAccuracyTest, EstimateWithinExpectedError) {
  int true_ndv = GetParam();
  KmvSynopsis kmv(1024);
  Rng rng(99);
  for (int i = 0; i < 3 * true_ndv; ++i) {
    kmv.Add(Value::Int(static_cast<int64_t>(rng.Uniform(true_ndv))));
  }
  // Not every domain value necessarily appears; compare against the
  // coupon-collector expectation loosely: with 3x draws ~95% coverage.
  double est = kmv.Estimate();
  EXPECT_GT(est, 0.80 * true_ndv);
  EXPECT_LT(est, 1.25 * true_ndv);
}

INSTANTIATE_TEST_SUITE_P(NdvSweep, KmvAccuracyTest,
                         ::testing::Values(2000, 10000, 50000, 200000));

TEST(KmvTest, LazyCompactionKeepsEstimateStable) {
  // Estimate() must see the same state before and after internal
  // compaction, and repeated reads must agree with each other.
  KmvSynopsis kmv(256);
  for (int i = 0; i < 200; ++i) kmv.Add(Value::Int(i));  // < 2k: uncompacted.
  double first = kmv.Estimate();
  EXPECT_DOUBLE_EQ(first, 200.0);  // Exact below k distinct values.
  EXPECT_NEAR(kmv.Estimate(), first, 1e-12);

  // 600 values cross the 2k compaction; the estimate must not depend on
  // where the compactions fell.
  for (int i = 200; i < 600; ++i) kmv.Add(Value::Int(i));
  KmvSynopsis reversed(256);
  for (int i = 599; i >= 0; --i) reversed.Add(Value::Int(i));
  const double grown = kmv.Estimate();
  EXPECT_NEAR(grown, reversed.Estimate(), 1e-9);
  EXPECT_NEAR(kmv.Estimate(), grown, 1e-12);
}

// --- StatsCollector ---

TEST(StatsCollectorTest, TracksCountBytesMinMax) {
  StatsCollector collector({"k"});
  for (int i = 10; i <= 30; ++i) {
    collector.Observe(MakeRow({{"k", Value::Int(i)}}));
  }
  EXPECT_EQ(collector.num_records(), 21u);
  TableStats stats = collector.Finalize(1.0);
  EXPECT_DOUBLE_EQ(stats.cardinality, 21.0);
  EXPECT_FALSE(stats.from_sample);
  const ColumnStats& k = stats.columns.at("k");
  EXPECT_EQ(k.min_value->int_value(), 10);
  EXPECT_EQ(k.max_value->int_value(), 30);
  EXPECT_NEAR(k.ndv, 21.0, 0.01);
  EXPECT_GT(stats.avg_record_size, 0.0);
}

TEST(StatsCollectorTest, SampleExtrapolationCardinality) {
  StatsCollector collector({"k"});
  for (int i = 0; i < 100; ++i) {
    collector.Observe(MakeRow({{"k", Value::Int(i)}}));
  }
  // We scanned 10% of the relation: cardinality scales by 10x.
  TableStats stats = collector.Finalize(0.1);
  EXPECT_TRUE(stats.from_sample);
  EXPECT_DOUBLE_EQ(stats.cardinality, 1000.0);
}

TEST(StatsCollectorTest, GeeExtrapolationKeyColumn) {
  // All sampled values distinct (a key column): GEE extrapolates by
  // sqrt(1/q) — the provable best guarantee, deliberately below linear.
  StatsCollector collector({"k"});
  for (int i = 0; i < 100; ++i) {
    collector.Observe(MakeRow({{"k", Value::Int(i)}}));
  }
  TableStats stats = collector.Finalize(0.01);
  // d = 100, f1 = 100, q = 0.01 -> ndv = 10 * 100 = 1000.
  EXPECT_NEAR(stats.columns.at("k").ndv, 1000.0, 1.0);
}

TEST(StatsCollectorTest, GeeExtrapolationSaturatedDomain) {
  // A small domain fully covered by the sample (every value repeats): GEE
  // must NOT extrapolate — this is the case where the paper's linear rule
  // overestimates by 1/q and wrecks join cardinalities.
  StatsCollector collector({"k"});
  for (int i = 0; i < 1000; ++i) {
    collector.Observe(MakeRow({{"k", Value::Int(i % 20)}}));
  }
  TableStats stats = collector.Finalize(0.05);
  EXPECT_NEAR(stats.columns.at("k").ndv, 20.0, 1.0)
      << "saturated domain: no singleton values, no extrapolation";
}

TEST(StatsCollectorTest, NdvCappedByCardinality) {
  StatsCollector collector({"k"});
  for (int i = 0; i < 50; ++i) {
    collector.Observe(MakeRow({{"k", Value::Int(i % 5)}}));
  }
  TableStats stats = collector.Finalize(0.01);
  EXPECT_LE(stats.columns.at("k").ndv, stats.cardinality);
}

TEST(StatsCollectorTest, MissingColumnsIgnored) {
  StatsCollector collector({"absent"});
  collector.Observe(MakeRow({{"k", Value::Int(1)}}));
  TableStats stats = collector.Finalize(1.0);
  EXPECT_FALSE(stats.columns.at("absent").min_value.has_value());
  EXPECT_DOUBLE_EQ(stats.cardinality, 1.0);
}

TEST(TableStatsTest, ColumnNdvDefaultsToCardinality) {
  TableStats stats;
  stats.cardinality = 500;
  EXPECT_DOUBLE_EQ(stats.ColumnNdv("unknown"), 500.0);
  ColumnStats cs;
  cs.ndv = 50;
  stats.columns["k"] = cs;
  EXPECT_DOUBLE_EQ(stats.ColumnNdv("k"), 50.0);
}

// --- Equi-depth histogram ---

TEST(HistogramTest, UniformEqualitySelectivity) {
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) values.push_back(Value::Int(i % 100));
  auto hist = EquiDepthHistogram::Build(values);
  double sel = hist.EstimateSelectivity(Expr::CompareOp::kEq, Value::Int(42));
  EXPECT_NEAR(sel, 0.01, 0.004);
}

TEST(HistogramTest, RangeSelectivity) {
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) values.push_back(Value::Int(i));
  auto hist = EquiDepthHistogram::Build(values);
  double sel = hist.EstimateSelectivity(Expr::CompareOp::kLt,
                                        Value::Int(2500));
  EXPECT_NEAR(sel, 0.25, 0.02);
  sel = hist.EstimateSelectivity(Expr::CompareOp::kGe, Value::Int(9000));
  EXPECT_NEAR(sel, 0.10, 0.02);
}

TEST(HistogramTest, OutOfRangeLiterals) {
  std::vector<Value> values;
  for (int i = 0; i < 1000; ++i) values.push_back(Value::Int(i));
  auto hist = EquiDepthHistogram::Build(values);
  EXPECT_NEAR(hist.EstimateSelectivity(Expr::CompareOp::kEq,
                                       Value::Int(99999)),
              0.0, 1e-9);
  EXPECT_NEAR(hist.EstimateSelectivity(Expr::CompareOp::kLt,
                                       Value::Int(99999)),
              1.0, 1e-9);
  EXPECT_NEAR(hist.EstimateSelectivity(Expr::CompareOp::kGt,
                                       Value::Int(-5)),
              1.0, 1e-9);
}

TEST(HistogramTest, StringEquality) {
  std::vector<Value> values;
  const char* names[4] = {"a", "b", "c", "d"};
  for (int i = 0; i < 4000; ++i) values.push_back(Value::String(names[i % 4]));
  auto hist = EquiDepthHistogram::Build(values);
  double sel = hist.EstimateSelectivity(Expr::CompareOp::kEq,
                                        Value::String("b"));
  EXPECT_NEAR(sel, 0.25, 0.1);
}

TEST(HistogramTest, EmptyInput) {
  auto hist = EquiDepthHistogram::Build({});
  EXPECT_EQ(hist.total_count(), 0u);
  EXPECT_DOUBLE_EQ(
      hist.EstimateSelectivity(Expr::CompareOp::kEq, Value::Int(1)), 1.0);
}

TEST(HistogramTest, SkewedDataEquality) {
  // 90% of values are 0; equality on the heavy hitter should be near 0.9 /
  // (per-bucket ndv), i.e. much larger than on a rare value.
  std::vector<Value> values;
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(Value::Int(rng.Bernoulli(0.9) ? 0 : rng.UniformInt(1, 100)));
  }
  auto hist = EquiDepthHistogram::Build(values);
  double heavy =
      hist.EstimateSelectivity(Expr::CompareOp::kEq, Value::Int(0));
  double light =
      hist.EstimateSelectivity(Expr::CompareOp::kEq, Value::Int(57));
  EXPECT_GT(heavy, 10 * light);
}

// --- StatsStore ---

TEST(StatsStoreTest, PutGetAndCounters) {
  StatsStore store;
  EXPECT_FALSE(store.Get("sig").has_value());
  EXPECT_EQ(store.misses(), 1u);
  TableStats stats;
  stats.cardinality = 42;
  store.Put("sig", stats);
  auto got = store.Get("sig");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->cardinality, 42.0);
  EXPECT_EQ(store.hits(), 1u);
}

TEST(StatsStoreTest, PutOverwrites) {
  StatsStore store;
  TableStats s1;
  s1.cardinality = 1;
  TableStats s2;
  s2.cardinality = 2;
  store.Put("k", s1);
  store.Put("k", s2);
  EXPECT_DOUBLE_EQ(store.Get("k")->cardinality, 2.0);
}

TEST(StatsStoreTest, VersionedGetRejectsStaleEntries) {
  StatsStore store;
  TableStats stats;
  stats.cardinality = 7;
  store.Put("sig", /*version=*/100, stats);

  // Matching version: hit.
  ASSERT_TRUE(store.Get("sig", 100).has_value());
  // Different non-wildcard version: the entry describes other data — a
  // stale miss, not a hit (the stale pilot-stats reuse bug).
  EXPECT_FALSE(store.Get("sig", 101).has_value());
  EXPECT_EQ(store.stale_misses(), 1u);
  EXPECT_EQ(store.misses(), 1u);
  // Wildcard requests accept any entry, and wildcard entries satisfy any
  // request (legacy unversioned callers keep working).
  EXPECT_TRUE(store.Get("sig").has_value());
  store.Put("legacy", stats);
  EXPECT_TRUE(store.Get("legacy", 42).has_value());
  // Every Get counts as exactly one hit or one miss.
  EXPECT_EQ(store.hits() + store.misses(), 4u);
}

TEST(StatsStoreTest, VersionedPutOverwritesStale) {
  StatsStore store;
  TableStats s1;
  s1.cardinality = 1;
  TableStats s2;
  s2.cardinality = 2;
  store.Put("k", 1, s1);
  store.Put("k", 2, s2);  // The table was rewritten; re-measured stats.
  EXPECT_FALSE(store.Get("k", 1).has_value());
  auto got = store.Get("k", 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->cardinality, 2.0);
}

}  // namespace
}  // namespace dyno
