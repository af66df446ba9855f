// Pruning oracle for the per-split zone maps: every predicate shape the
// TPC-H workload uses (ranges, equalities, negation, OR, opaque UDFs) is
// checked against scripted split layouts with pinned prune counts, against
// a brute-force decode-and-evaluate oracle for soundness, and end to end —
// a pruned scan must produce byte-identical output to the unpruned
// row-path scan while provably skipping splits (scan.splits_pruned).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/zone_map.h"
#include "common/random.h"
#include "common/string_util.h"
#include "dyno/driver.h"
#include "exec/row_ops.h"
#include "expr/expr.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

// ---------------------------------------------------------------------------
// ZoneMapBuilder unit behavior.

TEST(ZoneMapBuilderTest, TracksMinMaxAndNulls) {
  columnar::ZoneMapBuilder builder;
  builder.Observe(MakeRow({{"a", Value::Int(5)}, {"b", Value::String("x")}}));
  builder.Observe(MakeRow({{"a", Value::Int(-3)}, {"b", Value::Null()}}));
  builder.Observe(MakeRow({{"a", Value::Int(9)}}));  // b absent
  columnar::ZoneMap zm = builder.Build();
  ASSERT_TRUE(zm.trackable());
  EXPECT_EQ(zm.num_rows(), 3u);

  Result<columnar::ColumnZone> a = zm.FindColumn("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->min_value.int_value(), -3);
  EXPECT_EQ(a->max_value.int_value(), 9);
  EXPECT_EQ(a->non_null_rows, 3u);
  EXPECT_FALSE(a->has_null_or_absent);

  Result<columnar::ColumnZone> b = zm.FindColumn("b");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->non_null_rows, 1u);
  EXPECT_TRUE(b->has_null_or_absent);

  EXPECT_EQ(zm.FindColumn("nope").status().code(), StatusCode::kNotFound);
}

TEST(ZoneMapBuilderTest, LateColumnIsMarkedAbsentInEarlierRows) {
  columnar::ZoneMapBuilder builder;
  builder.Observe(MakeRow({{"a", Value::Int(1)}}));
  builder.Observe(MakeRow({{"a", Value::Int(2)}, {"late", Value::Int(7)}}));
  columnar::ZoneMap zm = builder.Build();
  Result<columnar::ColumnZone> late = zm.FindColumn("late");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_TRUE(late->has_null_or_absent)
      << "row 1 evaluates `late` to null; the zone must say so";
}

TEST(ZoneMapBuilderTest, NonStructRowDisablesTracking) {
  columnar::ZoneMapBuilder builder;
  builder.Observe(MakeRow({{"a", Value::Int(1)}}));
  builder.Observe(Value::Int(42));
  columnar::ZoneMap zm = builder.Build();
  EXPECT_FALSE(zm.trackable());
  // Untrackable never prunes, whatever the filter.
  EXPECT_TRUE(columnar::ZoneMapMayMatch(zm, *Eq(Col("a"), LitInt(999))));
}

TEST(ZoneMapBuilderTest, TooManyColumnsDisablesTracking) {
  columnar::ZoneMapBuilder builder;
  StructFields fields;
  for (size_t i = 0; i < columnar::ZoneMap::kMaxColumns + 1; ++i) {
    fields.emplace_back(StrFormat("c%zu", i), Value::Int(1));
  }
  builder.Observe(Value::Struct(std::move(fields)));
  EXPECT_FALSE(builder.Build().trackable());
}

TEST(ZoneMapTest, EmptyZoneMapNeverPrunes) {
  columnar::ZoneMapBuilder builder;
  EXPECT_TRUE(
      columnar::ZoneMapMayMatch(builder.Build(), *Lt(Col("a"), LitInt(0))));
}

// ---------------------------------------------------------------------------
// Seeded property case: zone maps built from random rows (nulls, absent and
// duplicate columns, NaN nested in arrays and structs, mixed int / double /
// string / array bounds, rows with more than kMaxColumns columns) decode to
// exactly what an independent column-by-column fold computes.

bool HoldsNaN(const Value& v) {
  if (v.type() == Value::Type::kDouble) return std::isnan(v.double_value());
  if (v.type() == Value::Type::kArray) {
    for (const Value& e : v.array()) {
      if (HoldsNaN(e)) return true;
    }
  }
  if (v.type() == Value::Type::kStruct) {
    for (const auto& [name, field] : v.fields()) {
      if (HoldsNaN(field)) return true;
    }
  }
  return false;
}

Value RandomValue(Rng& rng, int depth) {
  switch (rng.Uniform(depth < 2 ? 8 : 5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng.Bernoulli(0.5));
    case 2:
      return Value::Int(rng.UniformInt(-40, 40));
    case 3: {
      // Whole doubles tie with ints under Compare; -0.0 ties with 0.0.
      const double picks[] = {std::nan(""), -0.0, 0.0, 2.5, -1e300};
      if (rng.Bernoulli(0.5)) return Value::Double(picks[rng.Uniform(5)]);
      return Value::Double(static_cast<double>(rng.UniformInt(-40, 40)));
    }
    case 4:
      return Value::String(
          std::string(rng.Uniform(24), static_cast<char>('a' + rng.Uniform(3))));
    case 5:
    case 6: {
      ArrayElements elems(rng.Uniform(4));
      for (Value& e : elems) e = RandomValue(rng, depth + 1);
      return Value::Array(std::move(elems));
    }
    default: {
      StructFields fields;
      for (uint64_t i = rng.Uniform(3); i > 0; --i) {
        fields.emplace_back(StrFormat("f%d", (int)rng.Uniform(2)),
                            RandomValue(rng, depth + 1));
      }
      return Value::Struct(std::move(fields));
    }
  }
}

/// One random row: usually a struct whose field names repeat (duplicates
/// and absent columns are common), occasionally a scalar. `fixed` rows
/// always carry columns a, b, c in that order, so neighbouring splits share
/// their name list.
Value RandomRow(Rng& rng, size_t name_pool, size_t max_fields, bool fixed) {
  if (!fixed && rng.Uniform(80) == 0) return RandomValue(rng, 2);
  StructFields fields;
  if (fixed) {
    for (const char* name : {"a", "b", "c"}) {
      fields.emplace_back(name, RandomValue(rng, 0));
    }
    return Value::Struct(std::move(fields));
  }
  for (uint64_t i = rng.Uniform(max_fields + 1); i > 0; --i) {
    fields.emplace_back(StrFormat("c%d", (int)rng.Uniform(name_pool)),
                        RandomValue(rng, 0));
  }
  return Value::Struct(std::move(fields));
}

/// The reference fold: columns in first-seen order; per column, each row
/// contributes its first field of that name, or marks the column null when
/// it has none or that field is null.
std::vector<columnar::ColumnZone> ReferenceZones(
    const std::vector<Value>& rows, bool* trackable) {
  std::vector<std::string> names;
  *trackable = true;
  for (const Value& row : rows) {
    if (row.type() != Value::Type::kStruct) {
      *trackable = false;
      continue;
    }
    for (const auto& [name, field] : row.fields()) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  if (names.size() > columnar::ZoneMap::kMaxColumns) *trackable = false;
  std::vector<columnar::ColumnZone> zones;
  if (!*trackable) return zones;
  for (const std::string& name : names) {
    columnar::ColumnZone zone;
    zone.name = name;
    for (const Value& row : rows) {
      const Value* v = row.FindField(name);
      if (v == nullptr || v->is_null()) {
        zone.has_null_or_absent = true;
        continue;
      }
      zone.has_nan = zone.has_nan || HoldsNaN(*v);
      if (zone.non_null_rows++ == 0) {
        zone.min_value = *v;
        zone.max_value = *v;
        continue;
      }
      if (v->Compare(zone.min_value) < 0) zone.min_value = *v;
      if (v->Compare(zone.max_value) > 0) zone.max_value = *v;
    }
    zones.push_back(std::move(zone));
  }
  return zones;
}

void ExpectSameZone(const columnar::ColumnZone& got,
                    const columnar::ColumnZone& want, const std::string& at) {
  EXPECT_EQ(got.name, want.name) << at;
  EXPECT_EQ(got.non_null_rows, want.non_null_rows) << at;
  EXPECT_EQ(got.has_null_or_absent, want.has_null_or_absent) << at;
  EXPECT_EQ(got.has_nan, want.has_nan) << at;
  for (const auto& [g, w] : {std::pair{&got.min_value, &want.min_value},
                             std::pair{&got.max_value, &want.max_value}}) {
    EXPECT_EQ(g->type(), w->type()) << at;
    EXPECT_EQ(g->ToString(), w->ToString()) << at;
    std::string g_bytes, w_bytes;
    g->EncodeTo(&g_bytes);
    w->EncodeTo(&w_bytes);
    EXPECT_EQ(g_bytes, w_bytes) << at;
  }
}

TEST(ZoneMapPropertyTest, DecodedZonesMatchReferenceFold) {
  int untrackable = 0;
  int nan_zones = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    // One builder per table, as TableWriter keeps it: names are handed on
    // from split to split.
    columnar::ZoneMapBuilder builder;
    const bool wide = seed % 10 == 0;  // Past kMaxColumns distinct names.
    for (int split = 0; split < 4; ++split) {
      const bool fixed = seed % 3 == 0;
      std::vector<Value> rows(1 + rng.Uniform(10));
      for (Value& row : rows) {
        row = wide ? RandomRow(rng, 90, 40, false)
                   : RandomRow(rng, 6, 5, fixed);
        builder.Observe(row);
      }
      const columnar::ZoneMap zm = builder.Build();
      bool trackable = false;
      const std::vector<columnar::ColumnZone> want =
          ReferenceZones(rows, &trackable);
      const std::string at = StrFormat("seed %llu split %d",
                                       (unsigned long long)seed, split);
      EXPECT_EQ(zm.num_rows(), rows.size()) << at;
      ASSERT_EQ(zm.trackable(), trackable) << at;
      untrackable += trackable ? 0 : 1;
      ASSERT_EQ(zm.num_columns(), want.size()) << at;
      for (size_t c = 0; c < want.size(); ++c) {
        Result<columnar::ColumnZone> got = zm.DecodeZone(c);
        ASSERT_TRUE(got.ok()) << at << ": " << got.status().ToString();
        ExpectSameZone(*got, want[c], at);
        Result<columnar::ColumnZone> found = zm.FindColumn(want[c].name);
        ASSERT_TRUE(found.ok()) << at;
        ExpectSameZone(*found, want[c], at);
        nan_zones += want[c].has_nan ? 1 : 0;
      }
      EXPECT_EQ(zm.FindColumn("absent").status().code(),
                StatusCode::kNotFound)
          << at;
    }
  }
  // The generator reaches both untrackable causes and NaN-holding zones.
  EXPECT_GT(untrackable, 30);
  EXPECT_GT(nan_zones, 100);
}

// ---------------------------------------------------------------------------
// Pinned prune counts on a scripted layout: 100 rows, ids 0..99, one row
// per split (target_split_bytes=1 seals after every append), so split i
// holds exactly {id=i} and every count below is exact by construction.

class PinnedLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Value> rows;
    for (int i = 0; i < 100; ++i) {
      StructFields fields;
      fields.emplace_back("id", Value::Int(i));
      fields.emplace_back("name",
                          Value::String(i % 2 == 0 ? "EUROPE" : "ASIA"));
      if (i % 10 == 0) {
        fields.emplace_back("maybe", Value::Int(i));
      }
      rows.push_back(Value::Struct(std::move(fields)));
    }
    auto file = WriteRows(&dfs_, "/tables/pinned", rows,
                          /*target_split_bytes=*/1);
    ASSERT_TRUE(file.ok());
    file_ = *file;
    ASSERT_EQ(file_->splits().size(), 100u);
  }

  uint64_t Pruned(const ExprPtr& filter) {
    PruneResult result = PruneSplitIndexes(*file_, filter);
    EXPECT_EQ(result.kept.size() + result.pruned, file_->splits().size());
    return result.pruned;
  }

  Dfs dfs_;
  std::shared_ptr<DfsFile> file_;
};

TEST_F(PinnedLayoutTest, RangePredicates) {
  EXPECT_EQ(Pruned(Lt(Col("id"), LitInt(10))), 90u);
  EXPECT_EQ(Pruned(Le(Col("id"), LitInt(10))), 89u);
  EXPECT_EQ(Pruned(Gt(Col("id"), LitInt(89))), 90u);
  EXPECT_EQ(Pruned(Ge(Col("id"), LitInt(90))), 90u);
  // A selective quarter-window range: well over the 50% bar.
  EXPECT_EQ(Pruned(And(Ge(Col("id"), LitInt(20)), Lt(Col("id"), LitInt(30)))),
            90u);
}

TEST_F(PinnedLayoutTest, EqualityPredicates) {
  EXPECT_EQ(Pruned(Eq(Col("id"), LitInt(5))), 99u);
  EXPECT_EQ(Pruned(Eq(Col("id"), LitInt(-1))), 100u);
  EXPECT_EQ(Pruned(Eq(Col("name"), LitString("EUROPE"))), 50u);
  EXPECT_EQ(Pruned(Eq(Col("name"), LitString("AMERICA"))), 100u);
  // Ne prunes only the split whose single point equals the literal.
  EXPECT_EQ(Pruned(Ne(Col("id"), LitInt(5))), 1u);
}

TEST_F(PinnedLayoutTest, NegationPredicates) {
  EXPECT_EQ(Pruned(Not(Lt(Col("id"), LitInt(50)))), 50u);
  EXPECT_EQ(Pruned(Not(Eq(Col("id"), LitInt(5)))), 1u);
  // Double negation is the original predicate.
  EXPECT_EQ(Pruned(Not(Not(Lt(Col("id"), LitInt(10))))), 90u);
}

TEST_F(PinnedLayoutTest, DisjunctionPredicates) {
  EXPECT_EQ(Pruned(Or(Lt(Col("id"), LitInt(5)), Ge(Col("id"), LitInt(95)))),
            90u);
  EXPECT_EQ(Pruned(Or(Eq(Col("id"), LitInt(3)), Eq(Col("id"), LitInt(7)))),
            98u);
}

TEST_F(PinnedLayoutTest, ContradictionAndNullLiteralPruneEverything) {
  // `id < 5 AND id > 50` holds nowhere; an all-pruned scan is legal and
  // must read zero splits.
  EXPECT_EQ(Pruned(And(Lt(Col("id"), LitInt(5)), Gt(Col("id"), LitInt(50)))),
            100u);
  // Comparisons against a null literal are false on every row.
  EXPECT_EQ(Pruned(Eq(Col("id"), Lit(Value::Null()))), 100u);
}

TEST_F(PinnedLayoutTest, OpaqueUdfNeverPrunes) {
  // The paper's information asymmetry: a UDF's selectivity is invisible to
  // the optimizer AND to the zone map, so a UDF filter keeps every split
  // no matter how selective it actually is.
  ExprPtr udf = MakeHashFilterUdf("black_box", {"id"}, 0.01, 5.0);
  EXPECT_EQ(Pruned(udf), 0u);
  // A UDF under OR poisons the whole disjunction.
  EXPECT_EQ(Pruned(Or(Lt(Col("id"), LitInt(5)), udf)), 0u);
  // But a UDF in one AND-factor must not disable pruning from the others.
  EXPECT_EQ(Pruned(And(Lt(Col("id"), LitInt(10)), udf)), 90u);
  // NOT(udf) is just as opaque.
  EXPECT_EQ(Pruned(Not(udf)), 0u);
}

TEST_F(PinnedLayoutTest, OpaqueShapesNeverPrune) {
  // Arithmetic, nested paths and column-to-column comparisons are all
  // outside the zone map's simple-comparison language.
  EXPECT_EQ(Pruned(Gt(Arith(Expr::ArithOp::kAdd, Col("id"), LitInt(1)),
                      LitInt(1000))),
            0u);
  EXPECT_EQ(Pruned(Eq(Col("id"), Col("maybe"))), 0u);
}

TEST_F(PinnedLayoutTest, NullSemanticsUnderNegation) {
  // 90 splits have no "maybe" column, so `maybe >= 0` is false there —
  // prunable. Under negation the roles flip exactly: NOT(maybe >= 0) is
  // TRUE on the null rows (SQL-ish null semantics: the comparison is
  // false, NOT makes it true), so the 90 null splits must be KEPT — while
  // the 10 carrier splits, where `maybe >= 0` provably holds, are pruned.
  EXPECT_EQ(Pruned(Ge(Col("maybe"), LitInt(0))), 90u);
  EXPECT_EQ(Pruned(Not(Ge(Col("maybe"), LitInt(0)))), 10u);
  // Range on the present values still applies where the column exists:
  // "maybe" is 0,10,...,90, so > 40 keeps 5 of the 10 carriers.
  EXPECT_EQ(Pruned(Gt(Col("maybe"), LitInt(40))), 95u);
}

TEST_F(PinnedLayoutTest, NoFilterKeepsEverything) {
  PruneResult result = PruneSplitIndexes(*file_, nullptr);
  EXPECT_EQ(result.pruned, 0u);
  EXPECT_EQ(result.kept.size(), 100u);
}

// ---------------------------------------------------------------------------
// Soundness oracle on multi-row splits: for a bag of predicates covering
// every shape, a pruned split must contain NO row satisfying the filter
// (checked by decoding and evaluating row by row), in both formats.

TEST(ZoneMapOracleTest, PrunedSplitsContainNoMatchingRows) {
  for (SplitFormat format : {SplitFormat::kRow, SplitFormat::kColumnar}) {
    Dfs dfs;
    std::vector<Value> rows;
    for (int i = 0; i < 1200; ++i) {
      StructFields fields;
      fields.emplace_back("id", Value::Int(i));
      fields.emplace_back("k", Value::Int(i / 100));  // clustered blocks
      fields.emplace_back("tag", Value::String(i % 3 == 0 ? "hot" : "cold"));
      if (i % 7 == 0) fields.emplace_back("opt", Value::Null());
      rows.push_back(Value::Struct(std::move(fields)));
    }
    auto file = WriteRows(&dfs, "/tables/oracle", rows,
                          /*target_split_bytes=*/2048, format);
    ASSERT_TRUE(file.ok());
    ASSERT_GT((*file)->splits().size(), 4u);

    ExprPtr udf = MakeHashFilterUdf("u", {"id"}, 0.5, 2.0);
    std::vector<ExprPtr> filters = {
        Lt(Col("id"), LitInt(100)),
        And(Ge(Col("id"), LitInt(300)), Lt(Col("id"), LitInt(400))),
        Eq(Col("k"), LitInt(7)),
        Ne(Col("k"), LitInt(0)),
        Not(Lt(Col("id"), LitInt(600))),
        Or(Eq(Col("k"), LitInt(1)), Eq(Col("k"), LitInt(11))),
        Eq(Col("tag"), LitString("warm")),
        And(Lt(Col("id"), LitInt(200)), udf),
        Not(Ge(Col("opt"), LitInt(0))),
    };
    uint64_t total_pruned = 0;
    for (const ExprPtr& filter : filters) {
      PruneResult result = PruneSplitIndexes(**file, filter);
      total_pruned += result.pruned;
      std::vector<uint8_t> kept_mask((*file)->splits().size(), 0);
      for (size_t index : result.kept) kept_mask[index] = 1;
      for (size_t i = 0; i < (*file)->splits().size(); ++i) {
        if (kept_mask[i]) continue;
        auto split_rows = DecodeSplitRows((*file)->splits()[i]);
        ASSERT_TRUE(split_rows.ok());
        for (const Value& row : *split_rows) {
          auto keep = EvalFilter(filter, row);
          ASSERT_TRUE(keep.ok());
          EXPECT_FALSE(*keep) << "split " << i
                              << " was pruned but contains matching row "
                              << row.ToString();
        }
      }
    }
    // The sweep as a whole genuinely pruned (the clustered layout makes
    // the range/equality filters selective).
    EXPECT_GT(total_pruned, 0u);
  }
}

TEST(ZoneMapOracleTest, NaNDoublesNeverPruneSplitsWithMatchingRows) {
  // Value::Compare orders NaN equal to every number, so a NaN seen first
  // would pin min = max = NaN and no later value would widen the range:
  // the split {NaN, 10.0} must still be kept for `x > 5`.
  const double nan = std::nan("");
  const std::vector<std::vector<double>> pairs = {
      {nan, 10.0}, {10.0, nan}, {1.0, nan}, {nan, nan}, {1.0, 10.0}};
  for (SplitFormat format : {SplitFormat::kRow, SplitFormat::kColumnar}) {
    Dfs dfs;
    std::vector<Value> rows;
    for (const std::vector<double>& pair : pairs) {
      for (double x : pair) rows.push_back(MakeRow({{"x", Value::Double(x)}}));
    }
    // Each row encodes to 13 bytes, so every split holds one pair.
    auto file = WriteRows(&dfs, "/tables/nan", rows,
                          /*target_split_bytes=*/26, format);
    ASSERT_TRUE(file.ok());
    ASSERT_EQ((*file)->splits().size(), pairs.size());

    ExprPtr nan_literal = LitDouble(nan);
    std::vector<ExprPtr> filters = {
        Gt(Col("x"), LitDouble(5.0)),
        Lt(Col("x"), LitDouble(5.0)),
        Eq(Col("x"), LitDouble(10.0)),
        Not(Gt(Col("x"), LitDouble(5.0))),
        Lt(Col("x"), nan_literal),
        Ne(Col("x"), nan_literal),
        Not(Eq(Col("x"), nan_literal)),
    };
    for (const ExprPtr& filter : filters) {
      PruneResult result = PruneSplitIndexes(**file, filter);
      std::vector<uint8_t> kept_mask((*file)->splits().size(), 0);
      for (size_t index : result.kept) kept_mask[index] = 1;
      for (size_t i = 0; i < (*file)->splits().size(); ++i) {
        if (kept_mask[i]) continue;
        auto split_rows = DecodeSplitRows((*file)->splits()[i]);
        ASSERT_TRUE(split_rows.ok());
        for (const Value& row : *split_rows) {
          auto keep = EvalFilter(filter, row);
          ASSERT_TRUE(keep.ok());
          EXPECT_FALSE(*keep) << "split " << i
                              << " was pruned but contains matching row "
                              << row.ToString();
        }
      }
    }
    // Splits without a NaN keep pruning: {1.0, 10.0} is skipped for x < 0.
    EXPECT_EQ(PruneSplitIndexes(**file, Lt(Col("x"), LitDouble(0.0))).pruned,
              1u);
  }
}

// ---------------------------------------------------------------------------
// End to end through the driver: a selective range scan with zone maps on
// must skip at least half the splits (scan.splits_pruned) and still return
// byte-identical output to the unpruned row-path scan.

struct ScanRun {
  std::string fingerprint;
  uint64_t splits_pruned = 0;
};

ScanRun RunEventScan(bool columnar, bool zone_maps) {
  ScopedEnv env({{"DYNO_COLUMNAR", columnar ? "1" : "0"},
                 {"DYNO_ZONE_MAPS", zone_maps ? "1" : "0"}});
  Dfs dfs;
  Catalog catalog(&dfs);
  ClusterConfig config;
  config.job_startup_ms = 500;
  config.map_slots = 8;
  config.reduce_slots = 4;
  config.faults.use_env_defaults = false;
  MapReduceEngine engine(&dfs, config);
  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);

  // Timestamp-clustered event log: the natural zone-map-friendly layout.
  std::vector<Value> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(MakeRow({{"ts", Value::Int(20260000 + i)},
                            {"ev", Value::Int(i % 17)},
                            {"pad", Value::String(std::string(30, 'e'))}}));
  }
  EXPECT_TRUE(catalog.CreateTable("events", rows, /*target_split_bytes=*/
                                  4 * 1024)
                  .ok());

  Query query;
  query.join_block.tables = {{"events", "e"}};
  // Quarter-window range: three quarters of the (clustered) splits can be
  // proven empty.
  query.join_block.predicates = {
      {And(Ge(Col("ts"), LitInt(20260500)), Lt(Col("ts"), LitInt(20261000))),
       {"e"}}};

  StatsStore store;
  DynoOptions options;
  options.pilot.k = 128;
  options.pilot.mode = PilotRunOptions::Mode::kParallel;
  DynoDriver driver(&engine, &catalog, &store, options);
  auto report = driver.Execute(query);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  ScanRun run;
  if (!report.ok()) {
    run.fingerprint = "error: " + report.status().ToString();
    return run;
  }
  uint64_t h = 14695981039346656037ull;
  for (const Split& split : report->result->splits()) {
    for (unsigned char c : split.data) {
      h ^= c;
      h *= 1099511628211ull;
    }
    run.fingerprint += StrFormat("s%llu ", (unsigned long long)
                                               split.num_records);
  }
  run.fingerprint += StrFormat("data=%llx records=%llu",
                               (unsigned long long)h,
                               (unsigned long long)report->result_records);
  run.splits_pruned = metrics.GetCounter("scan.splits_pruned")->value();
  return run;
}

TEST(ZoneMapScanTest, PrunedScanIsByteIdenticalAndSkipsMajority) {
  ScanRun row_unpruned = RunEventScan(/*columnar=*/false, /*zone_maps=*/false);
  ScanRun row_pruned = RunEventScan(/*columnar=*/false, /*zone_maps=*/true);
  ScanRun col_pruned = RunEventScan(/*columnar=*/true, /*zone_maps=*/true);

  // Baseline row path read everything.
  EXPECT_EQ(row_unpruned.splits_pruned, 0u);

  // Pruned runs return byte-identical output, whatever the format.
  EXPECT_EQ(row_pruned.fingerprint, row_unpruned.fingerprint)
      << "zone-map pruning changed the row-path scan output";
  EXPECT_EQ(col_pruned.fingerprint, row_unpruned.fingerprint)
      << "the columnar pruned scan diverged from the row-path oracle";

  // The quarter-window filter provably skips at least half the splits.
  // Both pruned runs see the same split boundaries, so the same count.
  EXPECT_GT(row_pruned.splits_pruned, 0u);
  EXPECT_EQ(row_pruned.splits_pruned, col_pruned.splits_pruned);

  // Recompute the pinned count straight from the layout: the metric must
  // agree exactly with PruneSplitIndexes on the same file and filter.
  ScopedEnv env({{"DYNO_COLUMNAR", "0"}, {"DYNO_ZONE_MAPS", "0"}});
  Dfs dfs;
  Catalog catalog(&dfs);
  std::vector<Value> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(MakeRow({{"ts", Value::Int(20260000 + i)},
                            {"ev", Value::Int(i % 17)},
                            {"pad", Value::String(std::string(30, 'e'))}}));
  }
  ASSERT_TRUE(catalog.CreateTable("events", rows, 4 * 1024).ok());
  auto file = catalog.OpenTable("events");
  ASSERT_TRUE(file.ok());
  ExprPtr filter =
      And(Ge(Col("ts"), LitInt(20260500)), Lt(Col("ts"), LitInt(20261000)));
  PruneResult expected = PruneSplitIndexes(**file, filter);
  EXPECT_EQ(row_pruned.splits_pruned, expected.pruned);
  EXPECT_GE(expected.pruned * 2, (*file)->splits().size())
      << "the quarter-window scan must skip at least half the splits";
}

}  // namespace
}  // namespace dyno
