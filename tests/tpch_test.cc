#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/string_util.h"
#include "optimizer/optimizer.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/restaurant.h"

namespace dyno {
namespace {

class TpchGenTest : public ::testing::Test {
 protected:
  TpchGenTest() : catalog_(&dfs_) {
    TpchConfig config;
    config.scale = 0.001;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  std::vector<Value> Rows(const std::string& table) {
    auto file = catalog_.OpenTable(table);
    EXPECT_TRUE(file.ok());
    return MustReadAll(**file);
  }

  Dfs dfs_;
  Catalog catalog_;
};

TEST_F(TpchGenTest, AllTablesRegistered) {
  for (const char* table :
       {"region", "nation", "nation1", "nation2", "supplier", "customer",
        "part", "partsupp", "orders", "lineitem"}) {
    EXPECT_TRUE(catalog_.Lookup(table).ok()) << table;
  }
}

TEST_F(TpchGenTest, SizesMatchScale) {
  TpchSizes sizes = ComputeTpchSizes(0.001);
  EXPECT_EQ(Rows("region").size(), sizes.region);
  EXPECT_EQ(Rows("nation").size(), sizes.nation);
  EXPECT_EQ(Rows("supplier").size(), sizes.supplier);
  EXPECT_EQ(Rows("customer").size(), sizes.customer);
  EXPECT_EQ(Rows("part").size(), sizes.part);
  EXPECT_EQ(Rows("partsupp").size(), sizes.partsupp);
  EXPECT_EQ(Rows("orders").size(), sizes.orders);
  // lineitem is 1..7 lines per order, expectation 4x.
  size_t lineitem = Rows("lineitem").size();
  EXPECT_GT(lineitem, 2 * sizes.orders);
  EXPECT_LT(lineitem, 7 * sizes.orders);
}

TEST_F(TpchGenTest, ForeignKeysResolve) {
  std::set<int64_t> nations;
  for (const Value& row : Rows("nation")) {
    nations.insert(row.FindField("n_nationkey")->int_value());
  }
  for (const Value& row : Rows("supplier")) {
    EXPECT_TRUE(nations.count(row.FindField("s_nationkey")->int_value()));
  }
  std::set<int64_t> customers;
  for (const Value& row : Rows("customer")) {
    customers.insert(row.FindField("c_custkey")->int_value());
  }
  for (const Value& row : Rows("orders")) {
    EXPECT_TRUE(customers.count(row.FindField("o_custkey")->int_value()));
  }
  std::set<int64_t> orders;
  for (const Value& row : Rows("orders")) {
    orders.insert(row.FindField("o_orderkey")->int_value());
  }
  for (const Value& row : Rows("lineitem")) {
    ASSERT_TRUE(orders.count(row.FindField("l_orderkey")->int_value()));
  }
}

TEST_F(TpchGenTest, LineitemSupplierConsistentWithPartsupp) {
  // Every (l_partkey, l_suppkey) pair must exist in partsupp, otherwise
  // Q9's ps⋈l join drops rows silently.
  std::set<std::pair<int64_t, int64_t>> ps;
  for (const Value& row : Rows("partsupp")) {
    ps.emplace(row.FindField("ps_partkey")->int_value(),
               row.FindField("ps_suppkey")->int_value());
  }
  for (const Value& row : Rows("lineitem")) {
    std::pair<int64_t, int64_t> key = {
        row.FindField("l_partkey")->int_value(),
        row.FindField("l_suppkey")->int_value()};
    ASSERT_TRUE(ps.count(key)) << key.first << "," << key.second;
  }
}

TEST_F(TpchGenTest, ChannelClerkGroupCorrelated) {
  int match = 0;
  int total = 0;
  std::map<std::string, int64_t> channel_index;
  for (int i = 0; i < kNumChannels; ++i) channel_index[kChannelNames[i]] = i;
  for (const Value& row : Rows("orders")) {
    ++total;
    if (channel_index[row.FindField("o_channel")->string_value()] ==
        row.FindField("o_clerk_group")->int_value()) {
      ++match;
    }
  }
  double fidelity = static_cast<double>(match) / total;
  EXPECT_GT(fidelity, 0.90) << "soft functional dependency expected";
  EXPECT_LT(fidelity, 1.0) << "dependency should be soft, not exact";
}

TEST_F(TpchGenTest, NestedAddressesPresent) {
  std::vector<Value> customers = Rows("customer");
  const Value& row = customers[0];
  const Value* addr = row.FindField("c_addr");
  ASSERT_NE(addr, nullptr);
  ASSERT_EQ(addr->type(), Value::Type::kArray);
  ASSERT_GE(addr->array().size(), 1u);
  EXPECT_NE(addr->array()[0].FindField("zip"), nullptr);
}

TEST_F(TpchGenTest, DeterministicForSameSeed) {
  Dfs dfs2;
  Catalog catalog2(&dfs2);
  TpchConfig config;
  config.scale = 0.001;
  ASSERT_TRUE(GenerateTpch(&catalog2, config).ok());
  auto a = catalog_.OpenTable("orders");
  auto b = catalog2.OpenTable("orders");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto rows_a = ReadAllRows(**a);
  auto rows_b = ReadAllRows(**b);
  ASSERT_TRUE(rows_a.ok());
  ASSERT_TRUE(rows_b.ok());
  ASSERT_EQ(rows_a->size(), rows_b->size());
  for (size_t i = 0; i < rows_a->size(); ++i) {
    ASSERT_EQ((*rows_a)[i].Compare((*rows_b)[i]), 0);
  }
}

TEST_F(TpchGenTest, RowAndColumnarWritersSealTheSameSplits) {
  // The columnar writer seals on the row-encoded size of what it buffered,
  // so both formats cut a table into the same splits. `customer` carries
  // nested address arrays, `orders` only scalars.
  for (const char* table : {"customer", "orders"}) {
    std::vector<Value> rows = Rows(table);
    Dfs dfs;
    auto row_file = WriteRows(&dfs, "/row", rows, /*target_split_bytes=*/2048,
                              SplitFormat::kRow);
    auto col_file = WriteRows(&dfs, "/col", rows, /*target_split_bytes=*/2048,
                              SplitFormat::kColumnar);
    ASSERT_TRUE(row_file.ok());
    ASSERT_TRUE(col_file.ok());
    const std::vector<Split>& row_splits = (*row_file)->splits();
    const std::vector<Split>& col_splits = (*col_file)->splits();
    ASSERT_GT(row_splits.size(), 1u) << table;
    ASSERT_EQ(col_splits.size(), row_splits.size()) << table;
    for (size_t i = 0; i < row_splits.size(); ++i) {
      EXPECT_EQ(col_splits[i].format, SplitFormat::kColumnar);
      EXPECT_EQ(col_splits[i].num_records, row_splits[i].num_records)
          << table << " split " << i;
      EXPECT_EQ(col_splits[i].logical_bytes, row_splits[i].num_bytes())
          << table << " split " << i;
    }
  }
}

TEST_F(TpchGenTest, QueriesValidateAgainstSchema) {
  for (const NamedQuery& nq : MakeAllPaperQueries()) {
    EXPECT_TRUE(ValidateJoinBlock(nq.query.join_block).ok()) << nq.name;
    // The optimizer plans every query, so no join graph needs a cartesian
    // product.
    OptJoinGraph graph;
    for (const TableRef& ref : nq.query.join_block.tables) {
      TableStats stats;
      stats.cardinality = 1000;
      stats.avg_record_size = 100;
      graph.relations.push_back({ref.alias, stats});
    }
    for (const JoinEdge& e : nq.query.join_block.edges) {
      graph.edges.push_back(
          {e.left_alias, e.left_column, e.right_alias, e.right_column});
    }
    auto plan = JoinOptimizer(CostModelParams()).Optimize(graph);
    EXPECT_TRUE(plan.ok()) << nq.name << ": " << plan.status().ToString();
    // Every referenced table must exist.
    for (const TableRef& ref : nq.query.join_block.tables) {
      EXPECT_TRUE(catalog_.Lookup(ref.table).ok())
          << nq.name << ": " << ref.table;
    }
  }
}

// One line per split of every generated table: checksum, record and byte
// counts, and a hash of the zone map's rendering.
std::string SplitFingerprint(const Catalog& catalog, const char* format) {
  std::string out;
  for (const std::string& table : catalog.TableNames()) {
    auto file = catalog.OpenTable(table);
    EXPECT_TRUE(file.ok()) << table;
    if (!file.ok()) continue;
    const std::vector<Split>& splits = (*file)->splits();
    for (size_t i = 0; i < splits.size(); ++i) {
      const Split& split = splits[i];
      std::string zones = "none";
      if (split.zone_map != nullptr) {
        const columnar::ZoneMap& map = *split.zone_map;
        zones = StrFormat("%llu/%d", (unsigned long long)map.num_rows(),
                          map.trackable() ? 1 : 0);
        for (size_t c = 0; c < map.num_columns(); ++c) {
          Result<columnar::ColumnZone> decoded = map.DecodeZone(c);
          EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
          if (!decoded.ok()) continue;
          const columnar::ColumnZone& zone = *decoded;
          zones += StrFormat(
              ";%s[%s,%s]%llu%d%d", zone.name.c_str(),
              zone.min_value.ToString().c_str(),
              zone.max_value.ToString().c_str(),
              (unsigned long long)zone.non_null_rows,
              zone.has_null_or_absent ? 1 : 0, zone.has_nan ? 1 : 0);
        }
      }
      out += StrFormat("%s %s %zu crc=%08x records=%llu bytes=%llu "
                       "logical=%llu zone=%016llx\n",
                       format, table.c_str(), i, split.crc32c,
                       (unsigned long long)split.num_records,
                       (unsigned long long)split.num_bytes(),
                       (unsigned long long)split.logical_bytes,
                       (unsigned long long)HashBytes(zones, 0));
    }
  }
  return out;
}

TEST(DatagenGoldenTest, SplitsMatchGolden) {
  // Pins generation byte for byte in both formats: the same rows in the
  // same RNG order, cut into the same splits with the same zone maps.
  std::string fingerprint;
  for (const char* columnar : {"0", "1"}) {
    ScopedEnv env({{"DYNO_COLUMNAR", std::string(columnar)}});
    Dfs dfs;
    Catalog catalog(&dfs);
    TpchConfig tpch;
    tpch.scale = 0.001;
    tpch.split_bytes = 8 * 1024;
    ASSERT_TRUE(GenerateTpch(&catalog, tpch).ok());
    RestaurantConfig restaurant;
    restaurant.num_restaurants = 300;
    restaurant.num_reviews = 600;
    restaurant.num_tweets = 600;
    restaurant.split_bytes = 4 * 1024;
    ASSERT_TRUE(GenerateRestaurantData(&catalog, restaurant).ok());
    fingerprint += SplitFingerprint(
        catalog, columnar[0] == '1' ? "columnar" : "row");
  }
  CompareWithGolden("tpch_splits.txt", fingerprint);
}

TEST(HashFilterUdfTest, SelectivityApproximatelyHonored) {
  ExprPtr udf = MakeHashFilterUdf("test_udf", {"id"}, 0.25, 10.0);
  int kept = 0;
  for (int i = 0; i < 20000; ++i) {
    Value row = MakeRow({{"id", Value::Int(i)}});
    auto v = udf->Eval(row);
    ASSERT_TRUE(v.ok());
    if (v->bool_value()) ++kept;
  }
  EXPECT_NEAR(kept / 20000.0, 0.25, 0.02);
}

TEST(HashFilterUdfTest, DeterministicAndSaltedByName) {
  ExprPtr a1 = MakeHashFilterUdf("alpha", {"id"}, 0.5, 1.0);
  ExprPtr a2 = MakeHashFilterUdf("alpha", {"id"}, 0.5, 1.0);
  ExprPtr b = MakeHashFilterUdf("beta", {"id"}, 0.5, 1.0);
  int differs = 0;
  for (int i = 0; i < 1000; ++i) {
    Value row = MakeRow({{"id", Value::Int(i)}});
    EXPECT_EQ(a1->Eval(row)->bool_value(), a2->Eval(row)->bool_value());
    if (a1->Eval(row)->bool_value() != b->Eval(row)->bool_value()) ++differs;
  }
  EXPECT_GT(differs, 100) << "different names must filter differently";
}

TEST(RestaurantTest, CorrelationZipImpliesState) {
  Dfs dfs;
  Catalog catalog(&dfs);
  RestaurantConfig config;
  config.num_restaurants = 1000;
  config.num_reviews = 100;
  config.num_tweets = 100;
  ASSERT_TRUE(GenerateRestaurantData(&catalog, config).ok());
  auto file = catalog.OpenTable("restaurant");
  ASSERT_TRUE(file.ok());
  auto rows = ReadAllRows(**file);
  ASSERT_TRUE(rows.ok());
  int palo_alto = 0;
  for (const Value& row : *rows) {
    const Value& primary = row.FindField("rs_addr")->array()[0];
    if (primary.FindField("zip")->int_value() == 94301) {
      ++palo_alto;
      EXPECT_EQ(primary.FindField("state")->string_value(), "CA")
          << "zip 94301 must imply CA";
    }
  }
  EXPECT_GT(palo_alto, 30);
}

}  // namespace
}  // namespace dyno
