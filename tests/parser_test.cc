#include "lang/parser.h"

#include <gtest/gtest.h>

#include "tpch/queries.h"

namespace dyno {
namespace {

TEST(ParserTest, MinimalSelectStar) {
  auto q = ParseQuery("SELECT * FROM orders o");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->join_block.tables.size(), 1u);
  EXPECT_EQ(q->join_block.tables[0].table, "orders");
  EXPECT_EQ(q->join_block.tables[0].alias, "o");
  EXPECT_TRUE(q->join_block.output_columns.empty());
  EXPECT_FALSE(q->group_by.has_value());
}

TEST(ParserTest, DefaultAliasIsTableName) {
  auto q = ParseQuery("SELECT * FROM orders WHERE orders.o_custkey = 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->join_block.tables[0].alias, "orders");
  ASSERT_EQ(q->join_block.predicates.size(), 1u);
  EXPECT_EQ(q->join_block.predicates[0].aliases,
            std::vector<std::string>{"orders"});
}

TEST(ParserTest, JoinEdgesAndLocalPredicates) {
  auto q = ParseQuery(
      "SELECT c_name, o_totalprice FROM customer c, orders o "
      "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000.5 "
      "AND c.c_mktsegment = 'BUILDING'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->join_block.edges.size(), 1u);
  EXPECT_EQ(q->join_block.edges[0].left_alias, "c");
  EXPECT_EQ(q->join_block.edges[0].left_column, "c_custkey");
  EXPECT_EQ(q->join_block.edges[0].right_alias, "o");
  ASSERT_EQ(q->join_block.predicates.size(), 2u);
  EXPECT_TRUE(q->join_block.predicates[0].IsLocal());
  EXPECT_EQ(q->join_block.predicates[0].aliases[0], "o");
  EXPECT_EQ(q->join_block.predicates[1].aliases[0], "c");
  EXPECT_EQ(q->join_block.output_columns,
            (std::vector<std::string>{"c_name", "o_totalprice"}));
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  auto q = ParseQuery(
      "select * from customer c, orders o where c.c_custkey = o.o_custkey");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->join_block.edges.size(), 1u);
}

TEST(ParserTest, NestedPathPredicate) {
  auto q = ParseQuery(
      "SELECT rs_name FROM restaurant rs WHERE rs.rs_addr[0].zip = 94301");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->join_block.predicates.size(), 1u);
  EXPECT_EQ(q->join_block.predicates[0].expr->ToString(),
            "(rs_addr[0].zip = 94301)");
}

TEST(ParserTest, CrossAliasNonEqualityStaysPredicate) {
  auto q = ParseQuery(
      "SELECT * FROM a x, b y WHERE x.k = y.k AND x.v < y.w");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->join_block.edges.size(), 1u);
  ASSERT_EQ(q->join_block.predicates.size(), 1u);
  EXPECT_EQ(q->join_block.predicates[0].aliases.size(), 2u)
      << "x.v < y.w is a non-local predicate, not a join edge";
}

TEST(ParserTest, UdfCallsResolveThroughRegistry) {
  UdfRegistry registry;
  registry["SENTANALYSIS"] = [](const std::vector<std::string>& cols) {
    return MakeHashFilterUdf("sentanalysis", cols, 0.3, 10.0);
  };
  registry["CHECKID"] = [](const std::vector<std::string>& cols) {
    return MakeHashFilterUdf("checkid", cols, 0.7, 10.0);
  };
  auto q = ParseQuery(
      "SELECT rs_name FROM restaurant rs, review rv, tweet t "
      "WHERE rs.rs_id = rv.rv_rsid AND rv.rv_tid = t.t_id "
      "AND sentanalysis(rv.rv_id) AND checkid(rv.rv_id, t.t_id)",
      registry);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->join_block.predicates.size(), 2u);
  EXPECT_TRUE(q->join_block.predicates[0].IsLocal());
  EXPECT_EQ(q->join_block.predicates[1].aliases.size(), 2u)
      << "checkid(rv, t) must be non-local";
}

TEST(ParserTest, UnknownUdfRejected) {
  auto q = ParseQuery("SELECT * FROM t WHERE mystery(t.x)");
  EXPECT_FALSE(q.ok());
}

TEST(ParserTest, GroupByWithAggregates) {
  auto q = ParseQuery(
      "SELECT n_name, COUNT(*) AS cnt, SUM(l_extendedprice) AS revenue, "
      "AVG(l_discount) AS avg_disc "
      "FROM lineitem l, nation n WHERE l.l_suppkey = n.n_nationkey "
      "GROUP BY n_name ORDER BY revenue DESC LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->group_by.has_value());
  EXPECT_EQ(q->group_by->keys, std::vector<std::string>{"n_name"});
  ASSERT_EQ(q->group_by->aggregates.size(), 3u);
  EXPECT_EQ(q->group_by->aggregates[0].kind, Aggregate::Kind::kCount);
  EXPECT_EQ(q->group_by->aggregates[1].output_name, "revenue");
  ASSERT_TRUE(q->order_by.has_value());
  EXPECT_TRUE(q->order_by->keys[0].second) << "DESC";
  EXPECT_EQ(q->order_by->limit, 10);
  // Join output projected to grouping inputs.
  EXPECT_EQ(q->join_block.output_columns,
            (std::vector<std::string>{"l_discount", "l_extendedprice",
                                      "n_name"}));
}

TEST(ParserTest, AggregatesWithoutGroupByRejected) {
  auto q = ParseQuery("SELECT COUNT(*) AS n FROM t");
  EXPECT_FALSE(q.ok());
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto q = ParseQuery("SELECT * FROM t WHERE t.x ==");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("offset"), std::string::npos);

  EXPECT_FALSE(ParseQuery("SELECT").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE x = 1").ok())
      << "unqualified WHERE reference";
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE z.x = 1").ok())
      << "unknown alias";
  EXPECT_FALSE(ParseQuery("SELECT * FROM t LIMIT abc").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE t.s = 'unterminated").ok());
}

TEST(ParserTest, ParsedQ10EquivalentValidates) {
  // The paper's Q10 written as SQL parses into a valid 4-way join block.
  auto q = ParseQuery(
      "SELECT c_custkey, c_name, c_acctbal, n_name, l_extendedprice, "
      "l_discount "
      "FROM customer c, orders o, lineitem l, nation n "
      "WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
      "AND c.c_nationkey = n.n_nationkey "
      "AND o.o_orderdate >= 19931001 AND o.o_orderdate < 19940101 "
      "AND l.l_returnflag = 'R'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->join_block.tables.size(), 4u);
  EXPECT_EQ(q->join_block.edges.size(), 3u);
  // Structure matches the hand-built Q10.
  Query reference = MakeTpchQ10();
  EXPECT_EQ(q->join_block.edges.size(), reference.join_block.edges.size());
  EXPECT_EQ(q->join_block.predicates.size() + 1,  // date range split in two
            reference.join_block.predicates.size() + 2);
}

}  // namespace
}  // namespace dyno
