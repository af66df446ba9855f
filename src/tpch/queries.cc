#include "tpch/queries.h"

#include <cmath>

#include "common/hash.h"
#include "tpch/dbgen.h"

namespace dyno {

ExprPtr MakeHashFilterUdf(std::string name, std::vector<std::string> columns,
                          double selectivity, double cpu_cost) {
  uint64_t salt = HashBytes(name, /*seed=*/0x7564665fULL);
  uint64_t threshold =
      selectivity >= 1.0
          ? ~0ULL
          : static_cast<uint64_t>(selectivity * 18446744073709551615.0);
  auto fn = [columns, salt, threshold](const Value& row) -> Result<Value> {
    uint64_t h = salt;
    for (const std::string& col : columns) {
      const Value* v = row.FindField(col);
      h = HashCombine(h, v == nullptr ? 0x6e756c6cULL : v->Hash());
    }
    return Value::Bool(Mix64(h) <= threshold);
  };
  return MakeUdf(std::move(name), cpu_cost, std::move(fn));
}

Query MakeTpchQ2() {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"part", "p"},
              {"partsupp", "ps"},
              {"supplier", "s"},
              {"nation", "n"},
              {"region", "r"}};
  b.edges = {{"p", "p_partkey", "ps", "ps_partkey"},
             {"s", "s_suppkey", "ps", "ps_suppkey"},
             {"s", "s_nationkey", "n", "n_nationkey"},
             {"n", "n_regionkey", "r", "r_regionkey"}};
  b.predicates = {
      {Eq(Col("p_size"), LitInt(15)), {"p"}},
      {Eq(Col("p_type"), LitString("LARGE BRUSHED BRASS")), {"p"}},
      {Eq(Col("r_name"), LitString("EUROPE")), {"r"}},
  };
  b.output_columns = {"s_acctbal", "s_name", "n_name", "p_partkey",
                      "p_mfgr", "ps_supplycost"};
  return q;
}

Query MakeTpchQ7() {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"supplier", "s"}, {"lineitem", "l"}, {"orders", "o"},
              {"customer", "c"}, {"nation1", "n1"}, {"nation2", "n2"}};
  b.edges = {{"s", "s_suppkey", "l", "l_suppkey"},
             {"o", "o_orderkey", "l", "l_orderkey"},
             {"c", "c_custkey", "o", "o_custkey"},
             {"s", "s_nationkey", "n1", "n1_nationkey"},
             {"c", "c_nationkey", "n2", "n2_nationkey"}};
  b.predicates = {
      {Eq(Col("n1_name"), LitString("FRANCE")), {"n1"}},
      {Eq(Col("n2_name"), LitString("GERMANY")), {"n2"}},
      {And(Ge(Col("l_shipdate"), LitInt(19950101)),
           Le(Col("l_shipdate"), LitInt(19961231))),
       {"l"}},
  };
  b.output_columns = {"n1_name", "n2_name", "l_shipdate", "l_extendedprice",
                      "l_discount"};
  return q;
}

Query MakeTpchQ8Prime(double udf_selectivity) {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"part", "p"},     {"supplier", "s"}, {"lineitem", "l"},
              {"orders", "o"},   {"customer", "c"}, {"nation1", "n1"},
              {"nation2", "n2"}, {"region", "r"}};
  b.edges = {{"p", "p_partkey", "l", "l_partkey"},
             {"s", "s_suppkey", "l", "l_suppkey"},
             {"l", "l_orderkey", "o", "o_orderkey"},
             {"o", "o_custkey", "c", "c_custkey"},
             {"c", "c_nationkey", "n1", "n1_nationkey"},
             {"n1", "n1_regionkey", "r", "r_regionkey"},
             {"s", "s_nationkey", "n2", "n2_nationkey"}};
  b.predicates = {
      {Eq(Col("r_name"), LitString("AMERICA")), {"r"}},
      {Eq(Col("p_type"), LitString("ECONOMY ANODIZED STEEL")), {"p"}},
      {And(Ge(Col("o_orderdate"), LitInt(19950101)),
           Le(Col("o_orderdate"), LitInt(19961231))),
       {"o"}},
      // The injected correlated pair: o_clerk_group is a (soft) function of
      // o_channel, so multiplying their individual selectivities (as a
      // traditional optimizer does) underestimates by ~5x.
      {Eq(Col("o_channel"), LitString("web")), {"o"}},
      {Eq(Col("o_clerk_group"), LitInt(3)), {"o"}},
      // The paper's modification: a UDF filtering the orders⋈customer
      // join result — impossible to push down, invisible to static stats.
      {MakeHashFilterUdf("q8_oc_filter", {"o_orderkey", "c_custkey"},
                         udf_selectivity, /*cpu_cost=*/50.0),
       {"o", "c"}},
  };
  b.output_columns = {"o_orderdate", "l_extendedprice", "l_discount",
                      "n2_name"};
  return q;
}

Query MakeTpchQ9Prime(double dim_udf_selectivity, double ol_udf_selectivity) {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"part", "p"},     {"supplier", "s"}, {"lineitem", "l"},
              {"partsupp", "ps"}, {"orders", "o"},  {"nation", "n"}};
  b.edges = {{"p", "p_partkey", "l", "l_partkey"},
             {"s", "s_suppkey", "l", "l_suppkey"},
             {"ps", "ps_partkey", "l", "l_partkey"},
             {"ps", "ps_suppkey", "l", "l_suppkey"},
             {"l", "l_orderkey", "o", "o_orderkey"},
             {"s", "s_nationkey", "n", "n_nationkey"}};
  b.predicates = {
      {MakeHashFilterUdf("q9_udf_p", {"p_partkey"}, dim_udf_selectivity,
                         /*cpu_cost=*/40.0),
       {"p"}},
      {MakeHashFilterUdf("q9_udf_s", {"s_suppkey"}, dim_udf_selectivity,
                         /*cpu_cost=*/40.0),
       {"s"}},
      {MakeHashFilterUdf("q9_udf_ps", {"ps_partkey", "ps_suppkey"},
                         dim_udf_selectivity, /*cpu_cost=*/40.0),
       {"ps"}},
      {MakeHashFilterUdf("q9_udf_o", {"o_orderkey"}, dim_udf_selectivity,
                         /*cpu_cost=*/40.0),
       {"o"}},
      {MakeHashFilterUdf("q9_udf_ol", {"o_orderkey", "l_linenumber"},
                         ol_udf_selectivity, /*cpu_cost=*/30.0),
       {"o", "l"}},
  };
  b.output_columns = {"n_name", "o_orderdate", "l_extendedprice",
                      "l_discount", "ps_supplycost", "l_quantity"};
  return q;
}

Query MakeTpchQ10() {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"customer", "c"}, {"orders", "o"}, {"lineitem", "l"},
              {"nation", "n"}};
  b.edges = {{"c", "c_custkey", "o", "o_custkey"},
             {"l", "l_orderkey", "o", "o_orderkey"},
             {"c", "c_nationkey", "n", "n_nationkey"}};
  b.predicates = {
      {And(Ge(Col("o_orderdate"), LitInt(19931001)),
           Lt(Col("o_orderdate"), LitInt(19940101))),
       {"o"}},
      {Eq(Col("l_returnflag"), LitString("R")), {"l"}},
  };
  b.output_columns = {"c_custkey", "c_name", "c_acctbal", "n_name",
                      "l_extendedprice", "l_discount"};
  return q;
}

}  // namespace dyno
