#ifndef DYNO_TPCH_QUERIES_H_
#define DYNO_TPCH_QUERIES_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "lang/query.h"

namespace dyno {

/// Deterministic opaque filter UDF: keeps a row iff the combined hash of
/// `columns` (salted with `name`) falls below `selectivity`. To the
/// optimizer it is a black box (ContainsUdf() == true, no column info); to
/// the runtime it is a stable pseudo-random filter with exactly the
/// requested selectivity — the stand-in for the paper's sentiment-analysis
/// and filtering UDFs.
ExprPtr MakeHashFilterUdf(std::string name, std::vector<std::string> columns,
                          double selectivity, double cpu_cost);

/// The paper's evaluation queries (§6.1): the TPC-H queries with at least
/// four joined relations, with Q8 and Q9 modified exactly as described —
/// Q8' adds a UDF over the orders⋈customer result plus two correlated
/// predicates on orders; Q9' adds filtering UDFs on the dimension tables
/// (selectivity adjustable, swept in Fig. 6). Queries are join blocks;
/// grouping/ordering is orthogonal to the optimizer and omitted here.

/// Q2: part ⋈ partsupp ⋈ supplier ⋈ nation ⋈ region, filters on p_size,
/// p_type and r_name. Benefits from bushy plans.
Query MakeTpchQ2();

/// Q7: supplier ⋈ lineitem ⋈ orders ⋈ customer ⋈ nation1 ⋈ nation2,
/// nation filters FRANCE/GERMANY plus a shipdate range.
Query MakeTpchQ7();

/// Q8': 8 relations (7-way join). `udf_selectivity` controls the non-local
/// UDF applied to the orders⋈customer result.
Query MakeTpchQ8Prime(double udf_selectivity = 0.2);

/// Q9': star join around lineitem with filtering UDFs on part, supplier,
/// partsupp and orders (`dim_udf_selectivity` each) and a non-local UDF on
/// the orders⋈lineitem result (`ol_udf_selectivity`).
Query MakeTpchQ9Prime(double dim_udf_selectivity = 0.01,
                      double ol_udf_selectivity = 0.5);

/// Q10: customer ⋈ orders ⋈ lineitem ⋈ nation with a quarter-long
/// order-date window and l_returnflag = 'R'. The left-deep plan is already
/// near-optimal here (Fig. 7).
Query MakeTpchQ10();

}  // namespace dyno

#endif  // DYNO_TPCH_QUERIES_H_
