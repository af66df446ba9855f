#ifndef DYNO_LANG_QUERY_H_
#define DYNO_LANG_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"

namespace dyno {

/// A base-relation occurrence in a query. Column names are assumed unique
/// across the tables of a query (TPC-H's `o_`/`l_`/`c_` prefixes), so joined
/// rows are flat field merges and expressions reference columns directly.
struct TableRef {
  std::string table;  ///< Catalog table name.
  std::string alias;  ///< Unique within the query.
};

/// A filter (possibly containing UDFs). `aliases` lists the table aliases
/// the expression reads: exactly one makes it a *local* predicate that the
/// rewriter pushes onto the scan; two or more make it non-local — it is
/// applied on the first join result covering all of its aliases (the Q8'
/// UDF on orders⋈customer).
struct Predicate {
  ExprPtr expr;
  std::vector<std::string> aliases;

  bool IsLocal() const { return aliases.size() == 1; }
};

/// An equi-join edge `left_alias.left_column = right_alias.right_column`.
struct JoinEdge {
  std::string left_alias;
  std::string left_column;
  std::string right_alias;
  std::string right_column;
};

/// An n-way join query block: scans + filters + equi-joins, the unit the
/// cost-based optimizer and DYNOPT operate on. Blocks are separated from
/// each other by aggregation/ordering operators (paper §3).
struct JoinBlock {
  std::vector<TableRef> tables;  ///< In FROM-clause order.
  std::vector<JoinEdge> edges;
  std::vector<Predicate> predicates;
  /// Output projection; empty keeps all columns.
  std::vector<std::string> output_columns;
};

/// Post-join aggregate function.
struct Aggregate {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind = Kind::kCount;
  std::string input_column;  ///< Ignored for kCount.
  std::string output_name;
};

/// GROUP BY over the join-block output.
struct GroupBySpec {
  std::vector<std::string> keys;
  std::vector<Aggregate> aggregates;
};

/// ORDER BY over the final output. `descending` per key.
struct OrderBySpec {
  std::vector<std::pair<std::string, bool>> keys;
  int64_t limit = -1;  ///< -1 = no limit.
};

/// A full query: one join block plus optional grouping/ordering, the shape
/// of every workload in the paper's evaluation. (Grouping and ordering are
/// inserted by the compiler after the join block and are not enumerated by
/// the optimizer, §5.1.)
struct Query {
  JoinBlock join_block;
  std::optional<GroupBySpec> group_by;
  std::optional<OrderBySpec> order_by;
};

/// One scan + its pushed-down local predicates — the unit of pilot runs.
struct LeafExpr {
  std::string alias;
  std::string table;
  /// Conjunction of local predicates (null = none).
  ExprPtr filter;
  /// Columns of this leaf that appear in join conditions (the attributes
  /// statistics are collected for).
  std::vector<std::string> join_columns;
};

/// Validates structural invariants: unique aliases, edges referencing known
/// aliases, predicates referencing known aliases.
Status ValidateJoinBlock(const JoinBlock& block);

/// Performs predicate push-down: returns the leaf expression of each table
/// (its scan plus the conjunction of its local predicates) and, via
/// `non_local`, the predicates that could not be pushed.
std::vector<LeafExpr> ExtractLeafExprs(const JoinBlock& block,
                                       std::vector<Predicate>* non_local);

/// Deterministic signature of a leaf expression, the StatsStore key for
/// statistics reuse (§4.1): "table|<filter rendering>".
std::string LeafSignature(const LeafExpr& leaf);

}  // namespace dyno

#endif  // DYNO_LANG_QUERY_H_
