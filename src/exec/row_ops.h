#ifndef DYNO_EXEC_ROW_OPS_H_
#define DYNO_EXEC_ROW_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "json/value.h"

namespace dyno {

/// Batch-at-a-time variant: one keep byte per row, bit-identical to calling
/// EvalFilter row-by-row. `column <op> literal` conjuncts run as vectorized
/// selection-cascade compare loops (columnar::EvalFilterOverRows); client-
/// side callers (broadcast build, result checks) use this so the row path
/// stays available as the oracle it is tested against.
Result<std::vector<uint8_t>> FilterKeepMask(const ExprPtr& filter,
                                            const std::vector<Value>& rows);

/// Extracts the join key of `row` over `columns` as an encoded string
/// (usable as a hash map key without collision concerns). Missing columns
/// contribute nulls.
std::string EncodeJoinKey(const Value& row, const std::vector<std::string>& columns);

/// Join key as a Value (an array), used as the shuffle key of repartition
/// joins so the simulator sorts/groups on it.
Value JoinKeyValue(const Value& row, const std::vector<std::string>& columns);

/// Concatenates the fields of two joined rows. Column names are unique
/// across a query's tables (TPC-H prefixes), so the merge is a plain append;
/// on a (pathological) duplicate the left side wins.
Value MergeRows(const Value& left, const Value& right);

/// Projects `row` onto `columns` (order preserved, missing columns dropped).
Value ProjectRow(const Value& row, const std::vector<std::string>& columns);

}  // namespace dyno

#endif  // DYNO_EXEC_ROW_OPS_H_
