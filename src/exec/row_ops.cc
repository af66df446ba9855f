#include "exec/row_ops.h"

#include <set>

#include "columnar/batch_eval.h"

namespace dyno {

Result<std::vector<uint8_t>> FilterKeepMask(const ExprPtr& filter,
                                            const std::vector<Value>& rows) {
  if (filter == nullptr) return std::vector<uint8_t>(rows.size(), 1);
  DYNO_ASSIGN_OR_RETURN(columnar::BatchFilterResult result,
                        columnar::EvalFilterOverRows(filter, rows));
  return std::move(result.keep);
}

std::string EncodeJoinKey(const Value& row,
                          const std::vector<std::string>& columns) {
  std::string out;
  for (const std::string& col : columns) {
    const Value* v = row.FindField(col);
    if (v == nullptr) {
      Value::Null().EncodeTo(&out);
    } else {
      v->EncodeTo(&out);
    }
  }
  return out;
}

Value JoinKeyValue(const Value& row,
                   const std::vector<std::string>& columns) {
  ArrayElements elems;
  elems.reserve(columns.size());
  for (const std::string& col : columns) {
    const Value* v = row.FindField(col);
    elems.push_back(v == nullptr ? Value::Null() : *v);
  }
  return Value::Array(std::move(elems));
}

Value MergeRows(const Value& left, const Value& right) {
  StructFields merged = left.fields();
  std::set<std::string> seen;
  for (const auto& [name, value] : merged) seen.insert(name);
  for (const auto& [name, value] : right.fields()) {
    if (seen.insert(name).second) merged.emplace_back(name, value);
  }
  return Value::Struct(std::move(merged));
}

Value ProjectRow(const Value& row, const std::vector<std::string>& columns) {
  StructFields out;
  out.reserve(columns.size());
  for (const std::string& col : columns) {
    const Value* v = row.FindField(col);
    if (v != nullptr) out.emplace_back(col, *v);
  }
  return Value::Struct(std::move(out));
}

}  // namespace dyno
