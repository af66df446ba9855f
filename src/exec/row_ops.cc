#include "exec/row_ops.h"

#include <algorithm>

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
  const StructFields& right_fields = right.fields();
  StructFields merged;
  merged.reserve(left.fields().size() + right_fields.size());
  merged.assign(left.fields().begin(), left.fields().end());
  for (const auto& field : right_fields) {
    const bool present = std::any_of(
        merged.begin(), merged.end(),
        [&field](const auto& m) { return m.first == field.first; });
    if (!present) merged.push_back(field);
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
