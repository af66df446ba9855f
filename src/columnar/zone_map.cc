#include "columnar/zone_map.h"

#include <cmath>
#include <utility>

namespace dyno::columnar {

namespace {

/// True when `v` is, or (inside an array or struct) holds, a NaN double.
bool ContainsNaN(const Value& v) {
  switch (v.type()) {
    case Value::Type::kDouble:
      return std::isnan(v.double_value());
    case Value::Type::kArray:
      for (const Value& e : v.array()) {
        if (ContainsNaN(e)) return true;
      }
      return false;
    case Value::Type::kStruct:
      for (const auto& [name, field] : v.fields()) {
        if (ContainsNaN(field)) return true;
      }
      return false;
    default:
      return false;
  }
}

/// Decodes the one bound encoded at bounds[begin, end).
Result<Value> DecodeBound(std::string_view bounds, size_t begin, size_t end) {
  if (begin > end || end > bounds.size()) {
    return Status::DataLoss("zone bound lies outside the zone map");
  }
  const std::string_view bytes = bounds.substr(begin, end - begin);
  size_t offset = 0;
  Result<Value> bound = Value::Decode(bytes, &offset);
  if (!bound.ok()) {
    return Status::DataLoss("zone bound does not decode: " +
                            bound.status().ToString());
  }
  if (offset != bytes.size()) {
    return Status::DataLoss("zone bound holds bytes past its value");
  }
  return bound;
}

}  // namespace

Result<ColumnZone> ZoneMap::DecodeZone(size_t index) const {
  const Column& column = columns_[index];
  ColumnZone zone;
  zone.name = (*names_)[index];
  zone.non_null_rows = column.non_null_rows;
  zone.has_null_or_absent = column.has_null_or_absent;
  zone.has_nan = column.has_nan;
  if (column.non_null_rows > 0) {
    const size_t end = index + 1 < columns_.size()
                           ? columns_[index + 1].min_offset
                           : bounds_.size();
    DYNO_ASSIGN_OR_RETURN(
        zone.min_value,
        DecodeBound(bounds_, column.min_offset, column.max_offset));
    DYNO_ASSIGN_OR_RETURN(zone.max_value,
                          DecodeBound(bounds_, column.max_offset, end));
  }
  return zone;
}

Result<ColumnZone> ZoneMap::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if ((*names_)[i] == name) return DecodeZone(i);
  }
  return Status::NotFound("no zone for column " + std::string(name));
}

void ZoneMapBuilder::Observe(const Value& row) {
  ++num_rows_;
  if (!trackable_) return;
  if (row.type() != Value::Type::kStruct) {
    trackable_ = false;
    zones_.clear();
    return;
  }
  for (const auto& [name, field] : row.fields()) {
    ColumnZone* zone = nullptr;
    bool duplicate = false;
    for (ColumnZone& z : zones_) {
      if (z.name == name) {
        zone = &z;
        break;
      }
    }
    // Only the first occurrence of a name counts (FindField semantics).
    // Linear scans are fine at kMaxColumns scale.
    if (zone != nullptr) {
      const StructFields& fields = row.fields();
      for (const auto& [prior_name, prior_field] : fields) {
        if (&prior_field == &field) break;
        if (prior_name == name) {
          duplicate = true;
          break;
        }
      }
    }
    if (duplicate) continue;
    if (zone == nullptr) {
      if (zones_.size() >= ZoneMap::kMaxColumns) {
        trackable_ = false;
        zones_.clear();
        return;
      }
      zones_.push_back(ColumnZone{});
      zone = &zones_.back();
      zone->name = name;
      // The column was absent in every earlier row of the split.
      zone->has_null_or_absent = num_rows_ > 1;
    }
    if (field.is_null()) {
      zone->has_null_or_absent = true;
    } else {
      if (ContainsNaN(field)) zone->has_nan = true;
      if (zone->non_null_rows == 0) {
        zone->min_value = field;
        zone->max_value = field;
      } else {
        if (field.Compare(zone->min_value) < 0) zone->min_value = field;
        if (field.Compare(zone->max_value) > 0) zone->max_value = field;
      }
      ++zone->non_null_rows;
    }
  }
  // Columns this row does not mention evaluate to null in it.
  for (ColumnZone& zone : zones_) {
    if (zone.has_null_or_absent) continue;
    if (row.FindField(zone.name) == nullptr) zone.has_null_or_absent = true;
  }
}

ZoneMap ZoneMapBuilder::Build() {
  ZoneMap out;
  out.num_rows_ = num_rows_;
  out.trackable_ = trackable_;
  if (!zones_.empty()) {
    bool same_names = names_ != nullptr && names_->size() == zones_.size();
    for (size_t i = 0; same_names && i < zones_.size(); ++i) {
      same_names = (*names_)[i] == zones_[i].name;
    }
    if (!same_names) {
      std::vector<std::string> names;
      names.reserve(zones_.size());
      for (const ColumnZone& zone : zones_) names.push_back(zone.name);
      names_ = std::make_shared<const std::vector<std::string>>(
          std::move(names));
    }
    out.names_ = names_;
    out.columns_.reserve(zones_.size());
    bounds_.clear();
    for (const ColumnZone& zone : zones_) {
      ZoneMap::Column& column = out.columns_.emplace_back();
      column.non_null_rows = zone.non_null_rows;
      column.has_null_or_absent = zone.has_null_or_absent;
      column.has_nan = zone.has_nan;
      column.min_offset = static_cast<uint32_t>(bounds_.size());
      if (zone.non_null_rows > 0) zone.min_value.EncodeTo(&bounds_);
      column.max_offset = static_cast<uint32_t>(bounds_.size());
      if (zone.non_null_rows > 0) zone.max_value.EncodeTo(&bounds_);
    }
    // A copy, not a move: the map keeps the bounds at their exact size.
    out.bounds_ = std::string(bounds_);
  }
  num_rows_ = 0;
  trackable_ = true;
  zones_.clear();
  return out;
}

namespace {

/// Over-approximation of a predicate's truth set over one split: can any
/// row evaluate truthy / can any row evaluate falsy (where "falsy" covers
/// null and non-bool results — the engine's EvalFilter treats those as
/// false, and NOT maps them to true). Both flags err toward `true`.
struct TriState {
  bool can_true = true;
  bool can_false = true;
};

TriState Unknown() { return TriState{true, true}; }

TriState EvalComparison(const ZoneMap& zm, const std::string& column,
                        Expr::CompareOp op, const Value& literal) {
  if (literal.is_null()) {
    // `col <op> null` is false for every row.
    return TriState{false, true};
  }
  Result<ColumnZone> zone = zm.FindColumn(column);
  if (!zone.ok()) {
    // No row of the split has the column: it evaluates to null everywhere,
    // so the comparison is false everywhere. A bound that does not decode
    // proves nothing.
    if (zone.status().code() == StatusCode::kNotFound) {
      return TriState{false, true};
    }
    return Unknown();
  }
  if (zone->non_null_rows == 0) return TriState{false, true};
  // NaN compares equal to every number, so neither a NaN in the column nor
  // a NaN literal leaves min/max a bound.
  if (zone->has_nan || ContainsNaN(literal)) return Unknown();

  // All non-null values v of the column satisfy min <= v <= max under the
  // total value order, so range tests against the literal bound existence.
  const int cmp_min = zone->min_value.Compare(literal);
  const int cmp_max = zone->max_value.Compare(literal);
  const bool single_point = cmp_min == 0 && cmp_max == 0;
  TriState t;
  switch (op) {
    case Expr::CompareOp::kEq:
      t.can_true = cmp_min <= 0 && cmp_max >= 0;
      t.can_false = !single_point;
      break;
    case Expr::CompareOp::kNe:
      t.can_true = !single_point;
      t.can_false = cmp_min <= 0 && cmp_max >= 0;
      break;
    case Expr::CompareOp::kLt:
      t.can_true = cmp_min < 0;
      t.can_false = cmp_max >= 0;
      break;
    case Expr::CompareOp::kLe:
      t.can_true = cmp_min <= 0;
      t.can_false = cmp_max > 0;
      break;
    case Expr::CompareOp::kGt:
      t.can_true = cmp_max > 0;
      t.can_false = cmp_min <= 0;
      break;
    case Expr::CompareOp::kGe:
      t.can_true = cmp_max >= 0;
      t.can_false = cmp_min < 0;
      break;
  }
  // Rows where the column is null/absent evaluate the comparison to false.
  if (zone->has_null_or_absent) t.can_false = true;
  return t;
}

TriState EvalPrune(const ZoneMap& zm, const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral: {
      Result<Value> v = e.Eval(Value::Null());
      if (!v.ok()) return Unknown();
      bool truthy = v->type() == Value::Type::kBool && v->bool_value();
      return TriState{truthy, !truthy};
    }
    case Expr::Kind::kCompare: {
      std::string column;
      Expr::CompareOp op;
      Value literal;
      if (e.AsSimpleComparison(&column, &op, &literal)) {
        return EvalComparison(zm, column, op, literal);
      }
      // Nested paths, column-to-column, arithmetic sides, UDF sides: the
      // zone map has nothing to say.
      return Unknown();
    }
    case Expr::Kind::kLogical: {
      Expr::LogicalOp op;
      const Expr* lhs = nullptr;
      const Expr* rhs = nullptr;
      if (!e.AsLogical(&op, &lhs, &rhs)) return Unknown();
      TriState l = EvalPrune(zm, *lhs);
      switch (op) {
        case Expr::LogicalOp::kNot:
          return TriState{l.can_false, l.can_true};
        case Expr::LogicalOp::kAnd: {
          TriState r = EvalPrune(zm, *rhs);
          return TriState{l.can_true && r.can_true,
                          l.can_false || r.can_false};
        }
        case Expr::LogicalOp::kOr: {
          TriState r = EvalPrune(zm, *rhs);
          return TriState{l.can_true || r.can_true,
                          l.can_false && r.can_false};
        }
      }
      return Unknown();
    }
    case Expr::Kind::kPath:
    case Expr::Kind::kArith:
    case Expr::Kind::kUdf:
      // Opaque to the zone map. In particular a UDF's selectivity is
      // invisible by design (the paper's information asymmetry), so a UDF
      // anywhere in a factor keeps every split.
      return Unknown();
  }
  return Unknown();
}

}  // namespace

bool ZoneMapMayMatch(const ZoneMap& zone_map, const Expr& filter) {
  if (!zone_map.trackable() || zone_map.num_rows() == 0) return true;
  return EvalPrune(zone_map, filter).can_true;
}

}  // namespace dyno::columnar
