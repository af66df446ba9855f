#ifndef DYNO_COLUMNAR_ZONE_MAP_H_
#define DYNO_COLUMNAR_ZONE_MAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "expr/expr.h"
#include "json/value.h"

namespace dyno::columnar {

/// Min/max synopsis of one top-level column within one split. The range
/// covers the *non-null* values only (min/max are meaningless otherwise);
/// `has_null_or_absent` records whether any row evaluates the column to
/// null, which matters because `NOT (col < lit)` is TRUE on such rows under
/// the engine's SQL-ish null semantics (comparisons on null are false, NOT
/// flips that to true).
struct ColumnZone {
  std::string name;
  Value min_value;
  Value max_value;
  uint64_t non_null_rows = 0;
  bool has_null_or_absent = false;
  /// A value holding a NaN was seen. Value::Compare orders NaN equal to
  /// every number, so min/max no longer bound the column: the zone answers
  /// "unknown" to every comparison.
  bool has_nan = false;
};

/// Per-split zone map: one ColumnZone per top-level column seen in the
/// split, stamped by the table writer as rows are appended. A zone map is
/// only `trackable()` when every row was a plain struct with at most
/// kMaxColumns distinct fields — otherwise pruning is disabled for the
/// split (never unsound, just not helpful).
class ZoneMap {
 public:
  static constexpr size_t kMaxColumns = 64;

  uint64_t num_rows() const { return num_rows_; }
  bool trackable() const { return trackable_; }
  const std::vector<ColumnZone>& zones() const { return zones_; }

  /// The zone for `name`, or nullptr when no row of the split has the
  /// column (in which case every comparison against it is false).
  const ColumnZone* FindColumn(std::string_view name) const;

 private:
  friend class ZoneMapBuilder;
  uint64_t num_rows_ = 0;
  bool trackable_ = true;
  std::vector<ColumnZone> zones_;
};

/// Streaming builder: Observe() every row of a split, then Build().
class ZoneMapBuilder {
 public:
  void Observe(const Value& row);
  ZoneMap Build();

 private:
  ZoneMap map_;
};

/// Conservative split-pruning test: false only when NO row of a split
/// described by `zone_map` can satisfy `filter` (so the split may be
/// skipped without reading it); true whenever the zone map cannot prove
/// that. Sound for the engine's evaluation semantics: comparisons on null
/// are false, AND/OR/NOT treat non-bool results as false, and opaque
/// sub-expressions (UDFs, nested paths, arithmetic, cross-column
/// comparisons) are never reasoned about — any factor containing one keeps
/// the split.
bool ZoneMapMayMatch(const ZoneMap& zone_map, const Expr& filter);

}  // namespace dyno::columnar

#endif  // DYNO_COLUMNAR_ZONE_MAP_H_
