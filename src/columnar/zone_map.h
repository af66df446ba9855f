#ifndef DYNO_COLUMNAR_ZONE_MAP_H_
#define DYNO_COLUMNAR_ZONE_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "json/value.h"

namespace dyno::columnar {

/// Min/max synopsis of one top-level column within one split, decoded
/// from its ZoneMap. The range covers the *non-null* values only (min/max
/// are meaningless otherwise); `has_null_or_absent` records whether any row
/// evaluates the column to null, which matters because `NOT (col < lit)` is
/// TRUE on such rows under the engine's SQL-ish null semantics (comparisons
/// on null are false, NOT flips that to true).
struct ColumnZone {
  std::string name;
  Value min_value;  ///< Null when `non_null_rows` is 0.
  Value max_value;
  uint64_t non_null_rows = 0;
  bool has_null_or_absent = false;
  /// A value holding a NaN was seen. Value::Compare orders NaN equal to
  /// every number, so min/max no longer bound the column: the zone answers
  /// "unknown" to every comparison.
  bool has_nan = false;
};

/// Per-split zone map: one zone per top-level column seen in the split, in
/// first-seen order, stamped by the table writer as rows are appended. A
/// zone map is only `trackable()` when every row was a plain struct with at
/// most kMaxColumns distinct fields — otherwise pruning is disabled for the
/// split (never unsound, just not helpful).
///
/// Held compactly, like file metadata: the column names are one list shared
/// with the neighbouring splits that have the same columns in the same
/// order, every min/max bound is its Value encoding inside one string, and
/// each column keeps one fixed record. A zone is decoded only when asked
/// for, so pruning decodes just the column a comparison names.
class ZoneMap {
 public:
  static constexpr size_t kMaxColumns = 64;

  uint64_t num_rows() const { return num_rows_; }
  bool trackable() const { return trackable_; }
  size_t num_columns() const { return columns_.size(); }

  /// The zone of column `index` (< num_columns()). DataLoss when one of its
  /// bounds does not decode.
  Result<ColumnZone> DecodeZone(size_t index) const;

  /// The zone for `name`: NotFound when no row of the split has the column
  /// (in which case every comparison against it is false), DataLoss when
  /// one of its bounds does not decode.
  Result<ColumnZone> FindColumn(std::string_view name) const;

 private:
  friend class ZoneMapBuilder;

  /// One column's fixed record. Its min bound is encoded at
  /// bounds_[min_offset, max_offset) and its max bound from max_offset to
  /// the next column's min_offset (or the end of bounds_); both are empty
  /// when non_null_rows is 0.
  struct Column {
    uint64_t non_null_rows = 0;
    uint32_t min_offset = 0;
    uint32_t max_offset = 0;
    bool has_null_or_absent = false;
    bool has_nan = false;
  };

  uint64_t num_rows_ = 0;
  bool trackable_ = true;
  /// Column names, index-aligned with columns_; null when there are none.
  std::shared_ptr<const std::vector<std::string>> names_;
  std::string bounds_;
  std::vector<Column> columns_;
};

/// Streaming builder: Observe() every row of a split, then Build(). The
/// fold keeps decoded Values; bounds are encoded once, at Build().
class ZoneMapBuilder {
 public:
  void Observe(const Value& row);
  /// Seals the observed rows into a map and resets the builder for the
  /// next split.
  ZoneMap Build();

 private:
  uint64_t num_rows_ = 0;
  bool trackable_ = true;
  std::vector<ColumnZone> zones_;  ///< The fold, in first-seen order.
  /// The names of the last map built, handed on while they repeat.
  std::shared_ptr<const std::vector<std::string>> names_;
  std::string bounds_;  ///< Reused encoding buffer.
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
