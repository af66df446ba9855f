#ifndef DYNO_COLUMNAR_COLUMN_H_
#define DYNO_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "json/value.h"

namespace dyno::columnar {

/// Physical type of one column vector. Scalar columns hold their values in
/// a typed payload; kMixed falls back to whole `Value` encodings (nested
/// structs/arrays, or a column whose rows disagree on scalar type).
enum class ColumnType : uint8_t {
  kBool = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kMixed = 4,
};

/// Per-row presence of a column. JSON rows are self-describing, so "the
/// field is missing" and "the field is explicitly null" are different rows;
/// both must survive a round trip through the batch format byte-exactly.
enum class Presence : uint8_t {
  kAbsent = 0,
  kNull = 1,
  kSet = 2,
};

/// One column of a batch being built: a presence run plus the set values
/// in row order.
struct ColumnVector {
  std::string name;
  /// Presence::kAbsent/kNull/kSet per row (size == batch row count).
  std::vector<uint8_t> presence;
  /// The kSet values only, in row order. Values here are never null.
  std::vector<Value> values;
};

/// A batch of rows in columnar layout — the unit one DFS split stores when
/// the columnar data plane is on. Construction never fails: rows whose
/// field order cannot be expressed as a subsequence of a single shared
/// schema (duplicate names, reordered fields, non-struct rows) fall back to
/// an "irregular" representation holding whole row encodings, so reading
/// an encoded `FromRows(rows)` back with FrameReader is always byte-exact.
///
/// Encoded layout (all integers varint unless noted):
///   'C' 'B' '0' '1'            magic
///   u8 flags                   bit 0 = irregular fallback
///   num_rows, num_cols
///   per column: name, u8 type, num_rows presence bytes, set_count,
///               typed payload (set values in row order)
///   u32 CRC32C (LE)            over every preceding byte
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// Builds a batch from `rows` (column-regular or irregular fallback).
  static ColumnBatch FromRows(const std::vector<Value>& rows);

  /// Appends the encoded frame (including the trailing CRC) to `out`.
  void EncodeTo(std::string* out) const;

  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool irregular() const { return irregular_; }
  const std::vector<ColumnVector>& columns() const { return columns_; }

 private:
  uint64_t num_rows_ = 0;
  bool irregular_ = false;
  /// Irregular mode: whole-row values, one per row (columns_ empty).
  std::vector<Value> raw_rows_;
  std::vector<ColumnVector> columns_;
};

/// The one reader of an encoded ColumnBatch frame. Open() verifies the
/// trailing CRC before parsing a single field, then walks the frame once
/// and runs every structural and value check without building a Value:
/// CRC mismatch, truncation, trailing garbage, bad tags — every failure
/// mode is DataLoss. Once open, nothing can fail: cells and rows decode in
/// place, and only where a caller asks for them. The reader views the
/// bytes it was opened on, which must outlive it.
class FrameReader {
 public:
  static Result<FrameReader> Open(std::string_view data);

  uint64_t num_rows() const { return num_rows_; }
  bool irregular() const { return irregular_; }
  /// Regular frames: the batch's columns. Irregular frames: one kMixed
  /// pseudo-column whose cells are the whole rows.
  size_t num_columns() const { return columns_.size(); }
  std::string_view column_name(size_t column) const {
    return columns_[column].name;
  }
  Presence presence(size_t column, uint64_t row) const {
    return static_cast<Presence>(
        frame_[columns_[column].presence_offset + row]);
  }

  /// Decodes the value of `column` at `row`, which must be kSet there.
  Value Cell(size_t column, uint64_t row) const;

  /// Builds row `row` exactly as FromRows was given it: its non-absent
  /// columns in column order, in a field vector of exactly that size.
  Value Row(uint64_t row) const;

  /// Every row, in order.
  std::vector<Value> Rows() const;

 private:
  struct Column {
    std::string_view name;
    ColumnType type = ColumnType::kMixed;
    size_t presence_offset = 0;
  };

  std::string_view frame_;  ///< The frame without its CRC.
  uint64_t num_rows_ = 0;
  bool irregular_ = false;
  std::vector<Column> columns_;
  /// Frame offset of the value of column c at row r, at
  /// [c * num_rows_ + r]; meaningless where the cell is not kSet.
  std::vector<size_t> value_offsets_;
};

}  // namespace dyno::columnar

#endif  // DYNO_COLUMNAR_COLUMN_H_
