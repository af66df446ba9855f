#include "columnar/column.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/varint.h"

namespace dyno::columnar {

namespace {

constexpr char kMagic[4] = {'C', 'B', '0', '1'};
constexpr uint8_t kFlagIrregular = 0x01;
/// Name of the single column the irregular fallback stores rows under.
constexpr const char* kRawRowColumn = "__row";

/// Reads one varint, mapping a failed read to this codec's statuses.
Status DecodeVarint(std::string_view data, size_t* offset, uint64_t* out) {
  const size_t start = *offset;
  if (ReadVarint(data, offset, out)) return Status::OK();
  return Status::DataLoss(*offset - start < kMaxVarintBytes
                              ? "columnar batch: truncated varint"
                              : "columnar batch: malformed varint");
}

/// The narrowest ColumnType covering every set value of a column.
ColumnType PickType(const std::vector<Value>& values) {
  if (values.empty()) return ColumnType::kMixed;
  Value::Type first = values[0].type();
  for (const Value& v : values) {
    if (v.type() != first) return ColumnType::kMixed;
  }
  switch (first) {
    case Value::Type::kBool: return ColumnType::kBool;
    case Value::Type::kInt: return ColumnType::kInt;
    case Value::Type::kDouble: return ColumnType::kDouble;
    case Value::Type::kString: return ColumnType::kString;
    default: return ColumnType::kMixed;
  }
}

void EncodeTypedValue(ColumnType type, const Value& v, std::string* out) {
  switch (type) {
    case ColumnType::kBool:
      out->push_back(v.bool_value() ? 1 : 0);
      break;
    case ColumnType::kInt:
      EncodeVarint(ZigzagEncode(v.int_value()), out);
      break;
    case ColumnType::kDouble:
      EncodeDoubleLe(v.double_value(), out);
      break;
    case ColumnType::kString: {
      const std::string& s = v.string_value();
      EncodeVarint(s.size(), out);
      out->append(s);
      break;
    }
    case ColumnType::kMixed:
      v.EncodeTo(out);
      break;
  }
}

/// Checks one set value of `type` at `*offset` and advances past it, with
/// the checks and statuses the format defines for it, building nothing.
Status SkipTypedValue(ColumnType type, std::string_view data, size_t* offset) {
  switch (type) {
    case ColumnType::kBool: {
      if (*offset >= data.size()) {
        return Status::DataLoss("columnar batch: truncated bool");
      }
      uint8_t b = static_cast<uint8_t>(data[(*offset)++]);
      if (b > 1) return Status::DataLoss("columnar batch: bad bool byte");
      return Status::OK();
    }
    case ColumnType::kInt: {
      uint64_t zz = 0;
      return DecodeVarint(data, offset, &zz);
    }
    case ColumnType::kDouble: {
      double d = 0.0;
      if (!ReadDoubleLe(data, offset, &d)) {
        return Status::DataLoss("columnar batch: truncated double");
      }
      return Status::OK();
    }
    case ColumnType::kString: {
      uint64_t len = 0;
      DYNO_RETURN_IF_ERROR(DecodeVarint(data, offset, &len));
      if (len > data.size() - *offset) {
        return Status::DataLoss("columnar batch: truncated string");
      }
      *offset += len;
      return Status::OK();
    }
    case ColumnType::kMixed: {
      Status st = Value::Skip(data, offset);
      if (!st.ok()) {
        return Status::DataLoss("columnar batch: bad nested value: " +
                                st.message());
      }
      return Status::OK();
    }
  }
  return Status::DataLoss("columnar batch: unknown column type");
}

/// Decodes the set value of `type` at `offset`, which SkipTypedValue has
/// already accepted — so no read below can fail.
Value DecodeCheckedValue(ColumnType type, std::string_view data,
                         size_t offset) {
  switch (type) {
    case ColumnType::kBool:
      return Value::Bool(data[offset] == 1);
    case ColumnType::kInt: {
      uint64_t zz = 0;
      ReadVarint(data, &offset, &zz);
      return Value::Int(ZigzagDecode(zz));
    }
    case ColumnType::kDouble: {
      double d = 0.0;
      ReadDoubleLe(data, &offset, &d);
      return Value::Double(d);
    }
    case ColumnType::kString: {
      uint64_t len = 0;
      ReadVarint(data, &offset, &len);
      return Value::String(std::string(data.substr(offset, len)));
    }
    case ColumnType::kMixed:
      return Value::Decode(data, &offset).value();
  }
  return Value::Null();
}

}  // namespace

ColumnBatch ColumnBatch::FromRows(const std::vector<Value>& rows) {
  ColumnBatch batch;
  batch.num_rows_ = rows.size();

  // Regular attempt: every row must be a struct whose field sequence is a
  // subsequence (in order, no duplicates) of one shared schema built
  // incrementally. Anything else falls back to the irregular encoding.
  bool regular = true;
  std::vector<std::string> schema;
  std::vector<std::vector<uint8_t>> presence;   // [col][row]
  std::vector<std::vector<Value>> values;       // [col] set values
  auto find_column = [&schema](const std::string& name) -> int {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  for (size_t r = 0; r < rows.size() && regular; ++r) {
    const Value& row = rows[r];
    if (row.type() != Value::Type::kStruct) {
      regular = false;
      break;
    }
    int last_index = -1;
    for (const auto& [name, field] : row.fields()) {
      int idx = find_column(name);
      if (idx < 0) {
        // New column: append to the schema; earlier rows are kAbsent.
        idx = static_cast<int>(schema.size());
        schema.push_back(name);
        presence.emplace_back(r, static_cast<uint8_t>(Presence::kAbsent));
        values.emplace_back();
      }
      if (idx <= last_index) {
        // Out-of-schema-order field, or a duplicate name in this row.
        regular = false;
        break;
      }
      last_index = idx;
      presence[idx].push_back(static_cast<uint8_t>(
          field.is_null() ? Presence::kNull : Presence::kSet));
      if (!field.is_null()) values[idx].push_back(field);
    }
    if (!regular) break;
    // Columns this row does not mention are absent in it.
    for (auto& p : presence) {
      if (p.size() == r) p.push_back(static_cast<uint8_t>(Presence::kAbsent));
    }
  }

  if (!regular) {
    batch.irregular_ = true;
    batch.raw_rows_ = rows;
    return batch;
  }
  batch.columns_.reserve(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    ColumnVector col;
    col.name = std::move(schema[c]);
    col.presence = std::move(presence[c]);
    col.values = std::move(values[c]);
    batch.columns_.push_back(std::move(col));
  }
  return batch;
}

void ColumnBatch::EncodeTo(std::string* out) const {
  const size_t frame_start = out->size();
  out->append(kMagic, sizeof(kMagic));
  out->push_back(static_cast<char>(irregular_ ? kFlagIrregular : 0));
  EncodeVarint(num_rows_, out);

  if (irregular_) {
    EncodeVarint(1, out);  // One pseudo-column of whole rows.
    EncodeVarint(std::strlen(kRawRowColumn), out);
    out->append(kRawRowColumn);
    out->push_back(static_cast<char>(ColumnType::kMixed));
    out->append(num_rows_, static_cast<char>(Presence::kSet));
    EncodeVarint(raw_rows_.size(), out);
    for (const Value& row : raw_rows_) row.EncodeTo(out);
  } else {
    EncodeVarint(columns_.size(), out);
    for (const ColumnVector& col : columns_) {
      EncodeVarint(col.name.size(), out);
      out->append(col.name);
      ColumnType type = PickType(col.values);
      out->push_back(static_cast<char>(type));
      out->append(reinterpret_cast<const char*>(col.presence.data()),
                  col.presence.size());
      EncodeVarint(col.values.size(), out);
      for (const Value& v : col.values) EncodeTypedValue(type, v, out);
    }
  }
  uint32_t crc = Crc32c(out->data() + frame_start, out->size() - frame_start);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

Result<FrameReader> FrameReader::Open(std::string_view data) {
  // Verify the frame checksum before trusting a single byte of structure.
  if (data.size() < sizeof(kMagic) + 1 + 4) {
    return Status::DataLoss("columnar batch: frame too short");
  }
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<uint8_t>(data[data.size() - 4 + i]))
              << (8 * i);
  }
  std::string_view frame = data.substr(0, data.size() - 4);
  if (Crc32c(frame) != stored) {
    return Status::DataLoss("columnar batch: frame checksum mismatch");
  }
  if (std::memcmp(frame.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("columnar batch: bad magic");
  }
  size_t offset = sizeof(kMagic);
  uint8_t flags = static_cast<uint8_t>(frame[offset++]);
  if ((flags & ~kFlagIrregular) != 0) {
    return Status::DataLoss("columnar batch: unknown flags");
  }

  FrameReader reader;
  reader.frame_ = frame;
  reader.irregular_ = (flags & kFlagIrregular) != 0;
  uint64_t num_cols = 0;
  DYNO_RETURN_IF_ERROR(DecodeVarint(frame, &offset, &reader.num_rows_));
  DYNO_RETURN_IF_ERROR(DecodeVarint(frame, &offset, &num_cols));
  const uint64_t rows = reader.num_rows_;
  if (num_cols > frame.size()) {
    return Status::DataLoss("columnar batch: column count exceeds frame");
  }
  if (rows > frame.size() && rows > 0) {
    // Every row costs at least one presence byte per column (or one value
    // byte when irregular), so a count beyond the frame size is corrupt.
    return Status::DataLoss("columnar batch: row count exceeds frame");
  }
  if (reader.irregular_ && num_cols != 1) {
    return Status::DataLoss("columnar batch: irregular frame column count");
  }
  // Each column's presence run takes `rows` bytes of the frame, so no more
  // than frame.size() / rows columns can pass their checks below.
  if (rows > 0) {
    reader.value_offsets_.reserve(
        std::min<uint64_t>(num_cols, frame.size() / rows) * rows);
  }

  for (uint64_t c = 0; c < num_cols; ++c) {
    uint64_t name_len = 0;
    DYNO_RETURN_IF_ERROR(DecodeVarint(frame, &offset, &name_len));
    if (name_len > frame.size() - offset) {
      return Status::DataLoss("columnar batch: truncated column name");
    }
    Column col;
    col.name = frame.substr(offset, name_len);
    offset += name_len;
    if (offset >= frame.size()) {
      return Status::DataLoss("columnar batch: truncated column type");
    }
    uint8_t type_byte = static_cast<uint8_t>(frame[offset++]);
    if (type_byte > static_cast<uint8_t>(ColumnType::kMixed)) {
      return Status::DataLoss("columnar batch: bad column type");
    }
    col.type = static_cast<ColumnType>(type_byte);
    if (rows > frame.size() - offset) {
      return Status::DataLoss("columnar batch: truncated presence run");
    }
    col.presence_offset = offset;
    uint64_t want_set = 0;
    for (uint64_t r = 0; r < rows; ++r) {
      uint8_t p = static_cast<uint8_t>(frame[offset + r]);
      if (p > static_cast<uint8_t>(Presence::kSet)) {
        return Status::DataLoss("columnar batch: bad presence byte");
      }
      if (p == static_cast<uint8_t>(Presence::kSet)) ++want_set;
    }
    offset += rows;
    uint64_t set_count = 0;
    DYNO_RETURN_IF_ERROR(DecodeVarint(frame, &offset, &set_count));
    if (set_count != want_set) {
      return Status::DataLoss("columnar batch: set count mismatch");
    }
    const size_t base = reader.value_offsets_.size();
    reader.value_offsets_.resize(base + rows);
    uint64_t row = 0;
    for (uint64_t i = 0; i < set_count; ++i, ++row) {
      while (frame[col.presence_offset + row] !=
             static_cast<char>(Presence::kSet)) {
        ++row;
      }
      const size_t start = offset;
      DYNO_RETURN_IF_ERROR(SkipTypedValue(col.type, frame, &offset));
      if (!reader.irregular_ && col.type == ColumnType::kMixed &&
          frame[start] == static_cast<char>(Value::Type::kNull)) {
        // Set slots never hold null (null is a presence state); a null here
        // can only come from a damaged frame.
        return Status::DataLoss("columnar batch: null in set slot");
      }
      reader.value_offsets_[base + row] = start;
    }
    if (reader.irregular_ &&
        (col.name != kRawRowColumn || want_set != rows ||
         col.type != ColumnType::kMixed)) {
      return Status::DataLoss("columnar batch: malformed irregular frame");
    }
    reader.columns_.push_back(col);
  }
  if (offset != frame.size()) {
    return Status::DataLoss("columnar batch: trailing bytes in frame");
  }
  return reader;
}

Value FrameReader::Cell(size_t column, uint64_t row) const {
  return DecodeCheckedValue(columns_[column].type, frame_,
                            value_offsets_[column * num_rows_ + row]);
}

Value FrameReader::Row(uint64_t row) const {
  if (irregular_) return Cell(0, row);
  size_t present = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (presence(c, row) != Presence::kAbsent) ++present;
  }
  StructFields fields;
  fields.reserve(present);
  for (size_t c = 0; c < columns_.size(); ++c) {
    switch (presence(c, row)) {
      case Presence::kAbsent:
        break;
      case Presence::kNull:
        fields.emplace_back(std::string(columns_[c].name), Value::Null());
        break;
      case Presence::kSet:
        fields.emplace_back(std::string(columns_[c].name), Cell(c, row));
        break;
    }
  }
  return Value::Struct(std::move(fields));
}

std::vector<Value> FrameReader::Rows() const {
  std::vector<Value> rows;
  rows.reserve(num_rows_);
  for (uint64_t r = 0; r < num_rows_; ++r) rows.push_back(Row(r));
  return rows;
}

}  // namespace dyno::columnar
