#ifndef DYNO_JSON_VALUE_H_
#define DYNO_JSON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dyno {

class Value;

/// An ordered field list; order is preserved so serialization is stable.
using StructFields = std::vector<std::pair<std::string, Value>>;
using ArrayElements = std::vector<Value>;

/// The dynamic, nested value model of the query engine — the stand-in for
/// Jaql's JSON data model. Records are `Value`s of struct type; nested
/// structs/arrays are pervasive (the paper's running example filters on
/// `rs.addr[0].zip`). Values are ordered, hashable and binary-serializable,
/// which is everything the MapReduce shuffle and the statistics layer need.
class Value {
 public:
  enum class Type : uint8_t {
    kNull = 0,
    kBool = 1,
    kInt = 2,
    kDouble = 3,
    kString = 4,
    kArray = 5,
    kStruct = 6,
  };

  /// Constructs null.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int(int64_t i) { return Value(Rep(i)); }
  static Value Double(double d) { return Value(Rep(d)); }
  static Value String(std::string s) { return Value(Rep(std::move(s))); }
  static Value Array(ArrayElements elems);
  static Value Struct(StructFields fields);

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }

  /// Scalar accessors; the caller must have checked `type()`.
  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const {
    return std::get<std::string>(rep_);
  }

  /// Numeric view: ints widen to double. Requires kInt or kDouble.
  double AsDouble() const;

  const ArrayElements& array() const { return *std::get<ArrayPtr>(rep_); }
  const StructFields& fields() const { return *std::get<StructPtr>(rep_); }

  /// Looks up a struct field by name; nullptr when absent or not a struct.
  const Value* FindField(std::string_view name) const;

  /// Array element access; nullptr when out of range or not an array.
  const Value* FindElement(size_t index) const;

  /// Total ordering across all values: by type tag first, then by content
  /// (numeric types compare cross-type by numeric value). Gives the shuffle
  /// a deterministic sort and group-by a well-defined key order.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// 64-bit content hash, equal for equal values. Numeric kInt/kDouble that
  /// compare equal hash equal.
  uint64_t Hash() const;

  /// Appends a compact binary encoding to `out`. Every byte written is
  /// accounted by the storage layer, making serialized size the unit of the
  /// simulator's I/O cost model.
  void EncodeTo(std::string* out) const;

  /// The bytes that, followed by the encoding of any value v, encode
  /// Struct(`leading` + {`last_name`, v}): an encoded value is spliced in
  /// as a struct's last field without being decoded.
  static std::string StructPrefix(StructFields leading, std::string last_name);

  /// Decodes one value from `data` starting at `*offset`, advancing it.
  static Result<Value> Decode(std::string_view data, size_t* offset);

  /// Checks one encoded value at `*offset` and advances past it: the same
  /// walk, checks and statuses as Decode, without building the value.
  static Status Skip(std::string_view data, size_t* offset);

  /// Size in bytes of the binary encoding (without materializing it).
  size_t EncodedSize() const;

  /// JSON-ish human-readable rendering, for debugging and examples.
  std::string ToString() const;

 private:
  using ArrayPtr = std::shared_ptr<const ArrayElements>;
  using StructPtr = std::shared_ptr<const StructFields>;
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           ArrayPtr, StructPtr>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  /// Decode's and Skip's one walk over an encoding. With kBuild it decodes
  /// into `*out` (null on entry), building containers in place; without it
  /// it only checks, and `out` is unused.
  template <bool kBuild>
  static Status Walk(std::string_view data, size_t* offset, Value* out);

  Rep rep_;
};

/// Convenience builder for struct rows: `MakeRow({{"id", Value::Int(1)}})`.
Value MakeRow(StructFields fields);

}  // namespace dyno

#endif  // DYNO_JSON_VALUE_H_
