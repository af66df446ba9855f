#include "json/value.h"

#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/varint.h"

namespace dyno {

namespace {

Status MalformedVarint() { return Status::Internal("malformed varint"); }

uint64_t DoubleHashKey(double d) {
  // Integral doubles hash as their integer value so 1 and 1.0 collide (they
  // also compare equal).
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return static_cast<uint64_t>(static_cast<int64_t>(d));
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

Value Value::Array(ArrayElements elems) {
  return Value(Rep(std::make_shared<const ArrayElements>(std::move(elems))));
}

Value Value::Struct(StructFields fields) {
  return Value(Rep(std::make_shared<const StructFields>(std::move(fields))));
}

Value::Type Value::type() const {
  return static_cast<Type>(rep_.index());
}

double Value::AsDouble() const {
  if (type() == Type::kInt) return static_cast<double>(int_value());
  return double_value();
}

const Value* Value::FindField(std::string_view name) const {
  if (type() != Type::kStruct) return nullptr;
  for (const auto& [field_name, value] : fields()) {
    if (field_name == name) return &value;
  }
  return nullptr;
}

const Value* Value::FindElement(size_t index) const {
  if (type() != Type::kArray) return nullptr;
  const auto& elems = array();
  if (index >= elems.size()) return nullptr;
  return &elems[index];
}

int Value::Compare(const Value& other) const {
  Type a = type();
  Type b = other.type();
  // Numeric types compare by value across kInt/kDouble.
  bool a_num = (a == Type::kInt || a == Type::kDouble);
  bool b_num = (b == Type::kInt || b == Type::kDouble);
  if (a_num && b_num) {
    double x = AsDouble();
    double y = other.AsDouble();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a != b) return a < b ? -1 : 1;
  switch (a) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return static_cast<int>(bool_value()) -
             static_cast<int>(other.bool_value());
    case Type::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kArray: {
      const auto& x = array();
      const auto& y = other.array();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        int c = x[i].Compare(y[i]);
        if (c != 0) return c;
      }
      if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
      return 0;
    }
    case Type::kStruct: {
      const auto& x = fields();
      const auto& y = other.fields();
      size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        int c = x[i].first.compare(y[i].first);
        if (c != 0) return c < 0 ? -1 : 1;
        c = x[i].second.Compare(y[i].second);
        if (c != 0) return c;
      }
      if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
      return 0;
    }
    default:
      return 0;  // kInt/kDouble handled above.
  }
}

uint64_t Value::Hash() const {
  switch (type()) {
    case Type::kNull:
      return 0x6e756c6cULL;
    case Type::kBool:
      return bool_value() ? 0x74727565ULL : 0x66616c73ULL;
    case Type::kInt:
      return Mix64(static_cast<uint64_t>(int_value()));
    case Type::kDouble:
      return Mix64(DoubleHashKey(double_value()));
    case Type::kString:
      return HashBytes(string_value(), /*seed=*/0x737472ULL);
    case Type::kArray: {
      uint64_t h = 0x617272ULL;
      for (const auto& e : array()) h = HashCombine(h, e.Hash());
      return h;
    }
    case Type::kStruct: {
      uint64_t h = 0x6f626aULL;
      for (const auto& [name, value] : fields()) {
        h = HashCombine(h, HashBytes(name, 0));
        h = HashCombine(h, value.Hash());
      }
      return h;
    }
  }
  return 0;
}

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type()));
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      out->push_back(bool_value() ? 1 : 0);
      break;
    case Type::kInt:
      EncodeVarint(ZigzagEncode(int_value()), out);
      break;
    case Type::kDouble:
      EncodeDoubleLe(double_value(), out);
      break;
    case Type::kString: {
      const std::string& s = string_value();
      EncodeVarint(s.size(), out);
      out->append(s);
      break;
    }
    case Type::kArray: {
      const auto& elems = array();
      EncodeVarint(elems.size(), out);
      for (const auto& e : elems) e.EncodeTo(out);
      break;
    }
    case Type::kStruct: {
      const auto& flds = fields();
      EncodeVarint(flds.size(), out);
      for (const auto& [name, value] : flds) {
        EncodeVarint(name.size(), out);
        out->append(name);
        value.EncodeTo(out);
      }
      break;
    }
  }
}

Result<Value> Value::Decode(std::string_view data, size_t* offset) {
  Value v;
  DYNO_RETURN_IF_ERROR(Walk<true>(data, offset, &v));
  return v;
}

Status Value::Skip(std::string_view data, size_t* offset) {
  return Walk<false>(data, offset, nullptr);
}

template <bool kBuild>
Status Value::Walk(std::string_view data, size_t* offset, Value* out) {
  if (*offset >= data.size()) return Status::Internal("truncated value");
  Type t = static_cast<Type>(data[(*offset)++]);
  switch (t) {
    case Type::kNull:
      return Status::OK();
    case Type::kBool: {
      if (*offset >= data.size()) return Status::Internal("truncated bool");
      const bool b = data[(*offset)++] != 0;
      if constexpr (kBuild) out->rep_.emplace<bool>(b);
      return Status::OK();
    }
    case Type::kInt: {
      uint64_t u = 0;
      if (!ReadVarint(data, offset, &u)) return MalformedVarint();
      if constexpr (kBuild) out->rep_.emplace<int64_t>(ZigzagDecode(u));
      return Status::OK();
    }
    case Type::kDouble: {
      double d = 0.0;
      if (!ReadDoubleLe(data, offset, &d)) {
        return Status::Internal("truncated double");
      }
      if constexpr (kBuild) out->rep_.emplace<double>(d);
      return Status::OK();
    }
    case Type::kString: {
      uint64_t n = 0;
      if (!ReadVarint(data, offset, &n)) return MalformedVarint();
      if (n > data.size() - *offset) return Status::Internal("bad string");
      if constexpr (kBuild) {
        out->rep_.emplace<std::string>(data.data() + *offset, n);
      }
      *offset += n;
      return Status::OK();
    }
    case Type::kArray: {
      uint64_t n = 0;
      if (!ReadVarint(data, offset, &n)) return MalformedVarint();
      // Each element encodes to at least one byte; a count beyond the
      // remaining input is corruption, not a reason to allocate.
      if (n > data.size() - *offset) {
        return Status::Internal("array count exceeds input");
      }
      if constexpr (kBuild) {
        auto elems = std::make_shared<ArrayElements>(n);
        for (Value& e : *elems) {
          DYNO_RETURN_IF_ERROR(Walk<true>(data, offset, &e));
        }
        out->rep_.emplace<ArrayPtr>(std::move(elems));
      } else {
        for (uint64_t i = 0; i < n; ++i) {
          DYNO_RETURN_IF_ERROR(Walk<false>(data, offset, nullptr));
        }
      }
      return Status::OK();
    }
    case Type::kStruct: {
      uint64_t n = 0;
      if (!ReadVarint(data, offset, &n)) return MalformedVarint();
      if (n > data.size() - *offset) {
        return Status::Internal("field count exceeds input");
      }
      std::shared_ptr<StructFields> flds;
      if constexpr (kBuild) {
        flds = std::make_shared<StructFields>();
        flds->reserve(n);
      }
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t len = 0;
        if (!ReadVarint(data, offset, &len)) return MalformedVarint();
        if (len > data.size() - *offset) {
          return Status::Internal("bad field name");
        }
        if constexpr (kBuild) {
          auto& field = flds->emplace_back(
              std::piecewise_construct,
              std::forward_as_tuple(data.data() + *offset, len),
              std::forward_as_tuple());
          *offset += len;
          DYNO_RETURN_IF_ERROR(Walk<true>(data, offset, &field.second));
        } else {
          *offset += len;
          DYNO_RETURN_IF_ERROR(Walk<false>(data, offset, nullptr));
        }
      }
      if constexpr (kBuild) out->rep_.emplace<StructPtr>(std::move(flds));
      return Status::OK();
    }
  }
  return Status::Internal("unknown value tag");
}

size_t Value::EncodedSize() const {
  switch (type()) {
    case Type::kNull:
      return 1;
    case Type::kBool:
      return 2;
    case Type::kInt:
      return 1 + VarintSize(ZigzagEncode(int_value()));
    case Type::kDouble:
      return 9;
    case Type::kString:
      return 1 + VarintSize(string_value().size()) + string_value().size();
    case Type::kArray: {
      size_t n = 1 + VarintSize(array().size());
      for (const auto& e : array()) n += e.EncodedSize();
      return n;
    }
    case Type::kStruct: {
      size_t n = 1 + VarintSize(fields().size());
      for (const auto& [name, value] : fields()) {
        n += VarintSize(name.size()) + name.size() + value.EncodedSize();
      }
      return n;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_value() ? "true" : "false";
    case Type::kInt:
      return StrFormat("%lld", static_cast<long long>(int_value()));
    case Type::kDouble:
      return StrFormat("%g", double_value());
    case Type::kString:
      return "\"" + string_value() + "\"";
    case Type::kArray: {
      std::string out = "[";
      const auto& elems = array();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += elems[i].ToString();
      }
      out += "]";
      return out;
    }
    case Type::kStruct: {
      std::string out = "{";
      const auto& flds = fields();
      for (size_t i = 0; i < flds.size(); ++i) {
        if (i > 0) out += ", ";
        out += flds[i].first + ": " + flds[i].second.ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

Value MakeRow(StructFields fields) { return Value::Struct(std::move(fields)); }

}  // namespace dyno
