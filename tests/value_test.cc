#include "json/value.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/catalog.h"
#include "tpch/dbgen.h"

namespace dyno {
namespace {

TEST(ValueTest, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int(-42).int_value(), -42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
}

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Null().type(), Value::Type::kNull);
  EXPECT_EQ(Value::Bool(false).type(), Value::Type::kBool);
  EXPECT_EQ(Value::Int(1).type(), Value::Type::kInt);
  EXPECT_EQ(Value::Double(1.0).type(), Value::Type::kDouble);
  EXPECT_EQ(Value::String("").type(), Value::Type::kString);
  EXPECT_EQ(Value::Array({}).type(), Value::Type::kArray);
  EXPECT_EQ(Value::Struct({}).type(), Value::Type::kStruct);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(7.1).Compare(Value::Int(7)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, ArrayComparisonIsLexicographic) {
  Value a = Value::Array({Value::Int(1), Value::Int(2)});
  Value b = Value::Array({Value::Int(1), Value::Int(3)});
  Value c = Value::Array({Value::Int(1)});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(a.Compare(c), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(ValueTest, CrossTypeOrderingIsByTypeTag) {
  // null < bool < numeric < string < array < struct.
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("")), 0);
  EXPECT_LT(Value::String("zzz").Compare(Value::Array({})), 0);
  EXPECT_LT(Value::Array({}).Compare(Value::Struct({})), 0);
}

TEST(ValueTest, FieldLookup) {
  Value row = MakeRow({{"a", Value::Int(1)}, {"b", Value::String("x")}});
  ASSERT_NE(row.FindField("a"), nullptr);
  EXPECT_EQ(row.FindField("a")->int_value(), 1);
  EXPECT_EQ(row.FindField("missing"), nullptr);
  EXPECT_EQ(Value::Int(1).FindField("a"), nullptr);
}

TEST(ValueTest, ElementLookup) {
  Value arr = Value::Array({Value::Int(10), Value::Int(20)});
  ASSERT_NE(arr.FindElement(1), nullptr);
  EXPECT_EQ(arr.FindElement(1)->int_value(), 20);
  EXPECT_EQ(arr.FindElement(2), nullptr);
  EXPECT_EQ(Value::Int(1).FindElement(0), nullptr);
}

TEST(ValueTest, HashEqualForEqualValues) {
  Value a = MakeRow({{"k", Value::Int(7)}, {"s", Value::String("v")}});
  Value b = MakeRow({{"k", Value::Int(7)}, {"s", Value::String("v")}});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Double(5.0).Hash());
}

TEST(ValueTest, HashDiffersForDifferentValues) {
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
  EXPECT_NE(Value::String("a").Hash(), Value::String("b").Hash());
}

TEST(ValueTest, EncodeDecodeRoundTripScalars) {
  std::vector<Value> values = {
      Value::Null(),           Value::Bool(true),
      Value::Int(0),           Value::Int(-1234567),
      Value::Int(INT64_MAX),   Value::Int(INT64_MIN),
      Value::Double(3.14159),  Value::Double(-0.0),
      Value::String(""),       Value::String("hello world"),
  };
  for (const Value& v : values) {
    std::string buf;
    v.EncodeTo(&buf);
    EXPECT_EQ(buf.size(), v.EncodedSize()) << v.ToString();
    size_t offset = 0;
    auto decoded = Value::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_EQ(decoded->Compare(v), 0) << v.ToString();
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(ValueTest, EncodeDecodeRoundTripNested) {
  Value v = MakeRow({
      {"id", Value::Int(42)},
      {"addr", Value::Array({Value::Struct({{"zip", Value::Int(94301)},
                                            {"state", Value::String("CA")}}),
                             Value::Null()})},
      {"score", Value::Double(1.5)},
  });
  std::string buf;
  v.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), v.EncodedSize());
  size_t offset = 0;
  auto decoded = Value::Decode(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Compare(v), 0);
}

TEST(ValueTest, DecodeTruncatedFails) {
  Value v = Value::String("hello");
  std::string buf;
  v.EncodeTo(&buf);
  buf.resize(buf.size() - 2);
  size_t offset = 0;
  EXPECT_FALSE(Value::Decode(buf, &offset).ok());
}

// Every malformed-input branch of Value::Decode, pinned by status code and
// message. Tags: 1 bool, 2 int, 3 double, 4 string, 5 array, 6 struct.
void ExpectDecodeError(std::string_view bytes, std::string_view message) {
  size_t offset = 0;
  Result<Value> v = Value::Decode(bytes, &offset);
  ASSERT_FALSE(v.ok()) << "decoded " << v->ToString();
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
  EXPECT_EQ(v.status().message(), message);
}

std::string Bytes(std::initializer_list<int> bytes) {
  std::string out;
  for (int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

TEST(ValueTest, DecodeTruncatedScalarsFail) {
  ExpectDecodeError("", "truncated value");
  ExpectDecodeError(Bytes({1}), "truncated bool");
  ExpectDecodeError(Bytes({3, 0, 0, 0, 0, 0, 0, 0}), "truncated double");
  // A container whose element or field value is cut off.
  ExpectDecodeError(Bytes({5, 2, 1, 1}), "truncated value");
  ExpectDecodeError(Bytes({6, 1, 1, 'a'}), "truncated value");
}

TEST(ValueTest, DecodeMalformedVarintFails) {
  // Continuation bit set on the last byte of the input.
  ExpectDecodeError(Bytes({2}), "malformed varint");
  ExpectDecodeError(Bytes({2, 0x80}), "malformed varint");
  ExpectDecodeError(Bytes({4, 0xff, 0xff}), "malformed varint");
  ExpectDecodeError(Bytes({5, 0x80}), "malformed varint");
  ExpectDecodeError(Bytes({6, 0x80}), "malformed varint");
  ExpectDecodeError(Bytes({6, 1, 0x80}), "malformed varint");
  // Longer than 63 bits: ten continuation bytes, then a terminator.
  std::string too_long = Bytes({2});
  too_long.append(10, static_cast<char>(0x80));
  too_long.push_back(0x01);
  ExpectDecodeError(too_long, "malformed varint");
  // The widest legal varint (ten bytes) still decodes.
  std::string widest;
  Value::Int(INT64_MIN).EncodeTo(&widest);
  ASSERT_EQ(widest.size(), 11u);
  size_t offset = 0;
  Result<Value> v = Value::Decode(widest, &offset);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), INT64_MIN);
}

TEST(ValueTest, DecodeBadLengthsFail) {
  ExpectDecodeError(Bytes({4, 5, 'a', 'b'}), "bad string");
  ExpectDecodeError(Bytes({5, 3, 0, 0}), "array count exceeds input");
  ExpectDecodeError(Bytes({6, 4, 0, 0, 0}), "field count exceeds input");
  ExpectDecodeError(Bytes({6, 1, 5, 'a', 'b'}), "bad field name");
}

// A length near 2^64 once wrapped `offset + length` past the bounds check
// and decoded garbage; it is the same "bad string" / "bad field name".
TEST(ValueTest, DecodeHugeLengthDoesNotWrapBoundsCheck) {
  std::string huge = Bytes({4});
  huge.append(9, static_cast<char>(0xff));
  huge.push_back(0x01);
  huge.append("abc");
  ExpectDecodeError(huge, "bad string");
  huge[0] = 6;
  huge.insert(1, 1, static_cast<char>(1));
  ExpectDecodeError(huge, "bad field name");
}

TEST(ValueTest, DecodeUnknownTagFails) {
  ExpectDecodeError(Bytes({7}), "unknown value tag");
  ExpectDecodeError(Bytes({0xff}), "unknown value tag");
  ExpectDecodeError(Bytes({5, 1, 9}), "unknown value tag");
}

TEST(ValueTest, MultipleValuesDecodeSequentially) {
  std::string buf;
  Value::Int(1).EncodeTo(&buf);
  Value::String("two").EncodeTo(&buf);
  Value::Double(3.0).EncodeTo(&buf);
  size_t offset = 0;
  EXPECT_EQ(Value::Decode(buf, &offset)->int_value(), 1);
  EXPECT_EQ(Value::Decode(buf, &offset)->string_value(), "two");
  EXPECT_DOUBLE_EQ(Value::Decode(buf, &offset)->double_value(), 3.0);
  EXPECT_EQ(offset, buf.size());
}

TEST(ValueTest, ToStringRendersJson) {
  Value v = MakeRow({{"a", Value::Int(1)},
                     {"b", Value::Array({Value::String("x")})}});
  EXPECT_EQ(v.ToString(), "{a: 1, b: [\"x\"]}");
}

TEST(ValueTest, SharedStructureIsCheapToCopy) {
  ArrayElements big;
  for (int i = 0; i < 1000; ++i) big.push_back(Value::Int(i));
  Value a = Value::Array(std::move(big));
  Value b = a;  // shares the underlying array
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_EQ(&a.array(), &b.array());
}

// ---------------------------------------------------------------------------
// Byte identity of re-encoding: a value decoded from an encoding encodes
// back to exactly those bytes, so a stored row can be passed on as its input
// bytes (a repartition join's map side splices them into its tagged
// payload) instead of being re-encoded.
// ---------------------------------------------------------------------------

Value RandomValue(Rng* rng, int depth) {
  const double container_p = depth >= 4 ? 0.0 : 0.35;
  const double dice = rng->NextDouble();
  if (dice < container_p / 2) {
    ArrayElements elems(rng->Uniform(5));
    for (Value& e : elems) e = RandomValue(rng, depth + 1);
    return Value::Array(std::move(elems));
  }
  if (dice < container_p) {
    StructFields fields;
    for (uint64_t i = rng->Uniform(5); i > 0; --i) {
      fields.emplace_back("f" + std::to_string(i), RandomValue(rng, depth + 1));
    }
    return Value::Struct(std::move(fields));
  }
  static const double kDoubles[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min()};
  switch (rng->Uniform(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value::Double(rng->NextDouble() * 1e12 - 5e11);
    case 4:
      return Value::Double(kDoubles[rng->Uniform(std::size(kDoubles))]);
    default: {
      std::string s(rng->Uniform(40), '\0');
      for (char& c : s) c = static_cast<char>(rng->Uniform(256));
      return Value::String(std::move(s));
    }
  }
}

/// Decodes every value of `bytes` in turn and checks that each encodes
/// back to the bytes it was decoded from.
void ExpectReencodesIdentically(const std::string& bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t start = offset;
    auto decoded = Value::Decode(bytes, &offset);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    std::string again;
    decoded->EncodeTo(&again);
    ASSERT_EQ(again, bytes.substr(start, offset - start))
        << decoded->ToString();
  }
}

TEST(ValueCodecPropertyTest, DecodeThenEncodeGivesBackTheInputBytes) {
  Rng rng(20261020);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes;
    RandomValue(&rng, 0).EncodeTo(&bytes);
    ExpectReencodesIdentically(bytes);
  }
}

TEST(ValueCodecPropertyTest, EveryGeneratedTpchRowReencodesIdentically) {
  Dfs dfs;
  Catalog catalog(&dfs);
  TpchConfig config;
  config.scale = 0.0004;
  ASSERT_TRUE(GenerateTpch(&catalog, config).ok());
  uint64_t rows = 0;
  for (const std::string& name : catalog.TableNames()) {
    auto file = catalog.OpenTable(name);
    ASSERT_TRUE(file.ok());
    for (const Split& split : (*file)->splits()) {
      if (split.format == SplitFormat::kRow) {
        ExpectReencodesIdentically(split.data);
      } else {  // Tables are written columnar under DYNO_COLUMNAR=1.
        auto decoded = DecodeSplitRows(split);
        ASSERT_TRUE(decoded.ok());
        std::string bytes;
        for (const Value& row : *decoded) row.EncodeTo(&bytes);
        ExpectReencodesIdentically(bytes);
      }
      rows += split.num_records;
    }
  }
  EXPECT_GT(rows, 1000u);
}

TEST(ValueCodecPropertyTest, StructPrefixSplicesAnEncodedLastField) {
  Rng rng(7);
  for (int64_t tag : {0, 1, -1, 300}) {
    const std::string prefix =
        Value::StructPrefix({{"__t", Value::Int(tag)}}, "__r");
    for (int i = 0; i < 500; ++i) {
      const Value record = RandomValue(&rng, 0);
      std::string spliced = prefix;
      record.EncodeTo(&spliced);
      std::string tagged;
      Value::Struct({{"__t", Value::Int(tag)}, {"__r", record}})
          .EncodeTo(&tagged);
      ASSERT_EQ(spliced, tagged) << record.ToString();
    }
  }
  // No leading fields: a one-field struct.
  std::string lone = Value::StructPrefix({}, "x");
  Value::Int(5).EncodeTo(&lone);
  std::string want;
  Value::Struct({{"x", Value::Int(5)}}).EncodeTo(&want);
  EXPECT_EQ(lone, want);
}

}  // namespace
}  // namespace dyno
