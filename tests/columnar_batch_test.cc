// Property tests for the columnar batch codec: FromRows→Encode→
// FrameReader::Open→Rows must be byte-exact for every column type — bools, ints, doubles,
// strings, mixed/nested values, nulls, absent fields, empty batches,
// irregular rows — and every corruption of an encoded frame must surface
// as Status::DataLoss, never a crash or a silently wrong row.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/column.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "common/string_util.h"
#include "json/value.h"
#include "storage/dfs.h"
#include "test_util.h"

namespace dyno {
namespace {

using columnar::ColumnBatch;
using columnar::FrameReader;

/// Byte-level identity of two row vectors: same count, every row encodes
/// to the same bytes (field order included — Compare() alone would accept
/// reordered structs).
void ExpectRowsByteIdentical(const std::vector<Value>& got,
                             const std::vector<Value>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    std::string got_bytes;
    std::string want_bytes;
    got[i].EncodeTo(&got_bytes);
    want[i].EncodeTo(&want_bytes);
    ASSERT_EQ(got_bytes, want_bytes)
        << "row " << i << ": " << got[i].ToString() << " vs "
        << want[i].ToString();
  }
}

/// Full round trip through the wire format.
void ExpectRoundTrip(const std::vector<Value>& rows) {
  ColumnBatch batch = ColumnBatch::FromRows(rows);
  EXPECT_EQ(batch.num_rows(), rows.size());
  // Through the encoded frame.
  std::string frame;
  batch.EncodeTo(&frame);
  auto decoded = FrameReader::Open(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_rows(), rows.size());
  EXPECT_EQ(decoded->irregular(), batch.irregular());
  ExpectRowsByteIdentical(decoded->Rows(), rows);
  // Re-encoding the decoded rows reproduces the frame bit for bit.
  std::string frame2;
  ColumnBatch::FromRows(decoded->Rows()).EncodeTo(&frame2);
  EXPECT_EQ(frame, frame2);
}

TEST(ColumnarBatchTest, EmptyBatchRoundTrips) { ExpectRoundTrip({}); }

TEST(ColumnarBatchTest, EveryScalarTypeRoundTrips) {
  std::vector<Value> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(MakeRow({{"b", Value::Bool(i % 2 == 0)},
                            {"i", Value::Int(i * 1000003 - 7)},
                            {"d", Value::Double(i * 0.25 - 3.5)},
                            {"s", Value::String(StrFormat("s%d", i))}}));
  }
  ColumnBatch batch = ColumnBatch::FromRows(rows);
  EXPECT_FALSE(batch.irregular());
  EXPECT_EQ(batch.num_columns(), 4u);
  ExpectRoundTrip(rows);
}

TEST(ColumnarBatchTest, NullsAndAbsentFieldsAreDistinct) {
  // Row 0 has x set, row 1 has x explicitly null, row 2 omits x entirely.
  // JSON rows are self-describing, so null and absent must both survive.
  std::vector<Value> rows = {
      MakeRow({{"x", Value::Int(1)}, {"y", Value::Int(10)}}),
      MakeRow({{"x", Value::Null()}, {"y", Value::Int(20)}}),
      MakeRow({{"y", Value::Int(30)}}),
  };
  ExpectRoundTrip(rows);
}

TEST(ColumnarBatchTest, NestedAndMixedColumnsFallBackToMixed) {
  // A column holding structs/arrays, and one whose rows disagree on scalar
  // type: both legal, both round-trip via the kMixed representation.
  std::vector<Value> rows = {
      MakeRow({{"n", Value::Struct({{"z", Value::Int(1)}})},
               {"m", Value::Int(1)}}),
      MakeRow({{"n", Value::Array({Value::Int(1), Value::Null()})},
               {"m", Value::String("two")}}),
  };
  ExpectRoundTrip(rows);
}

TEST(ColumnarBatchTest, IrregularRowsRoundTrip) {
  // Non-struct rows and duplicate field names cannot be columnarized; the
  // irregular fallback must still be byte-exact.
  std::vector<Value> plain = {Value::Int(1), Value::String("two"),
                              Value::Null()};
  EXPECT_TRUE(ColumnBatch::FromRows(plain).irregular());
  ExpectRoundTrip(plain);

  std::vector<Value> dup = {
      Value::Struct({{"a", Value::Int(1)}, {"a", Value::Int(2)}}),
      Value::Struct({{"a", Value::Int(3)}}),
  };
  EXPECT_TRUE(ColumnBatch::FromRows(dup).irregular());
  ExpectRoundTrip(dup);
}

TEST(ColumnarBatchTest, ReorderedFieldsRoundTripExactly) {
  // Field order differs between rows: whether the batch columnarizes or
  // falls back, the original per-row field order must come back.
  std::vector<Value> rows = {
      MakeRow({{"a", Value::Int(1)}, {"b", Value::Int(2)}}),
      MakeRow({{"b", Value::Int(3)}, {"a", Value::Int(4)}}),
  };
  ExpectRoundTrip(rows);
}

/// A frame with a valid checksum whose body after the header is `body`.
std::string FrameWithBody(const std::string& body) {
  std::string frame = std::string("CB01") + '\0' + body;
  const uint32_t crc = Crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>(crc >> (8 * i)));
  }
  return frame;
}

TEST(ColumnarBatchTest, BadVarintsKeepTheirOwnStatuses) {
  // The row count's varint cut off by the end of the frame.
  auto truncated = FrameReader::Open(FrameWithBody("\x80"));
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(truncated.status().message(), "columnar batch: truncated varint");
  // Ten continuation bytes are malformed, even when they end the frame.
  for (const std::string tail : {"", "\x01"}) {
    auto malformed =
        FrameReader::Open(FrameWithBody(std::string(10, '\x80') + tail));
    EXPECT_EQ(malformed.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(malformed.status().message(),
              "columnar batch: malformed varint");
  }
}

// ---------------------------------------------------------------------------
// Randomized round-trip property over all shapes.

Value RandomScalar(Rng* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value::Double(rng->NextDouble() * 1e9 - 5e8);
    default: {
      std::string s(rng->Uniform(24), '\0');
      for (char& c : s) c = static_cast<char>(rng->Uniform(256));
      return Value::String(std::move(s));
    }
  }
}

Value RandomCell(Rng* rng, int depth) {
  double container_p = depth >= 3 ? 0.0 : 0.25;
  double dice = rng->NextDouble();
  if (dice < container_p / 2) {
    ArrayElements elems;
    uint64_t n = rng->Uniform(4);
    for (uint64_t i = 0; i < n; ++i) {
      elems.push_back(RandomCell(rng, depth + 1));
    }
    return Value::Array(std::move(elems));
  }
  if (dice < container_p) {
    StructFields fields;
    uint64_t n = rng->Uniform(4);
    for (uint64_t i = 0; i < n; ++i) {
      fields.emplace_back(StrFormat("f%llu", (unsigned long long)i),
                          RandomCell(rng, depth + 1));
    }
    return Value::Struct(std::move(fields));
  }
  return RandomScalar(rng);
}

std::vector<Value> RandomBatch(Rng* rng) {
  uint64_t num_rows = rng->Uniform(40);
  uint64_t num_cols = 1 + rng->Uniform(6);
  bool regular = rng->Bernoulli(0.6);
  std::vector<Value> rows;
  for (uint64_t r = 0; r < num_rows; ++r) {
    if (!regular && rng->Bernoulli(0.1)) {
      rows.push_back(RandomCell(rng, 0));  // non-struct row
      continue;
    }
    StructFields fields;
    for (uint64_t c = 0; c < num_cols; ++c) {
      if (rng->Bernoulli(0.15)) continue;  // absent
      Value cell = regular ? (rng->Bernoulli(0.1)
                                  ? Value::Null()
                                  : Value::Int(static_cast<int64_t>(
                                        rng->Next() & 0xffffff)))
                           : RandomCell(rng, 0);
      fields.emplace_back(StrFormat("c%llu", (unsigned long long)c),
                          std::move(cell));
    }
    rows.push_back(Value::Struct(std::move(fields)));
  }
  return rows;
}

class BatchFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchFuzzTest, RandomBatchesRoundTrip) {
  Rng rng(GetParam() * 7919 + 1);
  const int iters = FuzzIters(100);
  for (int i = 0; i < iters; ++i) {
    ExpectRoundTrip(RandomBatch(&rng));
  }
}

TEST_P(BatchFuzzTest, EveryBitFlipSurfacesAsDataLoss) {
  // Unlike the raw row codec (whose decoder may legitimately parse a
  // corrupted prefix), the batch frame carries a trailing CRC32C that is
  // verified before any parsing — so EVERY byte-level corruption must be
  // rejected as DataLoss. Never a crash, never different rows.
  Rng rng(GetParam() ^ 0xc01a5ULL);
  const int iters = FuzzIters(100);
  for (int i = 0; i < iters; ++i) {
    std::vector<Value> rows = RandomBatch(&rng);
    std::string frame;
    ColumnBatch::FromRows(rows).EncodeTo(&frame);
    ASSERT_FALSE(frame.empty());
    std::string corrupted = frame;
    switch (rng.Uniform(3)) {
      case 0: {  // flip 1..8 bits of one byte
        size_t pos = rng.Uniform(corrupted.size());
        corrupted[pos] = static_cast<char>(
            static_cast<uint8_t>(corrupted[pos]) ^
            static_cast<uint8_t>(1 + rng.Uniform(255)));
        break;
      }
      case 1:  // truncate
        corrupted.resize(rng.Uniform(corrupted.size()));
        break;
      default:  // trailing garbage
        corrupted.push_back(static_cast<char>(rng.Uniform(256)));
        break;
    }
    auto decoded = FrameReader::Open(corrupted);
    ASSERT_FALSE(decoded.ok()) << "corrupted frame decoded successfully";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST_P(BatchFuzzTest, GarbageFramesNeverCrashDecoder) {
  Rng rng(GetParam() * 31337 + 5);
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    std::string garbage(rng.Uniform(96), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    auto decoded = FrameReader::Open(garbage);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_P(BatchFuzzTest, BitFlippedColumnarSplitsReadAsDataLoss) {
  // The same guarantee one level up: a columnar DFS split hit by bit rot
  // must fail the read path with DataLoss (the split CRC fires first; the
  // frame CRC backstops it), and un-flipping restores the data exactly.
  Rng rng(GetParam() * 6151 + 9);
  const int iters = FuzzIters(40);
  Dfs dfs;
  std::vector<Value> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"s", Value::String(StrFormat("v%d", i))}}));
  }
  auto file = WriteRows(&dfs, "/fuzz_col", rows, /*target_split_bytes=*/512,
                        SplitFormat::kColumnar);
  ASSERT_TRUE(file.ok());
  ASSERT_GT((*file)->splits().size(), 1u);
  EXPECT_EQ((*file)->splits()[0].format, SplitFormat::kColumnar);
  ASSERT_TRUE(ReadAllRows(**file).ok());
  for (int i = 0; i < iters; ++i) {
    size_t split = rng.Uniform((*file)->splits().size());
    size_t size = (*file)->splits()[split].data.size();
    if (size == 0) continue;
    size_t offset = rng.Uniform(size);
    uint8_t mask = static_cast<uint8_t>(1 + rng.Uniform(255));
    ASSERT_TRUE((*file)->CorruptByteForTesting(split, offset, mask).ok());
    auto read = ReadAllRows(**file);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << read.status().ToString();
    ASSERT_TRUE((*file)->CorruptByteForTesting(split, offset, mask).ok());
    ASSERT_TRUE(ReadAllRows(**file).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace dyno
