// Robustness fuzzing of the binary row codec: random nested values must
// round-trip exactly, and random corruptions of valid encodings must fail
// cleanly (error Status) rather than crash or loop — a property the
// storage layer leans on for every split read.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "dyno/checkpoint.h"
#include "json/value.h"
#include "mr/engine.h"
#include "storage/dfs.h"
#include "test_util.h"

namespace dyno {
namespace {

Value RandomValue(Rng* rng, int depth) {
  // Bias away from containers as depth grows so trees stay bounded.
  double container_p = depth >= 4 ? 0.0 : 0.35;
  double dice = rng->NextDouble();
  if (dice < container_p / 2) {
    ArrayElements elems;
    uint64_t n = rng->Uniform(5);
    for (uint64_t i = 0; i < n; ++i) {
      elems.push_back(RandomValue(rng, depth + 1));
    }
    return Value::Array(std::move(elems));
  }
  if (dice < container_p) {
    StructFields fields;
    uint64_t n = rng->Uniform(5);
    for (uint64_t i = 0; i < n; ++i) {
      fields.emplace_back(StrFormat("f%llu", (unsigned long long)i),
                          RandomValue(rng, depth + 1));
    }
    return Value::Struct(std::move(fields));
  }
  switch (rng->Uniform(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value::Double(rng->NextDouble() * 1e12 - 5e11);
    default: {
      std::string s(rng->Uniform(40), '\0');
      for (char& c : s) c = static_cast<char>(rng->Uniform(256));
      return Value::String(std::move(s));
    }
  }
}

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, RandomValuesRoundTrip) {
  Rng rng(GetParam());
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    Value v = RandomValue(&rng, 0);
    std::string buf;
    v.EncodeTo(&buf);
    ASSERT_EQ(buf.size(), v.EncodedSize()) << v.ToString();
    size_t offset = 0;
    auto decoded = Value::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_EQ(offset, buf.size());
    EXPECT_EQ(decoded->Compare(v), 0) << v.ToString();
    EXPECT_EQ(decoded->Hash(), v.Hash());
  }
}

TEST_P(CodecFuzzTest, CorruptedEncodingsFailCleanly) {
  Rng rng(GetParam() ^ 0x5eedULL);
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    Value v = RandomValue(&rng, 0);
    std::string buf;
    v.EncodeTo(&buf);
    if (buf.empty()) continue;
    std::string corrupted = buf;
    // Flip a random byte, or truncate, or prepend garbage tag.
    switch (rng.Uniform(3)) {
      case 0:
        corrupted[rng.Uniform(corrupted.size())] =
            static_cast<char>(rng.Uniform(256));
        break;
      case 1:
        corrupted.resize(rng.Uniform(corrupted.size()));
        break;
      default:
        corrupted[0] = static_cast<char>(200 + rng.Uniform(56));
        break;
    }
    size_t offset = 0;
    auto decoded = Value::Decode(corrupted, &offset);
    // Either a clean error or a (different or equal) valid value that
    // consumed a bounded prefix — never a crash, never offset overrun.
    if (decoded.ok()) {
      EXPECT_LE(offset, corrupted.size());
    }
  }
}

TEST_P(CodecFuzzTest, GarbageBytesNeverCrashDecoder) {
  Rng rng(GetParam() * 1337 + 11);
  const int iters = FuzzIters(300);
  for (int i = 0; i < iters; ++i) {
    std::string garbage(rng.Uniform(64), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    size_t offset = 0;
    auto decoded = Value::Decode(garbage, &offset);
    if (decoded.ok()) {
      EXPECT_LE(offset, garbage.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// DFS blocks and quarantine files under bit rot: every corruption must
// surface as DataLoss, never as a crash or a silently wrong answer.
// ---------------------------------------------------------------------------

class DfsRotFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfsRotFuzzTest, BitFlippedBlocksAlwaysReadAsDataLoss) {
  Rng rng(GetParam() * 6151 + 7);
  const int iters = FuzzIters(60);
  Dfs dfs;
  std::vector<Value> rows;
  for (int i = 0; i < 200; ++i) rows.push_back(RandomValue(&rng, 2));
  auto file = WriteRows(&dfs, "/fuzz", rows, /*target_split_bytes=*/256);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(ReadAllRows(**file).ok());
  for (int i = 0; i < iters; ++i) {
    size_t split = rng.Uniform((*file)->splits().size());
    size_t size = (*file)->splits()[split].data.size();
    if (size == 0) continue;
    size_t offset = rng.Uniform(size);
    uint8_t mask = static_cast<uint8_t>(1 + rng.Uniform(255));
    ASSERT_TRUE((*file)->CorruptByteForTesting(split, offset, mask).ok());
    // Whatever byte rotted, the CRC catches it before any row is decoded.
    auto read = ReadAllRows(**file);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << read.status().ToString();
    EXPECT_FALSE(VerifySplit((*file)->splits()[split]).ok());
    // XOR-ing the same mask back restores the block exactly.
    ASSERT_TRUE((*file)->CorruptByteForTesting(split, offset, mask).ok());
    ASSERT_TRUE(ReadAllRows(**file).ok());
  }
}

TEST_P(DfsRotFuzzTest, BitFlippedQuarantineFilesAlwaysReadAsDataLoss) {
  // Quarantine files are written by the engine's skip mode; they get the
  // same CRC framing as every DFS file, so rot in the quarantined records
  // themselves is detected, not re-ingested as garbage.
  Rng rng(GetParam() * 13007 + 3);
  Dfs dfs;
  ClusterConfig config;
  config.job_startup_ms = 500;
  config.map_slots = 4;
  config.reduce_slots = 2;
  config.faults.use_env_defaults = false;
  config.faults.seed = 5;
  config.faults.poison_record_rate = 0.05;
  config.faults.max_skipped_records = -1;
  config.faults.retry_backoff_ms = 100;
  MapReduceEngine engine(&dfs, config);
  std::vector<Value> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(Value::Struct({{"id", Value::Int(i)}}));
  }
  auto input = WriteRows(&dfs, "/in", rows, /*target_split_bytes=*/128);
  ASSERT_TRUE(input.ok());
  JobSpec spec;
  spec.name = "scan";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = *input;
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  auto result = engine.Submit(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  ASSERT_GT(result->records_quarantined, 0u);
  auto qfile = dfs.Open(result->quarantine_path);
  ASSERT_TRUE(qfile.ok());

  const int iters = FuzzIters(60);
  for (int i = 0; i < iters; ++i) {
    size_t split = rng.Uniform((*qfile)->splits().size());
    size_t size = (*qfile)->splits()[split].data.size();
    if (size == 0) continue;
    size_t offset = rng.Uniform(size);
    uint8_t mask = static_cast<uint8_t>(1 + rng.Uniform(255));
    ASSERT_TRUE((*qfile)->CorruptByteForTesting(split, offset, mask).ok());
    auto read = ReadAllRows(**qfile);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << read.status().ToString();
    ASSERT_TRUE((*qfile)->CorruptByteForTesting(split, offset, mask).ok());
    ASSERT_TRUE(ReadAllRows(**qfile).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsRotFuzzTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Reduce spill runs under bit rot (DESIGN.md §6.10): the CRC framing of the
// external-sort run files must turn every corruption into DataLoss on
// read-back — a rotten run fails the attempt, it never merges wrong rows.
// ---------------------------------------------------------------------------

class SpillRunRotFuzzTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<std::pair<Value, Value>> RandomSpillPairs(Rng* rng,
                                                      uint64_t max_pairs) {
  std::vector<std::pair<Value, Value>> pairs;
  uint64_t n = 1 + rng->Uniform(max_pairs);
  for (uint64_t p = 0; p < n; ++p) {
    pairs.emplace_back(RandomValue(rng, 3), RandomValue(rng, 2));
  }
  return pairs;
}

/// The emissions a map task stages for `pairs`: each key as is, each value
/// as its encoding.
std::vector<Emission> ToEmissions(
    const std::vector<std::pair<Value, Value>>& pairs) {
  std::vector<Emission> emissions;
  for (const auto& [key, value] : pairs) {
    std::string payload;
    value.EncodeTo(&payload);
    emissions.emplace_back(key, std::move(payload));
  }
  return emissions;
}

std::string Encoded(const Value& v) {
  std::string out;
  v.EncodeTo(&out);
  return out;
}

TEST_P(SpillRunRotFuzzTest, SpillRunsRoundTripExactly) {
  Rng rng(GetParam() * 2713 + 5);
  const int iters = FuzzIters(80);
  for (int i = 0; i < iters; ++i) {
    auto pairs = RandomSpillPairs(&rng, 40);
    Split run = EncodeSpillRun(ToEmissions(pairs));
    ASSERT_TRUE(VerifySplit(run).ok());
    auto decoded = DecodeSpillRun(run);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ((*decoded)[p].first.Compare(pairs[p].first), 0) << p;
      EXPECT_EQ(Encoded((*decoded)[p].first), Encoded(pairs[p].first)) << p;
      EXPECT_EQ((*decoded)[p].second, Encoded(pairs[p].second)) << p;
    }
  }
}

TEST_P(SpillRunRotFuzzTest, SpillRunBytesEqualTheKeyValueEncoding) {
  // Staging values as payloads must not change a run's bytes: a run is
  // each key's encoding followed by its value's, as when both were values.
  Rng rng(GetParam() * 4111 + 3);
  const int iters = FuzzIters(80);
  for (int i = 0; i < iters; ++i) {
    auto pairs = RandomSpillPairs(&rng, 40);
    std::string expected;
    for (const auto& [key, value] : pairs) {
      key.EncodeTo(&expected);
      value.EncodeTo(&expected);
    }
    Split run = EncodeSpillRun(ToEmissions(pairs));
    EXPECT_EQ(run.data, expected);
    EXPECT_EQ(run.num_records, 2 * pairs.size());
    EXPECT_EQ(run.logical_bytes, expected.size());
  }
}

TEST_P(SpillRunRotFuzzTest, BitFlippedSpillRunsAlwaysReadAsDataLoss) {
  Rng rng(GetParam() * 9973 + 11);
  const int iters = FuzzIters(120);
  for (int i = 0; i < iters; ++i) {
    Split run = EncodeSpillRun(ToEmissions(RandomSpillPairs(&rng, 30)));
    if (run.data.empty()) continue;
    Split bad = run;
    bad.data[rng.Uniform(bad.data.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    auto decoded = DecodeSpillRun(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST_P(SpillRunRotFuzzTest, TruncatedSpillRunsAlwaysReadAsDataLoss) {
  Rng rng(GetParam() * 5861 + 23);
  const int iters = FuzzIters(120);
  for (int i = 0; i < iters; ++i) {
    Split run = EncodeSpillRun(ToEmissions(RandomSpillPairs(&rng, 30)));
    if (run.data.empty()) continue;
    Split bad = run;
    bad.data.resize(rng.Uniform(bad.data.size()));
    auto decoded = DecodeSpillRun(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST_P(SpillRunRotFuzzTest, MalformedPayloadUnderValidCrcIsDataLoss) {
  // A run written from a payload that is not one value carries a CRC that
  // verifies; decoding must still reject it rather than surface the bytes.
  // The bad payload is either an unknown tag (anywhere in the run) or a
  // strict prefix of a valid encoding (in the last pair, where nothing
  // follows to be misread as the rest of it).
  Rng rng(GetParam() * 3371 + 7);
  const int iters = FuzzIters(120);
  for (int i = 0; i < iters; ++i) {
    std::vector<Emission> emissions =
        ToEmissions(RandomSpillPairs(&rng, 20));
    if (rng.Bernoulli(0.5)) {
      Emission& victim = emissions[rng.Uniform(emissions.size())];
      victim.second.insert(victim.second.begin(),
                           static_cast<char>(7 + rng.Uniform(249)));
    } else {
      std::string& last = emissions.back().second;
      last = Encoded(Value::String(std::string(1 + rng.Uniform(40), 'x')));
      last.resize(rng.Uniform(last.size()));
    }
    Split run = EncodeSpillRun(emissions);
    ASSERT_TRUE(VerifySplit(run).ok());
    auto decoded = DecodeSpillRun(run);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST_P(SpillRunRotFuzzTest, OddRecordCountIsDataLossNotDanglingRead) {
  // A frame whose CRC verifies but whose record count is odd (torn between
  // a key and its value) must be rejected before any pair is surfaced.
  Rng rng(GetParam() * 769 + 1);
  const int iters = FuzzIters(60);
  for (int i = 0; i < iters; ++i) {
    Split run = EncodeSpillRun(ToEmissions(RandomSpillPairs(&rng, 20)));
    Split torn = run;
    torn.num_records = run.num_records - 1;  // CRC still matches data.
    auto decoded = DecodeSpillRun(torn);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST_P(SpillRunRotFuzzTest, EvenRecordCountMismatchIsDataLoss) {
  // An even record count that disagrees with the pairs the bytes hold
  // (CRC still valid) is as torn as an odd one.
  Rng rng(GetParam() * 1217 + 9);
  const int iters = FuzzIters(60);
  for (int i = 0; i < iters; ++i) {
    Split run = EncodeSpillRun(ToEmissions(RandomSpillPairs(&rng, 20)));
    Split torn = run;
    torn.num_records = rng.Bernoulli(0.5) ? run.num_records + 2
                                          : run.num_records - 2;
    auto decoded = DecodeSpillRun(torn);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillRunRotFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8));

/// A random but valid CheckpointManifest (driver recovery state).
CheckpointManifest RandomManifest(Rng* rng) {
  CheckpointManifest manifest;
  manifest.temp_counter = static_cast<int64_t>(rng->Uniform(1000));
  uint64_t leaves = rng->Uniform(4);
  for (uint64_t l = 0; l < leaves; ++l) {
    manifest.leaf_signatures.emplace(
        StrFormat("a%llu", (unsigned long long)l),
        StrFormat("table%llu|filter", (unsigned long long)rng->Uniform(8)));
  }
  uint64_t entries = rng->Uniform(4);
  for (uint64_t e = 0; e < entries; ++e) {
    CheckpointEntry entry;
    entry.signature = StrFormat("join(sig%llu)", (unsigned long long)e);
    entry.relation_id = StrFormat("t%llu", (unsigned long long)rng->Uniform(50));
    entry.path = StrFormat("/tmp/dyno/e%llu_out", (unsigned long long)e);
    uint64_t covers = 1 + rng->Uniform(4);
    for (uint64_t c = 0; c < covers; ++c) {
      entry.covered.push_back(StrFormat("a%llu", (unsigned long long)c));
    }
    entry.stats.cardinality = rng->NextDouble() * 1e9;
    entry.stats.avg_record_size = 1.0 + rng->NextDouble() * 500;
    entry.stats.from_sample = rng->Bernoulli(0.5);
    uint64_t cols = rng->Uniform(4);
    for (uint64_t c = 0; c < cols; ++c) {
      ColumnStats cs;
      cs.ndv = rng->NextDouble() * 1e6;
      if (rng->Bernoulli(0.5)) cs.min_value = RandomValue(rng, 4);
      if (rng->Bernoulli(0.5)) cs.max_value = RandomValue(rng, 4);
      entry.stats.columns[StrFormat("c%llu", (unsigned long long)c)] = cs;
    }
    manifest.entries.push_back(entry);
  }
  return manifest;
}

class ManifestFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ManifestFuzzTest, RandomManifestsRoundTrip) {
  Rng rng(GetParam() * 7919 + 3);
  const int iters = FuzzIters(100);
  for (int i = 0; i < iters; ++i) {
    CheckpointManifest manifest = RandomManifest(&rng);
    // Through the Value layer and the binary codec, as WriteTo/ReadFrom do.
    std::string buf;
    manifest.ToValue().EncodeTo(&buf);
    size_t offset = 0;
    auto decoded = Value::Decode(buf, &offset);
    ASSERT_TRUE(decoded.ok());
    auto loaded = CheckpointManifest::FromValue(*decoded);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->temp_counter, manifest.temp_counter);
    EXPECT_EQ(loaded->leaf_signatures, manifest.leaf_signatures);
    ASSERT_EQ(loaded->entries.size(), manifest.entries.size());
    for (size_t e = 0; e < manifest.entries.size(); ++e) {
      const CheckpointEntry& want = manifest.entries[e];
      const CheckpointEntry& got = loaded->entries[e];
      EXPECT_EQ(got.signature, want.signature);
      EXPECT_EQ(got.relation_id, want.relation_id);
      EXPECT_EQ(got.path, want.path);
      EXPECT_EQ(got.covered, want.covered);
      EXPECT_EQ(got.stats.cardinality, want.stats.cardinality);
      EXPECT_EQ(got.stats.from_sample, want.stats.from_sample);
      ASSERT_EQ(got.stats.columns.size(), want.stats.columns.size());
      for (const auto& [name, cs] : want.stats.columns) {
        auto it = got.stats.columns.find(name);
        ASSERT_NE(it, got.stats.columns.end()) << name;
        EXPECT_EQ(it->second.ndv, cs.ndv);
        ASSERT_EQ(it->second.min_value.has_value(), cs.min_value.has_value());
        if (cs.min_value.has_value()) {
          EXPECT_EQ(it->second.min_value->Compare(*cs.min_value), 0);
        }
        ASSERT_EQ(it->second.max_value.has_value(), cs.max_value.has_value());
        if (cs.max_value.has_value()) {
          EXPECT_EQ(it->second.max_value->Compare(*cs.max_value), 0);
        }
      }
    }
  }
}

TEST_P(ManifestFuzzTest, CorruptedManifestsFailCleanlyNeverCrash) {
  // A corrupted checkpoint must degrade to "re-run from scratch": FromValue
  // returns an error (or, when the corruption leaves a structurally valid
  // manifest, a manifest) — it never crashes the resuming driver.
  Rng rng(GetParam() * 104729 + 17);
  const int iters = FuzzIters(150);
  for (int i = 0; i < iters; ++i) {
    CheckpointManifest manifest = RandomManifest(&rng);
    std::string buf;
    manifest.ToValue().EncodeTo(&buf);
    if (buf.empty()) continue;
    std::string corrupted = buf;
    switch (rng.Uniform(3)) {
      case 0:
        corrupted[rng.Uniform(corrupted.size())] =
            static_cast<char>(rng.Uniform(256));
        break;
      case 1:
        corrupted.resize(rng.Uniform(corrupted.size()));
        break;
      default: {
        uint64_t flips = 1 + rng.Uniform(8);
        for (uint64_t f = 0; f < flips; ++f) {
          corrupted[rng.Uniform(corrupted.size())] ^=
              static_cast<char>(1 + rng.Uniform(255));
        }
        break;
      }
    }
    size_t offset = 0;
    auto decoded = Value::Decode(corrupted, &offset);
    if (!decoded.ok()) continue;  // codec rejected it first — fine
    auto loaded = CheckpointManifest::FromValue(*decoded);
    if (!loaded.ok()) {
      EXPECT_NE(loaded.status().ToString().find("checkpoint manifest"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
}

TEST_P(ManifestFuzzTest, ArbitraryValuesNeverCrashFromValue) {
  Rng rng(GetParam() * 31337 + 29);
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    Value v = RandomValue(&rng, 0);
    auto loaded = CheckpointManifest::FromValue(v);
    // Random values are essentially never valid manifests; either way the
    // call must return, not crash.
    (void)loaded;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(CodecFuzzTest, DeepNestingBoundedRecursionRoundTrips) {
  // A 64-deep array nest: encode/decode must handle it (recursion depth is
  // proportional to nesting; this guards against accidental quadratic or
  // overflow behaviour at plausible depths).
  Value v = Value::Int(7);
  for (int i = 0; i < 64; ++i) v = Value::Array({v});
  std::string buf;
  v.EncodeTo(&buf);
  size_t offset = 0;
  auto decoded = Value::Decode(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Compare(v), 0);
}

}  // namespace
}  // namespace dyno
