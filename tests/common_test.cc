#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/string_util.h"
#include "test_util.h"

namespace dyno {
namespace {

// --- Status / Result ---

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "thing");
  EXPECT_EQ(s.ToString(), "NotFound: thing");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfMemory,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseResult(int x, int* out) {
  DYNO_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  DYNO_RETURN_IF_ERROR(Status::OK());
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  int out = 0;
  EXPECT_TRUE(UseResult(3, &out).ok());
  EXPECT_EQ(out, 6);
  EXPECT_FALSE(UseResult(-3, &out).ok());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Rng ---

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  Rng c(43);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next();
    if (x != b.Next()) all_equal = false;
    if (x != c.Next()) any_diff_seed_diff = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMean) {
  Rng rng(7);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.Bernoulli(0.3);
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsTowardsSmallValues) {
  Rng rng(9);
  ZipfSampler zipf;
  int small = 0;
  for (int i = 0; i < 10000; ++i) {
    if (zipf.Next(&rng, 1000, 0.9) < 10) ++small;
  }
  EXPECT_GT(small, 3000) << "theta=0.9 concentrates mass on the head";
  // theta=0 degenerates to uniform.
  small = 0;
  for (int i = 0; i < 10000; ++i) {
    if (zipf.Next(&rng, 1000, 0.0) < 10) ++small;
  }
  EXPECT_LT(small, 300);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
  // k >= n returns a permutation.
  auto all = rng.SampleWithoutReplacement(10, 50);
  EXPECT_EQ(all.size(), 10u);
  std::set<uint64_t> perm(all.begin(), all.end());
  EXPECT_EQ(perm.size(), 10u);
}

TEST(RngTest, SamplingIsUnbiased) {
  // Each index should appear in the sample with probability k/n.
  int counts[20] = {0};
  for (uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(seed);
    for (uint64_t idx : rng.SampleWithoutReplacement(20, 5)) ++counts[idx];
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(counts[i] / 500.0, 0.25, 0.08) << "index " << i;
  }
}

// --- hashing ---

TEST(HashTest, StableAndSeedSensitive) {
  EXPECT_EQ(HashBytes("hello", 1), HashBytes("hello", 1));
  EXPECT_NE(HashBytes("hello", 1), HashBytes("hello", 2));
  EXPECT_NE(HashBytes("hello", 1), HashBytes("hellp", 1));
}

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t a = Mix64(12345);
    uint64_t b = Mix64(12345 ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  double avg = total_flips / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

// --- strings / time ---

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("/tmp/dyno/x", "/tmp/"));
  EXPECT_FALSE(StartsWith("/tm", "/tmp/"));
}

TEST(StringUtilTest, ParseInt64IsStrict) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  // Whole-string parses only: junk, whitespace, floats and overflow are
  // all InvalidArgument, never a silent partial parse.
  for (const char* bad :
       {"", " 5", "5 ", "5x", "x5", "1.5", "1e3", "0x10", "--1", "+ 1",
        "99999999999999999999", "-99999999999999999999"}) {
    auto parsed = ParseInt64(bad);
    EXPECT_FALSE(parsed.ok()) << "\"" << bad << "\" parsed as " << *parsed;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StringUtilTest, ParseDoubleIsStrict) {
  EXPECT_EQ(*ParseDouble("0.5"), 0.5);
  EXPECT_EQ(*ParseDouble("-2"), -2.0);
  EXPECT_EQ(*ParseDouble("1e3"), 1000.0);
  for (const char* bad :
       {"", " 0.5", "0.5 ", "0.5x", "x", "inf", "-inf", "nan", "1e999",
        "0..5"}) {
    auto parsed = ParseDouble(bad);
    EXPECT_FALSE(parsed.ok()) << "\"" << bad << "\" parsed as " << *parsed;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimMillis(500), "500 ms");
  EXPECT_EQ(FormatSimMillis(12345), "12.345 s");
}

}  // namespace
}  // namespace dyno
