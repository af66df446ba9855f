// Late-materialized columnar scans: a filter evaluated over an open frame
// (EvalFilterOverFrame, rows built only where asked) must agree exactly
// with decoding every row and evaluating the same filter over the row
// vector — keep bits, billed CPU, vectorized-evaluation counts and the kept
// rows' bytes — for every batch shape and filter shape. End to end, a
// pushed-down filter over a columnar scan in skip mode must quarantine the
// poison records the filter drops, byte for byte like the row-format scan.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/batch_eval.h"
#include "common/random.h"
#include "common/string_util.h"
#include "expr/expr.h"
#include "json/value.h"
#include "mr/engine.h"
#include "storage/dfs.h"
#include "test_util.h"

namespace dyno {
namespace {

using columnar::BatchFilterResult;
using columnar::FrameRows;

std::string Encoded(const Value& v) {
  std::string out;
  v.EncodeTo(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Random batches: regular typed columns, mixed and nested cells, and
// irregular batches (non-struct rows, duplicate field names).

Value RandomScalar(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(static_cast<int64_t>(rng->Uniform(20)) - 5);
    case 3:
      return Value::Double(rng->Bernoulli(0.05)
                               ? std::nan("")
                               : rng->NextDouble() * 20.0 - 5.0);
    default:
      return Value::String(std::string(1, static_cast<char>('a' +
                                                            rng->Uniform(5))));
  }
}

Value RandomCell(Rng* rng, int depth) {
  const double dice = rng->NextDouble();
  if (depth < 2 && dice < 0.1) {
    ArrayElements elems;
    for (uint64_t i = rng->Uniform(3); i > 0; --i) {
      elems.push_back(RandomCell(rng, depth + 1));
    }
    return Value::Array(std::move(elems));
  }
  if (depth < 2 && dice < 0.2) {
    StructFields fields;
    for (uint64_t i = 0; i < rng->Uniform(3); ++i) {
      fields.emplace_back(StrFormat("f%llu", (unsigned long long)i),
                          RandomCell(rng, depth + 1));
    }
    return Value::Struct(std::move(fields));
  }
  return RandomScalar(rng);
}

/// A cell of a column that keeps to one scalar type (or null).
Value TypedCell(Rng* rng, int type) {
  if (rng->Bernoulli(0.1)) return Value::Null();
  switch (type) {
    case 0:
      return Value::Int(static_cast<int64_t>(rng->Uniform(20)) - 5);
    case 1:
      return Value::Double(rng->NextDouble() * 20.0 - 5.0);
    case 2:
      return Value::Bool(rng->Bernoulli(0.5));
    default:
      return Value::String(StrFormat("s%llu",
                                     (unsigned long long)rng->Uniform(12)));
  }
}

std::vector<Value> RandomBatch(Rng* rng) {
  const uint64_t num_rows = rng->Uniform(60);
  const uint64_t num_cols = 1 + rng->Uniform(5);
  const uint64_t shape = rng->Uniform(3);  // typed, mixed, irregular
  std::vector<int> types;
  for (uint64_t c = 0; c < num_cols; ++c) {
    types.push_back(static_cast<int>(rng->Uniform(4)));
  }
  std::vector<Value> rows;
  for (uint64_t r = 0; r < num_rows; ++r) {
    if (shape == 2 && rng->Bernoulli(0.1)) {
      rows.push_back(RandomCell(rng, 0));  // non-struct row
      continue;
    }
    StructFields fields;
    for (uint64_t c = 0; c < num_cols; ++c) {
      if (rng->Bernoulli(0.15)) continue;  // absent
      fields.emplace_back(
          StrFormat("c%llu", (unsigned long long)c),
          shape == 0 ? TypedCell(rng, types[c]) : RandomCell(rng, 0));
    }
    if (shape == 2 && !fields.empty() && rng->Bernoulli(0.1)) {
      fields.push_back(fields.front());  // duplicate name
    }
    rows.push_back(Value::Struct(std::move(fields)));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Random filters: conjunctions of simple comparisons (present and absent
// columns, null literals, both operand orders) and residual factors
// (nested paths, OR trees, NOT, UDFs — one of which can fail).

std::string RandomColumn(Rng* rng) {
  return rng->Bernoulli(0.15)
             ? std::string("absent")
             : StrFormat("c%llu", (unsigned long long)rng->Uniform(5));
}

Expr::CompareOp RandomOp(Rng* rng) {
  return static_cast<Expr::CompareOp>(rng->Uniform(6));
}

ExprPtr RandomSimple(Rng* rng) {
  ExprPtr col = Col(RandomColumn(rng));
  ExprPtr lit = Lit(RandomScalar(rng));
  return rng->Bernoulli(0.8) ? Compare(RandomOp(rng), col, lit)
                             : Compare(RandomOp(rng), lit, col);
}

ExprPtr RandomResidual(Rng* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return Compare(RandomOp(rng),
                     Path({PathStep::Field(RandomColumn(rng)),
                           PathStep::Field("f0")}),
                     Lit(RandomScalar(rng)));
    case 1:
      return Or(RandomSimple(rng), RandomSimple(rng));
    case 2:
      return Not(RandomSimple(rng));
    case 3: {
      const std::string column = RandomColumn(rng);
      return MakeUdf("hash_keep", 3.0, [column](const Value& row) {
        const Value* v = row.FindField(column);
        return Value::Bool(v != nullptr && v->Hash() % 3 != 0);
      });
    }
    default:
      return MakeUdf("picky", 2.0, [](const Value& row) -> Result<Value> {
        const Value* v = row.FindField("c1");
        if (v != nullptr && v->type() == Value::Type::kString &&
            v->string_value() == "e") {
          return Status::InvalidArgument("picky udf rejects 'e'");
        }
        return Value::Bool(true);
      });
  }
}

ExprPtr RandomFilter(Rng* rng) {
  std::vector<ExprPtr> factors;
  for (uint64_t n = 1 + rng->Uniform(4); n > 0; --n) {
    factors.push_back(rng->Bernoulli(0.7) ? RandomSimple(rng)
                                          : RandomResidual(rng));
  }
  return Conjoin(factors);
}

class ScanEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanEquivalenceTest, FrameScanMatchesDecodeThenEvaluate) {
  Rng rng(GetParam() * 104729 + 17);
  const int iters = FuzzIters(150);
  uint64_t kept_rows = 0;
  uint64_t dropped_rows = 0;
  for (int iter = 0; iter < iters; ++iter) {
    Dfs dfs;
    auto file = WriteRows(&dfs, "/t", RandomBatch(&rng),
                          /*target_split_bytes=*/1 << 20,
                          SplitFormat::kColumnar);
    ASSERT_TRUE(file.ok());
    const ExprPtr filter = RandomFilter(&rng);
    for (const Split& split : (*file)->splits()) {
      auto rows = DecodeSplitRows(split);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      Result<BatchFilterResult> want =
          columnar::EvalFilterOverRows(filter, *rows);

      ASSERT_TRUE(VerifySplit(split).ok());
      auto frame = OpenColumnarFrame(split);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      FrameRows frame_rows(std::move(*frame));
      Result<BatchFilterResult> got =
          columnar::EvalFilterOverFrame(filter, &frame_rows);

      ASSERT_EQ(got.ok(), want.ok()) << filter->ToString();
      if (!want.ok()) {
        EXPECT_EQ(got.status().ToString(), want.status().ToString());
        continue;
      }
      ASSERT_EQ(got->keep, want->keep) << filter->ToString();
      EXPECT_EQ(got->cpu_units, want->cpu_units) << filter->ToString();
      EXPECT_EQ(got->vectorized_evals, want->vectorized_evals);
      for (size_t i = 0; i < rows->size(); ++i) {
        if (!want->keep[i]) {
          ++dropped_rows;
          continue;
        }
        ++kept_rows;
        ASSERT_EQ(Encoded(frame_rows.Take(i)), Encoded((*rows)[i]))
            << "row " << i << " under " << filter->ToString();
      }
    }
  }
  // The generator exercises both outcomes.
  EXPECT_GT(kept_rows, 0u);
  EXPECT_GT(dropped_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(FrameRowsTest, TakeReusesAResidualBuildAndRebuildsAfterward) {
  std::vector<Value> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"s", Value::String(StrFormat("v%d", i))}}));
  }
  Dfs dfs;
  auto file = WriteRows(&dfs, "/t", rows, /*target_split_bytes=*/1 << 20,
                        SplitFormat::kColumnar);
  ASSERT_TRUE(file.ok());
  auto frame = OpenColumnarFrame((*file)->splits()[0]);
  ASSERT_TRUE(frame.ok());
  FrameRows frame_rows(std::move(*frame));
  EXPECT_EQ(Encoded(frame_rows.Get(2)), Encoded(rows[2]));
  EXPECT_EQ(Encoded(frame_rows.Take(2)), Encoded(rows[2]));
  EXPECT_EQ(Encoded(frame_rows.Take(2)), Encoded(rows[2]));
  EXPECT_EQ(Encoded(frame_rows.Get(2)), Encoded(rows[2]));
  EXPECT_EQ(Encoded(frame_rows.Take(4)), Encoded(rows[4]));
}

TEST(OpenColumnarFrameTest, RecordCountMismatchIsDataLoss) {
  std::vector<Value> rows = {MakeRow({{"id", Value::Int(1)}}),
                             MakeRow({{"id", Value::Int(2)}})};
  Dfs dfs;
  auto file = WriteRows(&dfs, "/t", rows, /*target_split_bytes=*/1 << 20,
                        SplitFormat::kColumnar);
  ASSERT_TRUE(file.ok());
  Split split = (*file)->splits()[0];
  split.num_records = 3;
  auto frame = OpenColumnarFrame(split);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(frame.status().message(), "split decoded 2 records, expected 3");
}

// ---------------------------------------------------------------------------
// Poison meets late materialization: skip-mode quarantine must hold the
// poison records the pushed filter drops, exactly as the row path does.

std::string FileBytes(const DfsFile& file) {
  std::string all;
  for (const Split& split : file.splits()) all += split.data;
  return all;
}

struct ScanOutcome {
  std::string output;
  std::string quarantine;
  std::vector<Value> quarantined;
  uint64_t records_quarantined = 0;
};

ScanOutcome RunPoisonedFilteredScan(SplitFormat format) {
  Dfs dfs;
  ClusterConfig config;
  config.job_startup_ms = 1000;
  // Poison is drawn per task at its first launch, in launch order. With a
  // slot per split every task launches at once in split order, so both
  // formats draw the same poison although their tasks run for different
  // simulated times.
  config.map_slots = 64;
  config.reduce_slots = 2;
  config.faults.use_env_defaults = false;
  config.faults.retry_backoff_ms = 100;
  config.faults.seed = 11;
  config.faults.poison_record_rate = 0.05;
  config.faults.max_skipped_records = -1;
  MapReduceEngine engine(&dfs, config);

  std::vector<Value> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"g", Value::Int(i % 7)},
                            {"s", Value::String(StrFormat("row-%d", i))}}));
  }
  auto input = WriteRows(&dfs, "/in", rows, /*target_split_bytes=*/512,
                         format);
  EXPECT_TRUE(input.ok());

  JobSpec spec;
  spec.name = "filtered-scan";
  spec.output_path = "/out";
  MapInput mi;
  mi.file = *input;
  mi.scan_filter = And(Lt(Col("g"), LitInt(3)),
                       Ne(Col("s"), LitString("row-15")));
  mi.scan_filter_cpu = mi.scan_filter->CpuCost();
  mi.map_fn = [](const Value& record, MapContext* ctx) -> Status {
    ctx->Output(record);
    return Status::OK();
  };
  spec.inputs = {std::move(mi)};
  auto result = engine.Submit(spec);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();

  ScanOutcome outcome;
  outcome.output = FileBytes(*result->output);
  outcome.records_quarantined = result->records_quarantined;
  auto quarantine = dfs.Open(result->quarantine_path);
  EXPECT_TRUE(quarantine.ok());
  outcome.quarantine = FileBytes(**quarantine);
  auto quarantined = ReadAllRows(**quarantine);
  EXPECT_TRUE(quarantined.ok());
  outcome.quarantined = std::move(*quarantined);
  return outcome;
}

TEST(LateMaterializationPoisonTest, QuarantineMatchesRowFormatScan) {
  ScanOutcome row = RunPoisonedFilteredScan(SplitFormat::kRow);
  ScanOutcome col = RunPoisonedFilteredScan(SplitFormat::kColumnar);
  ASSERT_GT(row.records_quarantined, 0u);
  // Some quarantined records fail the filter (their rows were built only
  // for the quarantine) and some pass it.
  int failing = 0;
  int passing = 0;
  for (const Value& record : row.quarantined) {
    ++(record.FindField("g")->int_value() < 3 ? passing : failing);
  }
  EXPECT_GT(failing, 0);
  EXPECT_GT(passing, 0);

  EXPECT_EQ(col.records_quarantined, row.records_quarantined);
  EXPECT_EQ(col.quarantine, row.quarantine);
  EXPECT_EQ(col.output, row.output);
}

}  // namespace
}  // namespace dyno
