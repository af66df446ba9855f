#ifndef DYNO_COLUMNAR_BATCH_EVAL_H_
#define DYNO_COLUMNAR_BATCH_EVAL_H_

#include <cstdint>
#include <vector>

#include "columnar/column.h"
#include "common/status.h"
#include "expr/expr.h"
#include "json/value.h"

namespace dyno::columnar {

/// Fraction of a conjunct's declared CPU cost charged per row when it runs
/// vectorized (tight compare loop over a column instead of a tree-walking
/// Eval). The discount is what makes the columnar scan path cheaper on the
/// simulator's clock, mirroring the real-world win of batch evaluation.
constexpr double kVectorizedCpuFraction = 0.25;

/// Outcome of evaluating a filter over one batch of rows.
struct BatchFilterResult {
  /// keep[i] != 0 iff rows[i] passes the filter. Size == rows.size().
  std::vector<uint8_t> keep;
  /// CPU units to charge for the whole evaluation (vectorized factors at
  /// kVectorizedCpuFraction of their cost, residual factors at full cost on
  /// the rows still selected when they run).
  double cpu_units = 0.0;
  /// Row×factor evaluations that ran vectorized (observability only).
  uint64_t vectorized_evals = 0;
};

/// Batch-at-a-time filter evaluation: the filter's conjunction is split
/// into factors; `column <op> literal` factors run as selection-vector
/// compare loops, everything else (UDFs, nested paths, OR trees, ...)
/// falls back to Expr::Eval on the rows that survived the vectorized
/// factors. Result bits are identical to evaluating the filter row-by-row
/// (conjunction semantics: every factor must be truthy).
///
/// `filter` must be non-null.
Result<BatchFilterResult> EvalFilterOverRows(const ExprPtr& filter,
                                             const std::vector<Value>& rows);

/// The rows of one open frame for a late-materialized scan: each is built
/// on first use and kept until taken, so a row a residual filter factor
/// already built is not built again for the map function.
class FrameRows {
 public:
  explicit FrameRows(FrameReader frame) : frame_(std::move(frame)) {}

  const FrameReader& frame() const { return frame_; }
  uint64_t size() const { return frame_.num_rows(); }

  /// Row `i`, built once and kept.
  const Value& Get(uint64_t i);
  /// Row `i` by value: the kept build if there is one, else a fresh one.
  Value Take(uint64_t i);

 private:
  FrameReader frame_;
  std::vector<Value> rows_;     ///< Sized on the first Get.
  std::vector<uint8_t> built_;  ///< built_[i] != 0 iff rows_[i] is kept.
};

/// The same evaluator over a frame, without building the frame's rows:
/// simple factors read only their own column's cells, and residual factors
/// see rows built only at indexes still selected (kept in `rows`). Keep
/// bits, `cpu_units` and `vectorized_evals` equal EvalFilterOverRows over
/// `rows->frame().Rows()`.
Result<BatchFilterResult> EvalFilterOverFrame(const ExprPtr& filter,
                                              FrameRows* rows);

}  // namespace dyno::columnar

#endif  // DYNO_COLUMNAR_BATCH_EVAL_H_
