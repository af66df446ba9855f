#include "columnar/batch_eval.h"

#include <string>
#include <utility>

namespace dyno::columnar {

namespace {

bool CompareMatches(Expr::CompareOp op, int cmp) {
  switch (op) {
    case Expr::CompareOp::kEq: return cmp == 0;
    case Expr::CompareOp::kNe: return cmp != 0;
    case Expr::CompareOp::kLt: return cmp < 0;
    case Expr::CompareOp::kLe: return cmp <= 0;
    case Expr::CompareOp::kGt: return cmp > 0;
    case Expr::CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

/// A row vector as the evaluator's input: cells are FindField lookups.
class VectorSource {
 public:
  explicit VectorSource(const std::vector<Value>& rows) : rows_(rows) {}

  uint64_t size() const { return rows_.size(); }
  const std::string& Bind(const std::string& column) const { return column; }
  const Value* Cell(const std::string& column, uint64_t i, Value*) const {
    return rows_[i].FindField(column);
  }
  const Value& Row(uint64_t i) const { return rows_[i]; }

 private:
  const std::vector<Value>& rows_;
};

/// A frame as the evaluator's input. A cell is read from its own column,
/// with FindField's answer on the built row: the first column of that name
/// present in the row wins. Irregular frames hold whole rows, so their
/// cells are read from the built row itself.
class FrameSource {
 public:
  struct Binding {
    const std::string* name;
    std::vector<size_t> columns;  ///< Columns named `*name`, in order.
  };

  explicit FrameSource(FrameRows* rows) : rows_(rows) {}

  uint64_t size() const { return rows_->size(); }
  Binding Bind(const std::string& column) const {
    Binding b{&column, {}};
    const FrameReader& frame = rows_->frame();
    if (frame.irregular()) return b;
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      if (frame.column_name(c) == column) b.columns.push_back(c);
    }
    return b;
  }
  const Value* Cell(const Binding& b, uint64_t i, Value* buffer) const {
    const FrameReader& frame = rows_->frame();
    if (frame.irregular()) return rows_->Get(i).FindField(*b.name);
    for (size_t c : b.columns) {
      switch (frame.presence(c, i)) {
        case Presence::kAbsent:
          continue;
        case Presence::kNull:
          *buffer = Value::Null();
          return buffer;
        case Presence::kSet:
          *buffer = frame.Cell(c, i);
          return buffer;
      }
    }
    return nullptr;
  }
  const Value& Row(uint64_t i) const { return rows_->Get(i); }

 private:
  FrameRows* rows_;
};

/// The one filter evaluator. `Source` supplies rows and cells; a cell it
/// has to build goes into the caller's buffer.
template <typename Source>
Result<BatchFilterResult> Evaluate(const ExprPtr& filter, const Source& source) {
  BatchFilterResult result;
  const uint64_t n = source.size();
  result.keep.assign(n, 1);
  if (filter == nullptr) {
    return Status::InvalidArgument("batch filter eval needs a filter");
  }

  std::vector<ExprPtr> factors;
  DecomposeConjunction(filter, &factors);

  // Vectorizable factors first (selection-vector cascade), then the
  // residual factors via Expr::Eval on whatever is still selected. Keep
  // bits match row-at-a-time evaluation exactly: a conjunction is truthy
  // iff every factor is, and comparison factors are pure.
  struct SimpleFactor {
    std::string column;
    Expr::CompareOp op;
    Value literal;
    double cpu = 0.0;
  };
  std::vector<SimpleFactor> simple;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& factor : factors) {
    SimpleFactor sf;
    if (factor->AsSimpleComparison(&sf.column, &sf.op, &sf.literal)) {
      sf.cpu = factor->CpuCost();
      simple.push_back(std::move(sf));
    } else {
      residual.push_back(factor);
    }
  }

  uint64_t selected = n;
  Value buffer;
  for (const SimpleFactor& sf : simple) {
    result.cpu_units +=
        kVectorizedCpuFraction * sf.cpu * static_cast<double>(selected);
    result.vectorized_evals += selected;
    const auto column = source.Bind(sf.column);
    for (uint64_t i = 0; i < n; ++i) {
      if (!result.keep[i]) continue;
      // SQL-ish null semantics: a comparison on null/missing is false.
      bool pass = false;
      if (!sf.literal.is_null()) {
        const Value* v = source.Cell(column, i, &buffer);
        pass = v != nullptr && !v->is_null() &&
               CompareMatches(sf.op, v->Compare(sf.literal));
      }
      if (!pass) {
        result.keep[i] = 0;
        --selected;
      }
    }
  }
  for (const ExprPtr& factor : residual) {
    const double cpu = factor->CpuCost();
    for (uint64_t i = 0; i < n; ++i) {
      if (!result.keep[i]) continue;
      result.cpu_units += cpu;
      DYNO_ASSIGN_OR_RETURN(Value v, factor->Eval(source.Row(i)));
      if (v.type() != Value::Type::kBool || !v.bool_value()) {
        result.keep[i] = 0;
        --selected;
      }
    }
  }
  return result;
}

}  // namespace

Result<BatchFilterResult> EvalFilterOverRows(const ExprPtr& filter,
                                             const std::vector<Value>& rows) {
  return Evaluate(filter, VectorSource(rows));
}

const Value& FrameRows::Get(uint64_t i) {
  if (rows_.empty()) {
    rows_.resize(size());
    built_.assign(size(), 0);
  }
  if (!built_[i]) {
    rows_[i] = frame_.Row(i);
    built_[i] = 1;
  }
  return rows_[i];
}

Value FrameRows::Take(uint64_t i) {
  if (rows_.empty() || !built_[i]) return frame_.Row(i);
  built_[i] = 0;
  return std::move(rows_[i]);
}

Result<BatchFilterResult> EvalFilterOverFrame(const ExprPtr& filter,
                                              FrameRows* rows) {
  return Evaluate(filter, FrameSource(rows));
}

}  // namespace dyno::columnar
