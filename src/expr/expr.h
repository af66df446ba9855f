#ifndef DYNO_EXPR_EXPR_H_
#define DYNO_EXPR_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "json/value.h"

namespace dyno {

class Expr;
/// Expressions are immutable shared trees; plans copy them freely.
using ExprPtr = std::shared_ptr<const Expr>;

/// One step of a path into a nested value: a struct field or array index.
/// `addr[0].zip` is {Field("addr"), Index(0), Field("zip")}.
struct PathStep {
  enum class Kind { kField, kIndex };
  Kind kind;
  std::string field;  ///< Valid when kind == kField.
  size_t index = 0;   ///< Valid when kind == kIndex.

  static PathStep Field(std::string name) {
    return PathStep{Kind::kField, std::move(name), 0};
  }
  static PathStep Index(size_t i) {
    return PathStep{Kind::kIndex, {}, i};
  }
};

/// A scalar expression evaluated against one input row (a struct Value).
/// The tree is closed: the full node-kind set is below, and evaluation
/// dispatches on `kind()`. UDF nodes wrap opaque user code — the optimizer
/// can see that a UDF exists (and its declared CPU cost) but never its
/// selectivity, exactly the information asymmetry the paper targets.
class Expr {
 public:
  enum class Kind {
    kLiteral,
    kPath,      // column / nested-path reference
    kCompare,   // =, <>, <, <=, >, >=
    kLogical,   // AND, OR, NOT
    kArith,     // +, -, *, /
    kUdf,       // opaque user-defined function
  };

  enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
  enum class LogicalOp { kAnd, kOr, kNot };
  enum class ArithOp { kAdd, kSub, kMul, kDiv };

  /// Signature of opaque user code: row in, value out. Filter UDFs return
  /// Bool; transform UDFs may return anything (including values larger than
  /// their input — the case that makes broadcast-join sizing dangerous).
  using UdfFn = std::function<Result<Value>(const Value& row)>;

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Evaluates against `row`. Missing struct fields and out-of-range array
  /// indexes evaluate to null (JSON semantics), not errors.
  virtual Result<Value> Eval(const Value& row) const = 0;

  /// Deterministic textual form; doubles as the expression-signature
  /// component for statistics reuse (paper §4.1).
  virtual std::string ToString() const = 0;

  /// Per-row CPU cost in abstract units (1 unit = one cheap scalar op).
  /// UDFs report their declared cost. Used by the simulator's task timing.
  virtual double CpuCost() const = 0;

  /// Appends the names of top-level columns this expression reads.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  /// True if any node in the tree is a UDF.
  virtual bool ContainsUdf() const = 0;

  /// If this node is `column <op> literal` (or `literal <op> column`) over
  /// a single top-level column, fills the outputs and returns true. This is
  /// the shape a traditional optimizer can estimate from histograms;
  /// anything else (UDFs, nested paths, cross-column comparisons) is opaque
  /// to it.
  virtual bool AsSimpleComparison(std::string* column, CompareOp* op,
                                  Value* literal) const {
    (void)column;
    (void)op;
    (void)literal;
    return false;
  }

  /// If this node is `lhs AND rhs`, fills the outputs and returns true —
  /// used to decompose predicate conjunctions for per-factor selectivity
  /// estimation (where the independence assumption then bites).
  virtual bool AsConjunction(ExprPtr* lhs, ExprPtr* rhs) const {
    (void)lhs;
    (void)rhs;
    return false;
  }

  /// If this node is a logical connective, fills the outputs and returns
  /// true. `*rhs` is nullptr for NOT. Lets structural analyses (zone-map
  /// pruning) walk AND/OR/NOT trees without evaluating them.
  virtual bool AsLogical(LogicalOp* op, const Expr** lhs,
                         const Expr** rhs) const {
    (void)op;
    (void)lhs;
    (void)rhs;
    return false;
  }

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// --- Factory functions (the public construction API) ---

/// A constant.
ExprPtr Lit(Value v);
/// Shorthand literals.
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr LitString(std::string v);

/// A top-level column reference.
ExprPtr Col(std::string name);
/// A nested path reference, e.g. Path({Field("addr"),Index(0),Field("zip")}).
ExprPtr Path(std::vector<PathStep> steps);

ExprPtr Compare(Expr::CompareOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);

ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);

ExprPtr Arith(Expr::ArithOp op, ExprPtr lhs, ExprPtr rhs);

/// An opaque UDF. `name` identifies it in plans and signatures; `cpu_cost`
/// is the declared per-row cost (UDF bodies are often expensive — sentiment
/// analysis in the paper's Q1); `fn` is the hidden implementation.
ExprPtr MakeUdf(std::string name, double cpu_cost, Expr::UdfFn fn);

/// Conjunction of a predicate list (nullptr for an empty list).
ExprPtr Conjoin(const std::vector<ExprPtr>& preds);

/// Flattens nested conjunctions into their factors (a single non-AND
/// expression yields itself).
void DecomposeConjunction(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Evaluates a boolean filter against one row; non-bool/null results count
/// as false (the engine's scan semantics). A null filter keeps everything.
Result<bool> EvalFilter(const ExprPtr& filter, const Value& row);

}  // namespace dyno

#endif  // DYNO_EXPR_EXPR_H_
