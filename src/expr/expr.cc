#include "expr/expr.h"

#include <utility>

#include "common/string_util.h"

namespace dyno {

namespace {

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : Expr(Kind::kLiteral), value_(std::move(v)) {}

  Result<Value> Eval(const Value&) const override { return value_; }

  std::string ToString() const override { return value_.ToString(); }

  double CpuCost() const override { return 0.0; }

  void CollectColumns(std::vector<std::string>*) const override {}

  bool ContainsUdf() const override { return false; }

 private:
  Value value_;
};

class PathExpr : public Expr {
 public:
  explicit PathExpr(std::vector<PathStep> steps)
      : Expr(Kind::kPath), steps_(std::move(steps)) {}

  Result<Value> Eval(const Value& row) const override {
    const Value* cur = &row;
    for (const PathStep& step : steps_) {
      if (step.kind == PathStep::Kind::kField) {
        cur = cur->FindField(step.field);
      } else {
        cur = cur->FindElement(step.index);
      }
      if (cur == nullptr) return Value::Null();
    }
    return *cur;
  }

  std::string ToString() const override {
    std::string out;
    for (const PathStep& step : steps_) {
      if (step.kind == PathStep::Kind::kField) {
        if (!out.empty()) out += ".";
        out += step.field;
      } else {
        out += StrFormat("[%zu]", step.index);
      }
    }
    return out;
  }

  double CpuCost() const override {
    return static_cast<double>(steps_.size());
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    if (!steps_.empty() && steps_[0].kind == PathStep::Kind::kField) {
      out->push_back(steps_[0].field);
    }
  }

  bool ContainsUdf() const override { return false; }

  /// Name of the referenced column when this is a bare top-level field
  /// reference, empty otherwise.
  std::string SimpleColumn() const {
    if (steps_.size() == 1 && steps_[0].kind == PathStep::Kind::kField) {
      return steps_[0].field;
    }
    return "";
  }

 private:
  std::vector<PathStep> steps_;
};

Expr::CompareOp MirrorCompareOp(Expr::CompareOp op) {
  switch (op) {
    case Expr::CompareOp::kLt: return Expr::CompareOp::kGt;
    case Expr::CompareOp::kLe: return Expr::CompareOp::kGe;
    case Expr::CompareOp::kGt: return Expr::CompareOp::kLt;
    case Expr::CompareOp::kGe: return Expr::CompareOp::kLe;
    default: return op;  // =, <> are symmetric
  }
}

const char* CompareOpName(Expr::CompareOp op) {
  switch (op) {
    case Expr::CompareOp::kEq: return "=";
    case Expr::CompareOp::kNe: return "<>";
    case Expr::CompareOp::kLt: return "<";
    case Expr::CompareOp::kLe: return "<=";
    case Expr::CompareOp::kGt: return ">";
    case Expr::CompareOp::kGe: return ">=";
  }
  return "?";
}

class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kCompare),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Value& row) const override {
    DYNO_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
    DYNO_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
    // SQL-ish null semantics: comparisons involving null are false.
    if (l.is_null() || r.is_null()) return Value::Bool(false);
    int c = l.Compare(r);
    bool result = false;
    switch (op_) {
      case CompareOp::kEq: result = (c == 0); break;
      case CompareOp::kNe: result = (c != 0); break;
      case CompareOp::kLt: result = (c < 0); break;
      case CompareOp::kLe: result = (c <= 0); break;
      case CompareOp::kGt: result = (c > 0); break;
      case CompareOp::kGe: result = (c >= 0); break;
    }
    return Value::Bool(result);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + CompareOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  double CpuCost() const override {
    return 1.0 + lhs_->CpuCost() + rhs_->CpuCost();
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  bool ContainsUdf() const override {
    return lhs_->ContainsUdf() || rhs_->ContainsUdf();
  }

  bool AsSimpleComparison(std::string* column, CompareOp* op,
                          Value* literal) const override {
    auto extract = [](const ExprPtr& path_side, const ExprPtr& lit_side,
                      std::string* col, Value* lit) {
      if (path_side->kind() != Kind::kPath ||
          lit_side->kind() != Kind::kLiteral) {
        return false;
      }
      std::string name =
          static_cast<const PathExpr*>(path_side.get())->SimpleColumn();
      if (name.empty()) return false;
      Result<Value> v = lit_side->Eval(Value::Null());
      if (!v.ok()) return false;
      *col = std::move(name);
      *lit = std::move(v).value();
      return true;
    };
    if (extract(lhs_, rhs_, column, literal)) {
      *op = op_;
      return true;
    }
    if (extract(rhs_, lhs_, column, literal)) {
      *op = MirrorCompareOp(op_);
      return true;
    }
    return false;
  }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class LogicalExpr : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kLogical),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Value& row) const override {
    DYNO_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
    bool lv = !l.is_null() && l.type() == Value::Type::kBool && l.bool_value();
    switch (op_) {
      case LogicalOp::kNot:
        return Value::Bool(!lv);
      case LogicalOp::kAnd: {
        if (!lv) return Value::Bool(false);  // short-circuit
        DYNO_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
        return Value::Bool(!r.is_null() && r.type() == Value::Type::kBool &&
                           r.bool_value());
      }
      case LogicalOp::kOr: {
        if (lv) return Value::Bool(true);
        DYNO_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
        return Value::Bool(!r.is_null() && r.type() == Value::Type::kBool &&
                           r.bool_value());
      }
    }
    return Status::Internal("bad logical op");
  }

  std::string ToString() const override {
    switch (op_) {
      case LogicalOp::kNot:
        return "NOT " + lhs_->ToString();
      case LogicalOp::kAnd:
        return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
      case LogicalOp::kOr:
        return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    }
    return "?";
  }

  double CpuCost() const override {
    return 1.0 + lhs_->CpuCost() + (rhs_ ? rhs_->CpuCost() : 0.0);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    if (rhs_) rhs_->CollectColumns(out);
  }

  bool ContainsUdf() const override {
    return lhs_->ContainsUdf() || (rhs_ && rhs_->ContainsUdf());
  }

  bool AsConjunction(ExprPtr* lhs, ExprPtr* rhs) const override {
    if (op_ != LogicalOp::kAnd) return false;
    *lhs = lhs_;
    *rhs = rhs_;
    return true;
  }

  bool AsLogical(LogicalOp* op, const Expr** lhs,
                 const Expr** rhs) const override {
    *op = op_;
    *lhs = lhs_.get();
    *rhs = rhs_.get();  // nullptr for NOT
    return true;
  }

 private:
  LogicalOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;  // null for NOT
};

const char* ArithOpName(Expr::ArithOp op) {
  switch (op) {
    case Expr::ArithOp::kAdd: return "+";
    case Expr::ArithOp::kSub: return "-";
    case Expr::ArithOp::kMul: return "*";
    case Expr::ArithOp::kDiv: return "/";
  }
  return "?";
}

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kArith),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Value& row) const override {
    DYNO_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
    DYNO_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
    if (l.is_null() || r.is_null()) return Value::Null();
    bool both_int = l.type() == Value::Type::kInt &&
                    r.type() == Value::Type::kInt &&
                    op_ != ArithOp::kDiv;
    if (both_int) {
      int64_t a = l.int_value();
      int64_t b = r.int_value();
      switch (op_) {
        case ArithOp::kAdd: return Value::Int(a + b);
        case ArithOp::kSub: return Value::Int(a - b);
        case ArithOp::kMul: return Value::Int(a * b);
        default: break;
      }
    }
    if ((l.type() != Value::Type::kInt && l.type() != Value::Type::kDouble) ||
        (r.type() != Value::Type::kInt && r.type() != Value::Type::kDouble)) {
      return Status::InvalidArgument("arithmetic on non-numeric value");
    }
    double a = l.AsDouble();
    double b = r.AsDouble();
    switch (op_) {
      case ArithOp::kAdd: return Value::Double(a + b);
      case ArithOp::kSub: return Value::Double(a - b);
      case ArithOp::kMul: return Value::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0.0) return Value::Null();
        return Value::Double(a / b);
    }
    return Status::Internal("bad arith op");
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + ArithOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  double CpuCost() const override {
    return 1.0 + lhs_->CpuCost() + rhs_->CpuCost();
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }

  bool ContainsUdf() const override {
    return lhs_->ContainsUdf() || rhs_->ContainsUdf();
  }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class UdfExpr : public Expr {
 public:
  UdfExpr(std::string name, double cpu_cost, UdfFn fn)
      : Expr(Kind::kUdf),
        name_(std::move(name)),
        cpu_cost_(cpu_cost),
        fn_(std::move(fn)) {}

  Result<Value> Eval(const Value& row) const override { return fn_(row); }

  std::string ToString() const override { return name_ + "(*)"; }

  double CpuCost() const override { return cpu_cost_; }

  void CollectColumns(std::vector<std::string>*) const override {
    // Opaque: the optimizer cannot see which columns the UDF reads.
  }

  bool ContainsUdf() const override { return true; }

 private:
  std::string name_;
  double cpu_cost_;
  UdfFn fn_;
};

}  // namespace

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }

ExprPtr Col(std::string name) {
  return Path({PathStep::Field(std::move(name))});
}

ExprPtr Path(std::vector<PathStep> steps) {
  return std::make_shared<PathExpr>(std::move(steps));
}

ExprPtr Compare(Expr::CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Compare(Expr::CompareOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return Compare(Expr::CompareOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Compare(Expr::CompareOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Compare(Expr::CompareOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Compare(Expr::CompareOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Compare(Expr::CompareOp::kGe, std::move(l), std::move(r));
}

ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(Expr::LogicalOp::kAnd, std::move(l),
                                       std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(Expr::LogicalOp::kOr, std::move(l),
                                       std::move(r));
}
ExprPtr Not(ExprPtr operand) {
  return std::make_shared<LogicalExpr>(Expr::LogicalOp::kNot,
                                       std::move(operand), nullptr);
}

ExprPtr Arith(Expr::ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr MakeUdf(std::string name, double cpu_cost, Expr::UdfFn fn) {
  return std::make_shared<UdfExpr>(std::move(name), cpu_cost, std::move(fn));
}

ExprPtr Conjoin(const std::vector<ExprPtr>& preds) {
  ExprPtr out;
  for (const ExprPtr& p : preds) {
    out = out ? And(out, p) : p;
  }
  return out;
}

void DecomposeConjunction(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  ExprPtr lhs;
  ExprPtr rhs;
  if (expr->AsConjunction(&lhs, &rhs)) {
    DecomposeConjunction(lhs, out);
    DecomposeConjunction(rhs, out);
  } else {
    out->push_back(expr);
  }
}

Result<bool> EvalFilter(const ExprPtr& filter, const Value& row) {
  if (filter == nullptr) return true;
  DYNO_ASSIGN_OR_RETURN(Value v, filter->Eval(row));
  return v.type() == Value::Type::kBool && v.bool_value();
}

}  // namespace dyno
