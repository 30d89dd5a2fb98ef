#include "ir/normalize.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "lang/scalar_ops.h"
#include "lang/type_check.h"

namespace mitos::ir {

namespace {

using lang::Expr;
using lang::ExprKind;
using lang::ExprPtr;
using lang::Program;
using lang::Stmt;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

// Wraps ApplyBinOp as an element-level function. Type errors inside the
// generated closure are programming errors at that point (the original
// program type-checked), so they abort rather than propagate.
lang::BinaryFn BinOpFn(lang::BinOpKind op) {
  return {std::string("binop:") + lang::BinOpName(op),
          [op](const Datum& a, const Datum& b) {
            StatusOr<Datum> r = lang::ApplyBinOp(op, a, b);
            MITOS_CHECK(r.ok()) << r.status().ToString();
            return *r;
          }};
}

lang::UnaryFn BindLeft(lang::BinOpKind op, Datum lit) {
  return {std::string("binopL:") + lang::BinOpName(op),
          [op, lit](const Datum& x) {
            StatusOr<Datum> r = lang::ApplyBinOp(op, lit, x);
            MITOS_CHECK(r.ok()) << r.status().ToString();
            return *r;
          }};
}

lang::UnaryFn BindRight(lang::BinOpKind op, Datum lit) {
  return {std::string("binopR:") + lang::BinOpName(op),
          [op, lit](const Datum& x) {
            StatusOr<Datum> r = lang::ApplyBinOp(op, x, lit);
            MITOS_CHECK(r.ok()) << r.status().ToString();
            return *r;
          }};
}

lang::UnaryFn NotFn() {
  return {"not", [](const Datum& x) {
            MITOS_CHECK(x.is_bool()) << "'!' on non-boolean";
            return Datum::Bool(!x.boolean());
          }};
}

class Normalizer {
 public:
  explicit Normalizer(const lang::TypeCheckResult& types) : types_(types) {}

  StatusOr<NormalizeResult> Run(const Program& program) {
    scopes_.emplace_back();
    MITOS_RETURN_IF_ERROR(NormStmts(program.stmts));
    NormalizeResult result;
    result.program.stmts = std::move(scopes_.back());
    result.singleton_vars = std::move(singletons_);
    return result;
  }

 private:
  bool ExprIsBag(const Expr& e) const {
    if (lang::IsBagExprKind(e.kind)) return true;
    if (e.kind == ExprKind::kVarRef) {
      auto it = types_.var_types.find(e.var);
      return it != types_.var_types.end() && it->second == lang::VarType::kBag;
    }
    return false;
  }

  std::string FreshTmp() { return "_t" + std::to_string(++tmp_counter_); }
  std::string FreshCond() { return "_cond" + std::to_string(++cond_counter_); }

  void Emit(StmtPtr stmt) { scopes_.back().push_back(std::move(stmt)); }

  void EmitAssign(const std::string& target, ExprPtr op, bool singleton) {
    if (singleton) singletons_.insert(target);
    Emit(lang::Assign(target, std::move(op)));
  }

  // ----- bag world -----

  // Normalizes a bag expression used as an operand; returns the variable
  // holding its value (emitting temporaries as needed).
  StatusOr<std::string> BagOperand(const Expr& e) {
    if (e.kind == ExprKind::kVarRef) return e.var;
    if (e.kind == ExprKind::kScalarFromBag) {
      // As an operand, scalarOf(b) is just b's one-element bag.
      return BagOperand(*e.a);
    }
    StatusOr<ExprPtr> op = ExprIsBag(e) ? BagOpOf(e) : ScalarOpOf(e);
    if (!op.ok()) return op.status();
    std::string tmp = FreshTmp();
    EmitAssign(tmp, std::move(op).value(), !ExprIsBag(e));
    return tmp;
  }

  // Normalizes a scalar expression used as an operand; returns the variable
  // holding its one-element bag.
  StatusOr<std::string> ScalarOperand(const Expr& e) {
    if (e.kind == ExprKind::kVarRef) return e.var;
    if (e.kind == ExprKind::kScalarFromBag) return BagOperand(*e.a);
    StatusOr<ExprPtr> op = ScalarOpOf(e);
    if (!op.ok()) return op.status();
    std::string tmp = FreshTmp();
    EmitAssign(tmp, std::move(op).value(), true);
    return tmp;
  }

  // Returns a single bag operation with variable-reference operands that is
  // equivalent to bag expression `e` (emitting temporaries for operands).
  StatusOr<ExprPtr> BagOpOf(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kBagLit:
        return lang::BagLit(e.bag_lit);
      case ExprKind::kFromScalar:
        return ScalarOpOf(*e.a);
      case ExprKind::kReadFile: {
        StatusOr<std::string> fn = ScalarOperand(*e.a);
        if (!fn.ok()) return fn.status();
        return lang::ReadFile(lang::Var(*fn));
      }
      case ExprKind::kMap: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Map(lang::Var(*in), e.unary);
      }
      case ExprKind::kFilter: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Filter(lang::Var(*in), e.pred);
      }
      case ExprKind::kFlatMap: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::FlatMap(lang::Var(*in), e.flat);
      }
      case ExprKind::kReduceByKey: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::ReduceByKey(lang::Var(*in), e.binary);
      }
      case ExprKind::kReduce: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Reduce(lang::Var(*in), e.binary);
      }
      case ExprKind::kDistinct: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Distinct(lang::Var(*in));
      }
      case ExprKind::kCount: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Count(lang::Var(*in));
      }
      case ExprKind::kJoin: {
        StatusOr<std::string> a = BagOperand(*e.a);
        if (!a.ok()) return a.status();
        StatusOr<std::string> b = BagOperand(*e.b);
        if (!b.ok()) return b.status();
        return lang::Join(lang::Var(*a), lang::Var(*b));
      }
      case ExprKind::kUnion: {
        StatusOr<std::string> a = BagOperand(*e.a);
        if (!a.ok()) return a.status();
        StatusOr<std::string> b = BagOperand(*e.b);
        if (!b.ok()) return b.status();
        return lang::Union(lang::Var(*a), lang::Var(*b));
      }
      case ExprKind::kCombine2: {
        StatusOr<std::string> a = BagOperand(*e.a);
        if (!a.ok()) return a.status();
        StatusOr<std::string> b = BagOperand(*e.b);
        if (!b.ok()) return b.status();
        return lang::Combine2(lang::Var(*a), lang::Var(*b), e.binary);
      }
      default:
        return Status::Internal("BagOpOf on non-bag expression: " +
                                lang::ToSource(e));
    }
  }

  // ----- scalar world (wraps into one-element bags, paper Sec. 4.1) -----

  // Returns a single bag operation computing scalar expression `e` as a
  // one-element bag.
  StatusOr<ExprPtr> ScalarOpOf(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLit:
        return lang::BagLit({e.lit});
      case ExprKind::kVarRef:
        // A scalar copy materializes as an identity map node (the paper's
        // Figure 3 materializes yesterdayCnts3 = counts the same way).
        return lang::Map(lang::Var(e.var), lang::fns::Identity());
      case ExprKind::kScalarFromBag: {
        StatusOr<std::string> in = BagOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Map(lang::Var(*in), lang::fns::Identity());
      }
      case ExprKind::kNot: {
        StatusOr<std::string> in = ScalarOperand(*e.a);
        if (!in.ok()) return in.status();
        return lang::Map(lang::Var(*in), NotFn());
      }
      case ExprKind::kBinOp: {
        const bool a_lit = e.a->kind == ExprKind::kLit;
        const bool b_lit = e.b->kind == ExprKind::kLit;
        if (a_lit && b_lit) {
          // Constant-fold at compile time.
          StatusOr<Datum> folded =
              lang::ApplyBinOp(e.binop, e.a->lit, e.b->lit);
          if (!folded.ok()) return folded.status();
          return lang::BagLit({*folded});
        }
        if (a_lit) {
          // Fold the literal into the closure: day.map(x => lit op x).
          StatusOr<std::string> in = ScalarOperand(*e.b);
          if (!in.ok()) return in.status();
          return lang::Map(lang::Var(*in), BindLeft(e.binop, e.a->lit));
        }
        if (b_lit) {
          StatusOr<std::string> in = ScalarOperand(*e.a);
          if (!in.ok()) return in.status();
          return lang::Map(lang::Var(*in), BindRight(e.binop, e.b->lit));
        }
        StatusOr<std::string> a = ScalarOperand(*e.a);
        if (!a.ok()) return a.status();
        StatusOr<std::string> b = ScalarOperand(*e.b);
        if (!b.ok()) return b.status();
        return lang::Combine2(lang::Var(*a), lang::Var(*b), BinOpFn(e.binop));
      }
      default:
        return Status::Internal("ScalarOpOf on non-scalar expression: " +
                                lang::ToSource(e));
    }
  }

  // ----- conditions -----

  // Normalizes a condition expression into a variable reference, emitting
  // the statement(s) computing it. Returns the condition variable name.
  StatusOr<std::string> EmitCondition(const Expr& cond) {
    if (cond.kind == ExprKind::kVarRef) return cond.var;
    if (cond.kind == ExprKind::kScalarFromBag &&
        cond.a->kind == ExprKind::kVarRef) {
      return cond.a->var;
    }
    std::string cv = FreshCond();
    StatusOr<ExprPtr> op = ExprIsBag(cond) ? BagOpOf(cond) : ScalarOpOf(cond);
    if (!op.ok()) return op.status();
    EmitAssign(cv, std::move(op).value(), !ExprIsBag(cond));
    return cv;
  }

  // Re-emits the condition computation targeting the SAME variable `cv`
  // (used at the end of while-loop bodies so the next test sees fresh
  // values).
  Status ReEmitCondition(const Expr& cond, const std::string& cv) {
    if (cond.kind == ExprKind::kVarRef) return Status::Ok();  // no recompute
    if (cond.kind == ExprKind::kScalarFromBag &&
        cond.a->kind == ExprKind::kVarRef) {
      return Status::Ok();
    }
    StatusOr<ExprPtr> op = ExprIsBag(cond) ? BagOpOf(cond) : ScalarOpOf(cond);
    if (!op.ok()) return op.status();
    EmitAssign(cv, std::move(op).value(), !ExprIsBag(cond));
    return Status::Ok();
  }

  // ----- statements -----

  Status NormStmts(const StmtList& stmts) {
    for (const StmtPtr& stmt : stmts) {
      MITOS_RETURN_IF_ERROR(NormStmt(*stmt));
    }
    return Status::Ok();
  }

  Status NormStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kAssign: {
        const Expr& rhs = *stmt.expr;
        if (ExprIsBag(rhs)) {
          StatusOr<ExprPtr> op =
              (rhs.kind == ExprKind::kVarRef)
                  ? StatusOr<ExprPtr>(lang::Map(lang::Var(rhs.var),
                                                lang::fns::Identity()))
                  : BagOpOf(rhs);
          if (!op.ok()) return op.status();
          bool singleton = rhs.kind == ExprKind::kVarRef &&
                           singletons_.count(rhs.var) > 0;
          EmitAssign(stmt.var, std::move(op).value(), singleton);
        } else {
          StatusOr<ExprPtr> op = ScalarOpOf(rhs);
          if (!op.ok()) return op.status();
          EmitAssign(stmt.var, std::move(op).value(), true);
        }
        return Status::Ok();
      }
      case StmtKind::kWhile: {
        StatusOr<std::string> cv = EmitCondition(*stmt.expr);
        if (!cv.ok()) return cv.status();
        scopes_.emplace_back();
        MITOS_RETURN_IF_ERROR(NormStmts(stmt.body));
        MITOS_RETURN_IF_ERROR(ReEmitCondition(*stmt.expr, *cv));
        StmtList body = std::move(scopes_.back());
        scopes_.pop_back();
        Emit(lang::While(lang::Var(*cv), std::move(body)));
        return Status::Ok();
      }
      case StmtKind::kDoWhile: {
        scopes_.emplace_back();
        MITOS_RETURN_IF_ERROR(NormStmts(stmt.body));
        StatusOr<std::string> cv = EmitCondition(*stmt.expr);
        if (!cv.ok()) return cv.status();
        StmtList body = std::move(scopes_.back());
        scopes_.pop_back();
        Emit(lang::DoWhile(std::move(body), lang::Var(*cv)));
        return Status::Ok();
      }
      case StmtKind::kIf: {
        StatusOr<std::string> cv = EmitCondition(*stmt.expr);
        if (!cv.ok()) return cv.status();
        scopes_.emplace_back();
        MITOS_RETURN_IF_ERROR(NormStmts(stmt.body));
        StmtList then_body = std::move(scopes_.back());
        scopes_.pop_back();
        scopes_.emplace_back();
        MITOS_RETURN_IF_ERROR(NormStmts(stmt.else_body));
        StmtList else_body = std::move(scopes_.back());
        scopes_.pop_back();
        Emit(lang::If(lang::Var(*cv), std::move(then_body),
                      std::move(else_body)));
        return Status::Ok();
      }
      case StmtKind::kWriteFile: {
        StatusOr<std::string> bag = BagOperand(*stmt.expr);
        if (!bag.ok()) return bag.status();
        StatusOr<std::string> filename =
            ExprIsBag(*stmt.filename) ? BagOperand(*stmt.filename)
                                      : ScalarOperand(*stmt.filename);
        if (!filename.ok()) return filename.status();
        Emit(lang::WriteFile(lang::Var(*bag), lang::Var(*filename)));
        return Status::Ok();
      }
    }
    return Status::Internal("unknown statement kind");
  }
  const lang::TypeCheckResult& types_;
  std::vector<StmtList> scopes_;
  std::set<std::string> singletons_;
  int tmp_counter_ = 0;
  int cond_counter_ = 0;
};

bool IsSingleOpWithVarOperands(const Expr& e) {
  auto is_var = [](const ExprPtr& p) {
    return p && p->kind == ExprKind::kVarRef;
  };
  switch (e.kind) {
    case ExprKind::kBagLit:
      return true;
    case ExprKind::kReadFile:
    case ExprKind::kMap:
    case ExprKind::kFilter:
    case ExprKind::kFlatMap:
    case ExprKind::kReduceByKey:
    case ExprKind::kReduce:
    case ExprKind::kDistinct:
    case ExprKind::kCount:
      return is_var(e.a);
    case ExprKind::kJoin:
    case ExprKind::kUnion:
    case ExprKind::kCombine2:
      return is_var(e.a) && is_var(e.b);
    default:
      return false;
  }
}

bool StmtsNormalized(const StmtList& stmts) {
  for (const StmtPtr& stmt : stmts) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
        if (!IsSingleOpWithVarOperands(*stmt->expr)) return false;
        break;
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        if (stmt->expr->kind != ExprKind::kVarRef) return false;
        if (!StmtsNormalized(stmt->body)) return false;
        break;
      case StmtKind::kIf:
        if (stmt->expr->kind != ExprKind::kVarRef) return false;
        if (!StmtsNormalized(stmt->body)) return false;
        if (!StmtsNormalized(stmt->else_body)) return false;
        break;
      case StmtKind::kWriteFile:
        if (stmt->expr->kind != ExprKind::kVarRef) return false;
        if (stmt->filename->kind != ExprKind::kVarRef) return false;
        break;
    }
  }
  return true;
}

}  // namespace

StatusOr<NormalizeResult> Normalize(const lang::Program& program) {
  StatusOr<lang::TypeCheckResult> types = lang::TypeCheck(program);
  if (!types.ok()) return types.status();
  Normalizer normalizer(*types);
  return normalizer.Run(program);
}

bool IsNormalized(const lang::Program& program) {
  return StmtsNormalized(program.stmts);
}

}  // namespace mitos::ir
