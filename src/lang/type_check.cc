#include "lang/type_check.h"

#include <set>
#include <utility>

namespace mitos::lang {

namespace {

class Checker {
 public:
  Status Run(const Program& program) {
    std::set<std::string> defined;
    return CheckStmts(program.stmts, &defined);
  }

  TypeCheckResult TakeResult() { return std::move(result_); }

 private:
  // Infers the type of `expr` under the current variable types, also
  // verifying that every referenced variable is in `defined`.
  StatusOr<VarType> ExprType(const Expr& expr,
                             const std::set<std::string>& defined) {
    switch (expr.kind) {
      case ExprKind::kLit:
        return VarType::kScalar;
      case ExprKind::kVarRef: {
        if (defined.find(expr.var) == defined.end()) {
          return Status::InvalidArgument(
              "variable '" + expr.var +
              "' may be read before it is assigned");
        }
        auto it = result_.var_types.find(expr.var);
        if (it == result_.var_types.end()) {
          return Status::Internal("defined variable without type: " +
                                  expr.var);
        }
        return it->second;
      }
      case ExprKind::kBinOp: {
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.a, VarType::kScalar, defined,
                                         "binary operator operand"));
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.b, VarType::kScalar, defined,
                                         "binary operator operand"));
        return VarType::kScalar;
      }
      case ExprKind::kNot:
        MITOS_RETURN_IF_ERROR(
            ExpectType(*expr.a, VarType::kScalar, defined, "'!' operand"));
        return VarType::kScalar;
      case ExprKind::kScalarFromBag:
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.a, VarType::kBag, defined,
                                         "scalarOf operand"));
        return VarType::kScalar;
      case ExprKind::kBagLit:
        return VarType::kBag;
      case ExprKind::kFromScalar:
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.a, VarType::kScalar, defined,
                                         "newBag operand"));
        return VarType::kBag;
      case ExprKind::kReadFile:
        // The filename is a scalar, or — in Preparator output, where every
        // scalar has been wrapped — a one-element bag (paper Sec. 4.1).
        MITOS_RETURN_IF_ERROR(ExpectAnyType(*expr.a, defined));
        return VarType::kBag;
      case ExprKind::kMap:
      case ExprKind::kFilter:
      case ExprKind::kFlatMap:
      case ExprKind::kReduceByKey:
      case ExprKind::kReduce:
      case ExprKind::kDistinct:
      case ExprKind::kCount:
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.a, VarType::kBag, defined,
                                         "bag operation input"));
        return VarType::kBag;
      case ExprKind::kJoin:
      case ExprKind::kUnion:
      case ExprKind::kCombine2:
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.a, VarType::kBag, defined,
                                         "binary bag operation input"));
        MITOS_RETURN_IF_ERROR(ExpectType(*expr.b, VarType::kBag, defined,
                                         "binary bag operation input"));
        return VarType::kBag;
    }
    return Status::Internal("unknown expression kind");
  }

  Status ExpectType(const Expr& expr, VarType want,
                    const std::set<std::string>& defined,
                    const char* where) {
    StatusOr<VarType> got = ExprType(expr, defined);
    if (!got.ok()) return got.status();
    if (*got != want) {
      return Status::InvalidArgument(
          std::string(where) + " has wrong type (" +
          (want == VarType::kBag ? "bag" : "scalar") + " expected): " +
          lang::ToSource(expr));
    }
    return Status::Ok();
  }

  // Accepts either type, still verifying def-before-use. Used where the
  // language admits both a scalar and its one-element-bag wrapping:
  // conditions and file names (paper Sec. 4.1: ifCond/exitCond in the IR
  // *are* one-element bags).
  Status ExpectAnyType(const Expr& expr,
                       const std::set<std::string>& defined) {
    StatusOr<VarType> got = ExprType(expr, defined);
    if (!got.ok()) return got.status();
    return Status::Ok();
  }

  Status CheckStmts(const StmtList& stmts, std::set<std::string>* defined) {
    for (const StmtPtr& stmt : stmts) {
      MITOS_RETURN_IF_ERROR(CheckStmt(*stmt, defined));
    }
    return Status::Ok();
  }

  Status CheckStmt(const Stmt& stmt, std::set<std::string>* defined) {
    switch (stmt.kind) {
      case StmtKind::kAssign: {
        StatusOr<VarType> type = ExprType(*stmt.expr, *defined);
        if (!type.ok()) return type.status();
        auto it = result_.var_types.find(stmt.var);
        if (it != result_.var_types.end() && it->second != *type) {
          return Status::InvalidArgument(
              "variable '" + stmt.var +
              "' is assigned both scalar and bag values");
        }
        result_.var_types[stmt.var] = *type;
        defined->insert(stmt.var);
        return Status::Ok();
      }
      case StmtKind::kWhile: {
        MITOS_RETURN_IF_ERROR(ExpectAnyType(*stmt.expr, *defined));
        // The body may execute zero times: definitions inside it are not
        // definitely available afterwards.
        std::set<std::string> body_defined = *defined;
        MITOS_RETURN_IF_ERROR(CheckStmts(stmt.body, &body_defined));
        // Re-check the condition against the loop-carried environment so a
        // condition variable updated in the body is accepted.
        MITOS_RETURN_IF_ERROR(ExpectAnyType(*stmt.expr, body_defined));
        return Status::Ok();
      }
      case StmtKind::kDoWhile: {
        // The body executes at least once: its definitions persist, and the
        // condition is evaluated in the post-body environment.
        MITOS_RETURN_IF_ERROR(CheckStmts(stmt.body, defined));
        MITOS_RETURN_IF_ERROR(ExpectAnyType(*stmt.expr, *defined));
        return Status::Ok();
      }
      case StmtKind::kIf: {
        MITOS_RETURN_IF_ERROR(ExpectAnyType(*stmt.expr, *defined));
        std::set<std::string> then_defined = *defined;
        MITOS_RETURN_IF_ERROR(CheckStmts(stmt.body, &then_defined));
        std::set<std::string> else_defined = *defined;
        MITOS_RETURN_IF_ERROR(CheckStmts(stmt.else_body, &else_defined));
        // Only variables defined on both paths are definitely defined after.
        for (const std::string& v : then_defined) {
          if (else_defined.count(v) > 0) defined->insert(v);
        }
        return Status::Ok();
      }
      case StmtKind::kWriteFile: {
        MITOS_RETURN_IF_ERROR(ExpectType(*stmt.expr, VarType::kBag, *defined,
                                         "writeFile input"));
        MITOS_RETURN_IF_ERROR(ExpectAnyType(*stmt.filename, *defined));
        return Status::Ok();
      }
    }
    return Status::Internal("unknown statement kind");
  }

  TypeCheckResult result_;
};

}  // namespace

StatusOr<TypeCheckResult> TypeCheck(const Program& program) {
  Checker checker;
  Status status = checker.Run(program);
  if (!status.ok()) return status;
  return checker.TakeResult();
}

}  // namespace mitos::lang
