#include "baselines/flink.h"

namespace mitos::baselines {

namespace {

using lang::Expr;
using lang::ExprKind;
using lang::ExprPtr;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

bool ExprContainsFileIo(const ExprPtr& expr) {
  if (!expr) return false;
  if (expr->kind == ExprKind::kReadFile) return true;
  return ExprContainsFileIo(expr->a) || ExprContainsFileIo(expr->b);
}

Status CheckLoopBody(const StmtList& stmts) {
  for (const StmtPtr& stmt : stmts) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
        if (ExprContainsFileIo(stmt->expr)) {
          return Status::Unimplemented(
              "Flink native iterations do not support reading files inside "
              "the loop body");
        }
        break;
      case StmtKind::kWriteFile:
        return Status::Unimplemented(
            "Flink native iterations do not support writing files inside "
            "the loop body");
      case StmtKind::kIf:
        return Status::Unimplemented(
            "Flink native iterations do not support if statements inside "
            "the loop body");
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        return Status::Unimplemented(
            "Flink native iterations do not support nested loops");
    }
  }
  return Status::Ok();
}

Status CheckStmts(const StmtList& stmts) {
  for (const StmtPtr& stmt : stmts) {
    switch (stmt->kind) {
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        MITOS_RETURN_IF_ERROR(CheckLoopBody(stmt->body));
        break;
      case StmtKind::kIf:
        MITOS_RETURN_IF_ERROR(CheckStmts(stmt->body));
        MITOS_RETURN_IF_ERROR(CheckStmts(stmt->else_body));
        break;
      default:
        break;
    }
  }
  return Status::Ok();
}

}  // namespace

Status CheckNativeIterationExpressible(const lang::Program& program) {
  return CheckStmts(program.stmts);
}

StatusOr<runtime::RunStats> RunFlinkSim(runtime::Backend* backend,
                                        sim::SimFileSystem* fs,
                                        const runtime::Plan& plan,
                                        const FlinkOptions& options) {
  runtime::ExecutorOptions exec;
  exec.pipelining = false;  // superstep barrier between iterations
  exec.hoisting = true;     // Flink supports loop-invariant hoisting
  exec.decision_overhead = options.step_overhead;
  exec.metrics = options.metrics;
  return runtime::ExecutePlan(backend, fs, plan, exec);
}

}  // namespace mitos::baselines
