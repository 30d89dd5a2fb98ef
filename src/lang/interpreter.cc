#include "lang/interpreter.h"

#include <set>
#include <unordered_map>
#include <utility>

#include "lang/scalar_ops.h"
#include "lang/type_check.h"

namespace mitos::lang {

StatusOr<DatumVector> ReduceByKeyKernel(const DatumVector& input,
                                        const BinaryFn& combine) {
  // first-seen key order keeps the kernel deterministic.
  std::vector<Datum> key_order;
  std::unordered_map<Datum, Datum, DatumHash, DatumEq> acc;
  for (const Datum& element : input) {
    if (!element.is_tuple() || element.size() < 2) {
      return Status::InvalidArgument(
          "reduceByKey input element is not a (key, value) pair: " +
          element.ToString());
    }
    const Datum& key = element.field(0);
    const Datum& value = element.field(1);
    auto it = acc.find(key);
    if (it == acc.end()) {
      acc.emplace(key, value);
      key_order.push_back(key);
    } else {
      it->second = combine(it->second, value);
    }
  }
  DatumVector out;
  out.reserve(key_order.size());
  for (const Datum& key : key_order) {
    out.push_back(Datum::Pair(key, acc.at(key)));
  }
  return out;
}

DatumVector JoinKernel(const DatumVector& build, const DatumVector& probe) {
  std::unordered_map<Datum, DatumVector, DatumHash, DatumEq> table;
  for (const Datum& element : build) {
    table[element.field(0)].push_back(element.field(1));
  }
  DatumVector out;
  for (const Datum& element : probe) {
    auto it = table.find(element.field(0));
    if (it == table.end()) continue;
    for (const Datum& build_value : it->second) {
      out.push_back(Datum::Tuple(
          {element.field(0), build_value, element.field(1)}));
    }
  }
  return out;
}

Interpreter::Interpreter(sim::SimFileSystem* fs, InterpreterOptions options)
    : fs_(fs), options_(options) {
  MITOS_CHECK(fs != nullptr);
}

Status Interpreter::Run(const Program& program) {
  StatusOr<TypeCheckResult> types = TypeCheck(program);
  if (!types.ok()) return types.status();
  scalars_.clear();
  bags_.clear();
  stats_ = InterpreterStats{};
  return RunStmts(program.stmts);
}

Status Interpreter::RunStmts(const StmtList& stmts) {
  for (const StmtPtr& stmt : stmts) {
    MITOS_RETURN_IF_ERROR(RunStmt(*stmt));
  }
  return Status::Ok();
}

bool Interpreter::IsBagExpr(const Expr& expr) const {
  if (IsBagExprKind(expr.kind)) return true;
  return expr.kind == ExprKind::kVarRef && bags_.count(expr.var) > 0;
}

// A condition is a scalar bool or — in Preparator output — a one-element
// bool bag (the paper's ifCond/exitCond nodes are exactly such bags).
StatusOr<bool> Interpreter::EvalCondition(const Expr& expr) {
  Datum value;
  if (IsBagExpr(expr)) {
    StatusOr<DatumVector> bag = EvalBag(expr);
    if (!bag.ok()) return bag.status();
    if (bag->size() != 1) {
      return Status::InvalidArgument(
          "bag condition must hold exactly 1 element, has " +
          std::to_string(bag->size()));
    }
    value = (*bag)[0];
  } else {
    StatusOr<Datum> scalar = EvalScalar(expr);
    if (!scalar.ok()) return scalar.status();
    value = *scalar;
  }
  if (!value.is_bool()) {
    return Status::InvalidArgument("condition is not boolean: " +
                                   value.ToString());
  }
  return value.boolean();
}

// A file name is a scalar string or a one-element string bag.
StatusOr<std::string> Interpreter::EvalFilename(const Expr& expr) {
  Datum value;
  if (IsBagExpr(expr)) {
    StatusOr<DatumVector> bag = EvalBag(expr);
    if (!bag.ok()) return bag.status();
    if (bag->size() != 1) {
      return Status::InvalidArgument("bag filename must hold exactly 1 "
                                     "element");
    }
    value = (*bag)[0];
  } else {
    StatusOr<Datum> scalar = EvalScalar(expr);
    if (!scalar.ok()) return scalar.status();
    value = *scalar;
  }
  if (!value.is_string()) {
    return Status::InvalidArgument("filename is not a string: " +
                                   value.ToString());
  }
  return value.str();
}

Status Interpreter::RunStmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kAssign: {
      if (IsBagExpr(*stmt.expr)) {
        StatusOr<DatumVector> value = EvalBag(*stmt.expr);
        if (!value.ok()) return value.status();
        bags_[stmt.var] = std::move(value).value();
      } else {
        StatusOr<Datum> value = EvalScalar(*stmt.expr);
        if (!value.ok()) return value.status();
        scalars_[stmt.var] = std::move(value).value();
      }
      return Status::Ok();
    }
    case StmtKind::kWhile: {
      while (true) {
        StatusOr<bool> cond = EvalCondition(*stmt.expr);
        if (!cond.ok()) return cond.status();
        if (!*cond) break;
        if (++stats_.loop_iterations > options_.max_total_iterations) {
          return Status::FailedPrecondition("loop iteration limit exceeded");
        }
        MITOS_RETURN_IF_ERROR(RunStmts(stmt.body));
      }
      return Status::Ok();
    }
    case StmtKind::kDoWhile: {
      while (true) {
        if (++stats_.loop_iterations > options_.max_total_iterations) {
          return Status::FailedPrecondition("loop iteration limit exceeded");
        }
        MITOS_RETURN_IF_ERROR(RunStmts(stmt.body));
        StatusOr<bool> cond = EvalCondition(*stmt.expr);
        if (!cond.ok()) return cond.status();
        if (!*cond) break;
      }
      return Status::Ok();
    }
    case StmtKind::kIf: {
      StatusOr<bool> cond = EvalCondition(*stmt.expr);
      if (!cond.ok()) return cond.status();
      return RunStmts(*cond ? stmt.body : stmt.else_body);
    }
    case StmtKind::kWriteFile: {
      StatusOr<DatumVector> bag = EvalBag(*stmt.expr);
      if (!bag.ok()) return bag.status();
      StatusOr<std::string> filename = EvalFilename(*stmt.filename);
      if (!filename.ok()) return filename.status();
      stats_.elements_written += static_cast<int64_t>(bag->size());
      fs_->Write(*filename, std::move(bag).value());
      return Status::Ok();
    }
  }
  return Status::Internal("unknown statement kind");
}

StatusOr<Datum> Interpreter::EvalScalar(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLit:
      return expr.lit;
    case ExprKind::kVarRef: {
      auto it = scalars_.find(expr.var);
      if (it == scalars_.end()) {
        return Status::InvalidArgument("undefined scalar variable: " +
                                       expr.var);
      }
      return it->second;
    }
    case ExprKind::kBinOp: {
      StatusOr<Datum> a = EvalScalar(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<Datum> b = EvalScalar(*expr.b);
      if (!b.ok()) return b.status();
      return ApplyBinOp(expr.binop, *a, *b);
    }
    case ExprKind::kNot: {
      StatusOr<Datum> a = EvalScalar(*expr.a);
      if (!a.ok()) return a.status();
      if (!a->is_bool()) {
        return Status::InvalidArgument("'!' on non-boolean");
      }
      return Datum::Bool(!a->boolean());
    }
    case ExprKind::kScalarFromBag: {
      StatusOr<DatumVector> bag = EvalBag(*expr.a);
      if (!bag.ok()) return bag.status();
      if (bag->size() != 1) {
        return Status::InvalidArgument(
            "scalarOf on a bag with " + std::to_string(bag->size()) +
            " elements (expected exactly 1)");
      }
      return (*bag)[0];
    }
    default:
      return Status::InvalidArgument("expected a scalar expression, got: " +
                                     lang::ToSource(expr));
  }
}

StatusOr<DatumVector> Interpreter::EvalBag(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kVarRef: {
      auto it = bags_.find(expr.var);
      if (it == bags_.end()) {
        return Status::InvalidArgument("undefined bag variable: " + expr.var);
      }
      return it->second;
    }
    case ExprKind::kBagLit:
      return expr.bag_lit;
    case ExprKind::kFromScalar: {
      StatusOr<Datum> value = EvalScalar(*expr.a);
      if (!value.ok()) return value.status();
      return DatumVector{*value};
    }
    case ExprKind::kReadFile: {
      StatusOr<std::string> filename = EvalFilename(*expr.a);
      if (!filename.ok()) return filename.status();
      StatusOr<DatumVector> data = fs_->Read(*filename);
      if (!data.ok()) return data.status();
      stats_.elements_read += static_cast<int64_t>(data->size());
      return data;
    }
    case ExprKind::kMap: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      DatumVector out;
      out.reserve(in->size());
      for (const Datum& x : *in) out.push_back(expr.unary(x));
      return out;
    }
    case ExprKind::kFilter: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      DatumVector out;
      for (const Datum& x : *in) {
        if (expr.pred(x)) out.push_back(x);
      }
      return out;
    }
    case ExprKind::kFlatMap: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      DatumVector out;
      for (const Datum& x : *in) {
        DatumVector pieces = expr.flat(x);
        out.insert(out.end(), pieces.begin(), pieces.end());
      }
      return out;
    }
    case ExprKind::kReduceByKey: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      return ReduceByKeyKernel(*in, expr.binary);
    }
    case ExprKind::kReduce: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      if (in->empty()) return DatumVector{};
      Datum acc = (*in)[0];
      for (size_t i = 1; i < in->size(); ++i) acc = expr.binary(acc, (*in)[i]);
      return DatumVector{acc};
    }
    case ExprKind::kJoin: {
      StatusOr<DatumVector> build = EvalBag(*expr.a);
      if (!build.ok()) return build.status();
      StatusOr<DatumVector> probe = EvalBag(*expr.b);
      if (!probe.ok()) return probe.status();
      return JoinKernel(*build, *probe);
    }
    case ExprKind::kUnion: {
      StatusOr<DatumVector> a = EvalBag(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<DatumVector> b = EvalBag(*expr.b);
      if (!b.ok()) return b.status();
      DatumVector out = std::move(a).value();
      out.insert(out.end(), b->begin(), b->end());
      return out;
    }
    case ExprKind::kDistinct: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      std::set<Datum> seen;
      DatumVector out;
      for (const Datum& x : *in) {
        if (seen.insert(x).second) out.push_back(x);
      }
      return out;
    }
    case ExprKind::kCount: {
      StatusOr<DatumVector> in = EvalBag(*expr.a);
      if (!in.ok()) return in.status();
      return DatumVector{Datum::Int64(static_cast<int64_t>(in->size()))};
    }
    case ExprKind::kCombine2: {
      StatusOr<DatumVector> a = EvalBag(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<DatumVector> b = EvalBag(*expr.b);
      if (!b.ok()) return b.status();
      if (a->size() != 1 || b->size() != 1) {
        return Status::InvalidArgument(
            "combine2 requires one-element bags, got sizes " +
            std::to_string(a->size()) + " and " + std::to_string(b->size()));
      }
      return DatumVector{expr.binary((*a)[0], (*b)[0])};
    }
    default:
      return Status::InvalidArgument("expected a bag expression, got: " +
                                     lang::ToSource(expr));
  }
}

}  // namespace mitos::lang
