#include "lang/ast.h"

#include <sstream>
#include <utility>

#include "common/logging.h"

namespace mitos::lang {

const char* BinOpName(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd: return "+";
    case BinOpKind::kSub: return "-";
    case BinOpKind::kMul: return "*";
    case BinOpKind::kDiv: return "/";
    case BinOpKind::kMod: return "%";
    case BinOpKind::kEq: return "==";
    case BinOpKind::kNe: return "!=";
    case BinOpKind::kLt: return "<";
    case BinOpKind::kLe: return "<=";
    case BinOpKind::kGt: return ">";
    case BinOpKind::kGe: return ">=";
    case BinOpKind::kAnd: return "&&";
    case BinOpKind::kOr: return "||";
    case BinOpKind::kConcat: return "concat";
  }
  return "?";
}

bool IsBagExprKind(ExprKind kind) {
  switch (kind) {
    case ExprKind::kBagLit:
    case ExprKind::kFromScalar:
    case ExprKind::kReadFile:
    case ExprKind::kMap:
    case ExprKind::kFilter:
    case ExprKind::kFlatMap:
    case ExprKind::kReduceByKey:
    case ExprKind::kReduce:
    case ExprKind::kJoin:
    case ExprKind::kUnion:
    case ExprKind::kDistinct:
    case ExprKind::kCount:
    case ExprKind::kCombine2:
      return true;
    default:
      return false;
  }
}

namespace {

std::shared_ptr<Expr> MakeMutable(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

}  // namespace

ExprPtr Lit(Datum v) {
  auto e = MakeMutable(ExprKind::kLit);
  e->lit = std::move(v);
  return e;
}

ExprPtr LitInt(int64_t v) { return Lit(Datum::Int64(v)); }
ExprPtr LitDouble(double v) { return Lit(Datum::Double(v)); }
ExprPtr LitBool(bool v) { return Lit(Datum::Bool(v)); }
ExprPtr LitString(std::string v) { return Lit(Datum::String(std::move(v))); }

ExprPtr Var(std::string name) {
  auto e = MakeMutable(ExprKind::kVarRef);
  e->var = std::move(name);
  return e;
}

ExprPtr BinOp(BinOpKind op, ExprPtr a, ExprPtr b) {
  MITOS_CHECK(a && b);
  auto e = MakeMutable(ExprKind::kBinOp);
  e->binop = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

ExprPtr Add(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kAdd, a, b); }
ExprPtr Sub(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kSub, a, b); }
ExprPtr Mul(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kMul, a, b); }
ExprPtr Div(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kDiv, a, b); }
ExprPtr Mod(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kMod, a, b); }
ExprPtr Eq(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kEq, a, b); }
ExprPtr Ne(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kNe, a, b); }
ExprPtr Lt(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kLt, a, b); }
ExprPtr Le(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kLe, a, b); }
ExprPtr Gt(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kGt, a, b); }
ExprPtr Ge(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kGe, a, b); }
ExprPtr And(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kAnd, a, b); }
ExprPtr Or(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kOr, a, b); }
ExprPtr Concat(ExprPtr a, ExprPtr b) { return BinOp(BinOpKind::kConcat, a, b); }

ExprPtr Not(ExprPtr a) {
  MITOS_CHECK(a);
  auto e = MakeMutable(ExprKind::kNot);
  e->a = std::move(a);
  return e;
}

ExprPtr ScalarFromBag(ExprPtr bag) {
  MITOS_CHECK(bag);
  auto e = MakeMutable(ExprKind::kScalarFromBag);
  e->a = std::move(bag);
  return e;
}

ExprPtr BagLit(DatumVector elements) {
  auto e = MakeMutable(ExprKind::kBagLit);
  e->bag_lit = std::move(elements);
  return e;
}

ExprPtr FromScalar(ExprPtr scalar) {
  MITOS_CHECK(scalar);
  auto e = MakeMutable(ExprKind::kFromScalar);
  e->a = std::move(scalar);
  return e;
}

ExprPtr ReadFile(ExprPtr filename) {
  MITOS_CHECK(filename);
  auto e = MakeMutable(ExprKind::kReadFile);
  e->a = std::move(filename);
  return e;
}

ExprPtr Map(ExprPtr bag, UnaryFn fn) {
  MITOS_CHECK(bag);
  MITOS_CHECK(fn.valid());
  auto e = MakeMutable(ExprKind::kMap);
  e->a = std::move(bag);
  e->unary = std::move(fn);
  return e;
}

ExprPtr Filter(ExprPtr bag, PredicateFn fn) {
  MITOS_CHECK(bag);
  MITOS_CHECK(fn.valid());
  auto e = MakeMutable(ExprKind::kFilter);
  e->a = std::move(bag);
  e->pred = std::move(fn);
  return e;
}

ExprPtr FlatMap(ExprPtr bag, FlatMapFn fn) {
  MITOS_CHECK(bag);
  MITOS_CHECK(fn.valid());
  auto e = MakeMutable(ExprKind::kFlatMap);
  e->a = std::move(bag);
  e->flat = std::move(fn);
  return e;
}

ExprPtr ReduceByKey(ExprPtr bag, BinaryFn combine) {
  MITOS_CHECK(bag);
  MITOS_CHECK(combine.valid());
  auto e = MakeMutable(ExprKind::kReduceByKey);
  e->a = std::move(bag);
  e->binary = std::move(combine);
  return e;
}

ExprPtr Reduce(ExprPtr bag, BinaryFn combine) {
  MITOS_CHECK(bag);
  MITOS_CHECK(combine.valid());
  auto e = MakeMutable(ExprKind::kReduce);
  e->a = std::move(bag);
  e->binary = std::move(combine);
  return e;
}

ExprPtr Join(ExprPtr build, ExprPtr probe) {
  MITOS_CHECK(build && probe);
  auto e = MakeMutable(ExprKind::kJoin);
  e->a = std::move(build);
  e->b = std::move(probe);
  return e;
}

ExprPtr Union(ExprPtr a, ExprPtr b) {
  MITOS_CHECK(a && b);
  auto e = MakeMutable(ExprKind::kUnion);
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

ExprPtr Distinct(ExprPtr bag) {
  MITOS_CHECK(bag);
  auto e = MakeMutable(ExprKind::kDistinct);
  e->a = std::move(bag);
  return e;
}

ExprPtr Count(ExprPtr bag) {
  MITOS_CHECK(bag);
  auto e = MakeMutable(ExprKind::kCount);
  e->a = std::move(bag);
  return e;
}

ExprPtr Combine2(ExprPtr a, ExprPtr b, BinaryFn fn) {
  MITOS_CHECK(a && b);
  MITOS_CHECK(fn.valid());
  auto e = MakeMutable(ExprKind::kCombine2);
  e->a = std::move(a);
  e->b = std::move(b);
  e->binary = std::move(fn);
  return e;
}

StmtPtr Assign(std::string var, ExprPtr expr) {
  MITOS_CHECK(expr);
  MITOS_CHECK(!var.empty());
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kAssign;
  s->var = std::move(var);
  s->expr = std::move(expr);
  return s;
}

StmtPtr While(ExprPtr cond, StmtList body) {
  MITOS_CHECK(cond);
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kWhile;
  s->expr = std::move(cond);
  s->body = std::move(body);
  return s;
}

StmtPtr DoWhile(StmtList body, ExprPtr cond) {
  MITOS_CHECK(cond);
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kDoWhile;
  s->expr = std::move(cond);
  s->body = std::move(body);
  return s;
}

StmtPtr If(ExprPtr cond, StmtList then_body, StmtList else_body) {
  MITOS_CHECK(cond);
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kIf;
  s->expr = std::move(cond);
  s->body = std::move(then_body);
  s->else_body = std::move(else_body);
  return s;
}

StmtPtr WriteFile(ExprPtr bag, ExprPtr filename) {
  MITOS_CHECK(bag && filename);
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::kWriteFile;
  s->expr = std::move(bag);
  s->filename = std::move(filename);
  return s;
}

// ----- Source printer -----
//
// Emits the parser grammar (lang/parser.h) so programs round-trip through
// lang::Parse.

namespace {

void SourceDatumLiteral(const Datum& d, std::ostream& out) {
  switch (d.kind()) {
    case Datum::Kind::kInt64:
      out << d.int64();
      break;
    case Datum::Kind::kDouble:
      out << std::to_string(d.dbl());  // fixed notation; the lexer has no
      break;                           // exponent syntax
    case Datum::Kind::kString: {
      out << '"';
      for (char c : d.str()) {
        if (c == '"' || c == '\\') out << '\\';
        if (c == '\n') {
          out << "\\n";
        } else {
          out << c;
        }
      }
      out << '"';
      break;
    }
    case Datum::Kind::kTuple: {
      out << '(';
      bool first = true;
      for (const Datum& field : d.tuple()) {
        if (!first) out << ", ";
        first = false;
        SourceDatumLiteral(field, out);
      }
      out << ')';
      break;
    }
    default:
      // Null/bool literals have no bagOf syntax; the debug form at least
      // makes the failure readable.
      out << d.ToString();
      break;
  }
}

void SourceExpr(const Expr& e, std::ostream& out) {
  switch (e.kind) {
    case ExprKind::kLit:
      if (e.lit.is_int64() && e.lit.int64() < 0) {
        // The expression grammar has no unary minus.
        out << "(0 - " << -e.lit.int64() << ')';
      } else if (e.lit.is_bool()) {
        out << (e.lit.boolean() ? "true" : "false");
      } else {
        SourceDatumLiteral(e.lit, out);
      }
      break;
    case ExprKind::kVarRef:
      out << e.var;
      break;
    case ExprKind::kBinOp:
      out << '(';
      SourceExpr(*e.a, out);
      out << ' '
          << (e.binop == BinOpKind::kConcat ? "++" : BinOpName(e.binop))
          << ' ';
      SourceExpr(*e.b, out);
      out << ')';
      break;
    case ExprKind::kNot:
      out << "!(";
      SourceExpr(*e.a, out);
      out << ')';
      break;
    case ExprKind::kScalarFromBag:
      out << "scalarOf(";
      SourceExpr(*e.a, out);
      out << ')';
      break;
    case ExprKind::kBagLit:
      if (e.bag_lit.empty()) {
        out << "empty()";
      } else {
        out << "bagOf(";
        bool first = true;
        for (const Datum& d : e.bag_lit) {
          if (!first) out << ", ";
          first = false;
          SourceDatumLiteral(d, out);
        }
        out << ')';
      }
      break;
    case ExprKind::kFromScalar:
      out << "newBag(";
      SourceExpr(*e.a, out);
      out << ')';
      break;
    case ExprKind::kReadFile:
      out << "readFile(";
      SourceExpr(*e.a, out);
      out << ')';
      break;
    case ExprKind::kMap:
      SourceExpr(*e.a, out);
      out << ".map(" << e.unary.name << ')';
      break;
    case ExprKind::kFilter:
      SourceExpr(*e.a, out);
      out << ".filter(" << e.pred.name << ')';
      break;
    case ExprKind::kFlatMap:
      SourceExpr(*e.a, out);
      out << ".flatMap(" << e.flat.name << ')';
      break;
    case ExprKind::kReduceByKey:
      SourceExpr(*e.a, out);
      out << ".reduceByKey(" << e.binary.name << ')';
      break;
    case ExprKind::kReduce:
      SourceExpr(*e.a, out);
      out << ".reduce(" << e.binary.name << ')';
      break;
    case ExprKind::kJoin:
      SourceExpr(*e.a, out);
      out << ".join(";
      SourceExpr(*e.b, out);
      out << ')';
      break;
    case ExprKind::kUnion:
      SourceExpr(*e.a, out);
      out << ".union(";
      SourceExpr(*e.b, out);
      out << ')';
      break;
    case ExprKind::kDistinct:
      SourceExpr(*e.a, out);
      out << ".distinct()";
      break;
    case ExprKind::kCount:
      SourceExpr(*e.a, out);
      out << ".count()";
      break;
    case ExprKind::kCombine2:
      // Preparator-internal; no surface syntax (documented in ast.h).
      out << "combine2(";
      SourceExpr(*e.a, out);
      out << ", ";
      SourceExpr(*e.b, out);
      out << ", " << e.binary.name << ')';
      break;
  }
}

void SourceStmts(const StmtList& stmts, int indent, std::ostream& out);

void SourceStmt(const Stmt& s, int indent, std::ostream& out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (s.kind) {
    case StmtKind::kAssign:
      out << pad << s.var << " = ";
      SourceExpr(*s.expr, out);
      out << ";\n";
      break;
    case StmtKind::kWhile:
      out << pad << "while (";
      SourceExpr(*s.expr, out);
      out << ") {\n";
      SourceStmts(s.body, indent + 1, out);
      out << pad << "}\n";
      break;
    case StmtKind::kDoWhile:
      out << pad << "do {\n";
      SourceStmts(s.body, indent + 1, out);
      out << pad << "} while (";
      SourceExpr(*s.expr, out);
      out << ");\n";
      break;
    case StmtKind::kIf:
      out << pad << "if (";
      SourceExpr(*s.expr, out);
      out << ") {\n";
      SourceStmts(s.body, indent + 1, out);
      if (!s.else_body.empty()) {
        out << pad << "} else {\n";
        SourceStmts(s.else_body, indent + 1, out);
      }
      out << pad << "}\n";
      break;
    case StmtKind::kWriteFile:
      out << pad << "write(";
      SourceExpr(*s.expr, out);
      out << ", ";
      SourceExpr(*s.filename, out);
      out << ");\n";
      break;
  }
}

void SourceStmts(const StmtList& stmts, int indent, std::ostream& out) {
  for (const StmtPtr& s : stmts) SourceStmt(*s, indent, out);
}

}  // namespace

std::string ToSource(const Expr& expr) {
  std::ostringstream out;
  SourceExpr(expr, out);
  return out.str();
}

std::string ToSource(const Program& program) {
  std::ostringstream out;
  SourceStmts(program.stmts, 0, out);
  return out.str();
}

}  // namespace mitos::lang
