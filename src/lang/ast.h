// The imperative source language of Mitos.
//
// The paper embeds its language (Emma) in Scala and extracts the user
// program's abstract syntax tree via Scala macros. C++ has no AST-level
// metaprogramming, so this reproduction makes the AST explicit: users build
// a lang::Program with the free functions below (or lang::ProgramBuilder,
// which reads like straight-line imperative code). Everything downstream —
// simplification, SSA construction, dataflow building, coordination — is
// implemented as in the paper.
//
// Two expression worlds coexist, as in the paper's examples:
//   * scalar expressions — loop counters, conditions, file names
//     (`day + 1`, `day != 1`, "pageVisitLog" + day);
//   * bag expressions — scalable collections and their operations
//     (readFile, map, filter, reduceByKey, join, ...).
// The Preparator (ir/normalize.h) later wraps every scalar into a
// one-element bag, exactly as described in Sec. 4.1 of the paper.
#ifndef MITOS_LANG_AST_H_
#define MITOS_LANG_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/datum.h"
#include "lang/functions.h"

namespace mitos::lang {

// ----- Expressions -----

enum class ExprKind {
  // Scalar expressions.
  kLit,            // constant Datum
  kVarRef,         // variable reference (scalar or bag; typed by context)
  kBinOp,          // scalar binary operation
  kNot,            // scalar boolean negation
  kScalarFromBag,  // the single element of a one-element bag (e.g. collect())
  // Bag expressions.
  kBagLit,         // literal bag of constants
  kFromScalar,     // one-element bag holding a scalar expression's value
  kReadFile,       // read the named file from the (simulated) file system
  kMap,            // elementwise transform
  kFilter,         // elementwise predicate
  kFlatMap,        // elementwise one-to-many transform
  kReduceByKey,    // (k,v) pairs -> (k, combined v) per distinct key
  kReduce,         // full-bag fold -> one-element bag (empty in -> empty out)
  kJoin,           // hash join on field 0; build LEFT, probe RIGHT;
                   // emits (k, lv, rv) per match
  kUnion,          // multiset union (concatenation)
  kDistinct,       // duplicate elimination
  kCount,          // number of elements -> one-element int64 bag
  kCombine2,       // f(a0, b0) over two one-element bags -> one-element bag.
                   // This is how the Preparator expresses scalar expressions
                   // with two variable operands after wrapping scalars into
                   // one-element bags (paper Sec. 4.1).
};

enum class BinOpKind {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kConcat,  // string concatenation; numeric operands are stringified
};

// Returns e.g. "+", "<=", "concat".
const char* BinOpName(BinOpKind op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// A single AST expression node. Tagged-union style: only the fields relevant
// to `kind` are populated (the printer and type checker enforce this).
struct Expr {
  ExprKind kind;

  Datum lit;               // kLit
  std::string var;         // kVarRef
  BinOpKind binop{};       // kBinOp
  ExprPtr a;               // first child (scalar or bag, by kind)
  ExprPtr b;               // second child
  DatumVector bag_lit;     // kBagLit
  UnaryFn unary;           // kMap
  PredicateFn pred;        // kFilter
  FlatMapFn flat;          // kFlatMap
  BinaryFn binary;         // kReduceByKey / kReduce combiner
};

// True when `kind` denotes a bag-typed expression *node* (kVarRef excluded;
// its type depends on the variable).
bool IsBagExprKind(ExprKind kind);

// ----- Expression factories -----

ExprPtr Lit(Datum v);
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr LitBool(bool v);
ExprPtr LitString(std::string v);
ExprPtr Var(std::string name);

ExprPtr BinOp(BinOpKind op, ExprPtr a, ExprPtr b);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Concat(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr ScalarFromBag(ExprPtr bag);

ExprPtr BagLit(DatumVector elements);
ExprPtr FromScalar(ExprPtr scalar);
ExprPtr ReadFile(ExprPtr filename);
ExprPtr Map(ExprPtr bag, UnaryFn fn);
ExprPtr Filter(ExprPtr bag, PredicateFn fn);
ExprPtr FlatMap(ExprPtr bag, FlatMapFn fn);
ExprPtr ReduceByKey(ExprPtr bag, BinaryFn combine);
ExprPtr Reduce(ExprPtr bag, BinaryFn combine);
ExprPtr Join(ExprPtr build, ExprPtr probe);
ExprPtr Union(ExprPtr a, ExprPtr b);
ExprPtr Distinct(ExprPtr bag);
ExprPtr Count(ExprPtr bag);
ExprPtr Combine2(ExprPtr a, ExprPtr b, BinaryFn fn);

// ----- Statements -----

enum class StmtKind {
  kAssign,     // var = expr
  kWhile,      // while (cond) { body }
  kDoWhile,    // do { body } while (cond)
  kIf,         // if (cond) { then } [else { else }]
  kWriteFile,  // bag.writeFile(filename)
};

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;
using StmtList = std::vector<StmtPtr>;

struct Stmt {
  StmtKind kind;

  std::string var;      // kAssign target
  ExprPtr expr;         // kAssign rhs | loop/if condition | kWriteFile bag
  ExprPtr filename;     // kWriteFile destination (scalar string expression)
  StmtList body;        // loop body | if-then branch
  StmtList else_body;   // if-else branch (may be empty)
};

StmtPtr Assign(std::string var, ExprPtr expr);
StmtPtr While(ExprPtr cond, StmtList body);
StmtPtr DoWhile(StmtList body, ExprPtr cond);
StmtPtr If(ExprPtr cond, StmtList then_body, StmtList else_body = {});
StmtPtr WriteFile(ExprPtr bag, ExprPtr filename);

// A whole user program: a statement sequence.
struct Program {
  StmtList stmts;
};

// ----- Source printing (the one AST printer) -----
//
// Emits the program in the textual grammar of lang/parser.h, so that
// lang::Parse(ToSource(p)) reconstructs `p` — the foundation of the fuzzer's
// self-contained repro files (testing/repro.h) — and doubles as the form
// of EXPLAIN's `ast` field and of error messages. Round-tripping holds for
// surface-language programs: every statement kind, every bag operation, and
// every builtin function (lang/functions.h prints each in parser syntax).
// kCombine2 — introduced only by the Preparator, never by user programs —
// and custom C++ functions with non-builtin names print in a form that
// does not parse.
std::string ToSource(const Expr& expr);
std::string ToSource(const Program& program);

}  // namespace mitos::lang

#endif  // MITOS_LANG_AST_H_
