#include "testing/shrink.h"

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lang/parser.h"

namespace mitos::testing {
namespace {

using lang::Expr;
using lang::ExprPtr;
using lang::Program;
using lang::Stmt;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

// ----- Statement-level rewrites -----
//
// Statements are addressed by pre-order index (a statement before its
// nested bodies); a rewrite is (index, variant). Variant 0 is always
// deletion; control statements add unwrap-into-body and force-false
// variants. Invalid (index, variant) pairs yield no candidate.

int CountStmtsIn(const StmtList& list) {
  int n = 0;
  for (const StmtPtr& s : list) {
    ++n;
    n += CountStmtsIn(s->body);
    n += CountStmtsIn(s->else_body);
  }
  return n;
}

// The splice replacing statement `s` under rewrite `variant`, or nullopt
// when `s` has no such variant.
std::optional<StmtList> StmtCandidate(const StmtPtr& s, int variant) {
  if (variant == 0) return StmtList{};  // delete
  const bool is_loop =
      s->kind == StmtKind::kWhile || s->kind == StmtKind::kDoWhile;
  if (is_loop) {
    if (variant == 1) return s->body;  // unwrap: run the body exactly once
    if (variant == 2) {                // force the condition false
      auto copy = std::make_shared<Stmt>(*s);
      copy->expr = lang::LitBool(false);
      return StmtList{copy};
    }
    return std::nullopt;
  }
  if (s->kind == StmtKind::kIf) {
    if (variant == 1) return s->body;       // keep the then-branch
    if (variant == 2) {                     // keep the else-branch
      if (s->else_body.empty()) return std::nullopt;
      return s->else_body;
    }
    if (variant == 3) {  // force the condition false
      auto copy = std::make_shared<Stmt>(*s);
      copy->expr = lang::LitBool(false);
      return StmtList{copy};
    }
    return std::nullopt;
  }
  return std::nullopt;
}

// Applies rewrite `variant` to the statement with pre-order index *k.
// Returns the rewritten list; `*found` reports whether the index was
// reached (it may have been reached and the variant declined, in which
// case the return is nullopt).
std::optional<StmtList> RewriteStmts(const StmtList& list, int* k,
                                     int variant, bool* found) {
  for (size_t i = 0; i < list.size(); ++i) {
    const StmtPtr& s = list[i];
    if (*k == 0) {
      *found = true;
      auto splice = StmtCandidate(s, variant);
      if (!splice) return std::nullopt;
      StmtList out(list.begin(), list.begin() + static_cast<long>(i));
      out.insert(out.end(), splice->begin(), splice->end());
      out.insert(out.end(), list.begin() + static_cast<long>(i) + 1,
                 list.end());
      return out;
    }
    --*k;
    auto body = RewriteStmts(s->body, k, variant, found);
    if (*found) {
      if (!body) return std::nullopt;
      auto copy = std::make_shared<Stmt>(*s);
      copy->body = std::move(*body);
      StmtList out = list;
      out[i] = copy;
      return out;
    }
    auto else_body = RewriteStmts(s->else_body, k, variant, found);
    if (*found) {
      if (!else_body) return std::nullopt;
      auto copy = std::make_shared<Stmt>(*s);
      copy->else_body = std::move(*else_body);
      StmtList out = list;
      out[i] = copy;
      return out;
    }
  }
  return std::nullopt;
}

// ----- Expression-level rewrites -----
//
// Expression nodes are addressed by pre-order index across the whole
// program (each statement's expr tree, then its filename tree, then its
// bodies). Candidates only ever replace a node with something strictly
// smaller: one of its inputs, a shrunken literal, or a truncated bag.

// Integer arguments live *inside* function values, printed as part of the
// name ("addInt64(40)"). To shrink them, rewrite the name text and
// re-resolve it through the parser's builtin table — the same authority
// repro files go through — instead of poking at closures. A shrunk
// argument outside its parameter's range fails to parse and is skipped.
std::vector<std::string> ShrunkFnNames(const std::string& name) {
  const size_t l = name.find('(');
  if (l == std::string::npos || name.back() != ')') return {};
  const std::string base = name.substr(0, l);
  const std::string arg = name.substr(l + 1, name.size() - l - 2);
  char* end = nullptr;
  const long long v = std::strtoll(arg.c_str(), &end, 10);
  // Single integer argument only (multi-arg names contain a comma and
  // fail the full-consumption check).
  if (end == nullptr || *end != '\0' || arg.empty()) return {};
  std::vector<std::string> out;
  if (v != 1) out.push_back(base + "(1)");
  if (std::llabs(v) > 2) {
    out.push_back(base + "(" + std::to_string(v / 2) + ")");
  }
  return out;
}

// Re-resolve a rewritten function name in the element-function position
// `call` occupies ("map", "filter", ...) by parsing a one-line program.
// Returns the whole parsed call expression; caller grafts the original
// input back in.
std::optional<Expr> ResolveFnCall(const std::string& call,
                                  const std::string& fn_name) {
  auto parsed = lang::Parse("x = y." + call + "(" + fn_name + ");");
  if (!parsed.ok() || parsed->stmts.size() != 1) return std::nullopt;
  const ExprPtr& e = parsed->stmts[0]->expr;
  if (!e) return std::nullopt;
  return *e;
}

void AppendFnArgCandidates(const Expr& e, const std::string& call,
                           const std::string& fn_name,
                           std::vector<ExprPtr>* out) {
  for (const std::string& shrunk : ShrunkFnNames(fn_name)) {
    std::optional<Expr> resolved = ResolveFnCall(call, shrunk);
    if (!resolved) continue;
    auto copy = std::make_shared<Expr>(*resolved);
    copy->a = e.a;  // keep the real input, take the shrunk function
    out->push_back(std::move(copy));
  }
}

std::vector<ExprPtr> ExprCandidates(const Expr& e) {
  using lang::ExprKind;
  switch (e.kind) {
    case ExprKind::kMap: {
      std::vector<ExprPtr> out = {e.a};  // drop the operator entirely
      AppendFnArgCandidates(e, "map", e.unary.name, &out);
      return out;
    }
    case ExprKind::kFilter: {
      std::vector<ExprPtr> out = {e.a};
      AppendFnArgCandidates(e, "filter", e.pred.name, &out);
      return out;
    }
    case ExprKind::kFlatMap:
    case ExprKind::kReduceByKey:
    case ExprKind::kDistinct:
      return {e.a};  // drop the operator, keep its input
    case ExprKind::kUnion:
    case ExprKind::kJoin:
      return {e.a, e.b};
    case ExprKind::kBinOp:
      if (e.binop == lang::BinOpKind::kAnd) return {e.a, e.b};
      return {};
    case ExprKind::kNot:
      return {e.a};
    case ExprKind::kLit:
      if (e.lit.is_int64()) {
        const int64_t v = e.lit.int64();
        if (v != 0 && v != 1) {
          std::vector<ExprPtr> out = {lang::LitInt(1)};
          if (std::abs(v) > 2) out.push_back(lang::LitInt(v / 2));
          return out;
        }
      }
      return {};
    case ExprKind::kBagLit: {
      std::vector<ExprPtr> out;
      const DatumVector& bag = e.bag_lit;
      if (bag.size() > 1) {
        out.push_back(lang::BagLit(DatumVector(bag.begin(), bag.begin() + 1)));
      }
      if (bag.size() > 3) {
        out.push_back(lang::BagLit(
            DatumVector(bag.begin(),
                        bag.begin() + static_cast<long>(bag.size() / 2))));
      }
      return out;
    }
    default:
      // kVarRef, kScalarFromBag, kFromScalar, kReadFile, kReduce, kCount,
      // kCombine2: either leaves, or replacing them with the child changes
      // the scalar/bag domain and would only waste predicate evaluations.
      return {};
  }
}

int CountExprNodes(const ExprPtr& e) {
  if (!e) return 0;
  return 1 + CountExprNodes(e->a) + CountExprNodes(e->b);
}

int CountExprNodesIn(const StmtList& list) {
  int n = 0;
  for (const StmtPtr& s : list) {
    n += CountExprNodes(s->expr);
    n += CountExprNodes(s->filename);
    n += CountExprNodesIn(s->body);
    n += CountExprNodesIn(s->else_body);
  }
  return n;
}

ExprPtr RewriteExpr(const ExprPtr& e, int* j, int variant, bool* found) {
  if (!e || *found) return nullptr;
  if (*j == 0) {
    *found = true;
    std::vector<ExprPtr> cands = ExprCandidates(*e);
    if (variant < static_cast<int>(cands.size())) return cands[variant];
    return nullptr;
  }
  --*j;
  if (ExprPtr a = RewriteExpr(e->a, j, variant, found)) {
    auto copy = std::make_shared<Expr>(*e);
    copy->a = std::move(a);
    return copy;
  }
  if (*found) return nullptr;  // reached under a, but variant declined
  if (ExprPtr b = RewriteExpr(e->b, j, variant, found)) {
    auto copy = std::make_shared<Expr>(*e);
    copy->b = std::move(b);
    return copy;
  }
  return nullptr;
}

std::optional<StmtList> RewriteStmtExprs(const StmtList& list, int* j,
                                         int variant, bool* found) {
  for (size_t i = 0; i < list.size(); ++i) {
    const StmtPtr& s = list[i];
    auto rewrite_field = [&](const ExprPtr& field) -> std::optional<ExprPtr> {
      ExprPtr e = RewriteExpr(field, j, variant, found);
      if (e) return e;
      return std::nullopt;
    };
    if (auto e = rewrite_field(s->expr)) {
      auto copy = std::make_shared<Stmt>(*s);
      copy->expr = std::move(*e);
      StmtList out = list;
      out[i] = copy;
      return out;
    }
    if (*found) return std::nullopt;
    if (auto e = rewrite_field(s->filename)) {
      auto copy = std::make_shared<Stmt>(*s);
      copy->filename = std::move(*e);
      StmtList out = list;
      out[i] = copy;
      return out;
    }
    if (*found) return std::nullopt;
    if (auto body = RewriteStmtExprs(s->body, j, variant, found)) {
      auto copy = std::make_shared<Stmt>(*s);
      copy->body = std::move(*body);
      StmtList out = list;
      out[i] = copy;
      return out;
    }
    if (*found) return std::nullopt;
    if (auto else_body = RewriteStmtExprs(s->else_body, j, variant, found)) {
      auto copy = std::make_shared<Stmt>(*s);
      copy->else_body = std::move(*else_body);
      StmtList out = list;
      out[i] = copy;
      return out;
    }
    if (*found) return std::nullopt;
  }
  return std::nullopt;
}

constexpr int kMaxStmtVariants = 4;
constexpr int kMaxExprVariants = 2;

}  // namespace

int CountStmts(const Program& program) { return CountStmtsIn(program.stmts); }

ShrinkResult Shrink(
    const Program& program,
    const std::function<bool(const Program&)>& still_fails,
    const ShrinkOptions& options) {
  ShrinkResult result;
  result.program = program;

  bool improved = true;
  while (improved && result.evals < options.max_evals) {
    improved = false;

    // Pass 1: statement rewrites. On success stay at the same index — after
    // a deletion the next statement takes the freed slot.
    for (int i = 0; i < CountStmtsIn(result.program.stmts);) {
      bool advanced = true;
      for (int v = 0; v < kMaxStmtVariants; ++v) {
        if (result.evals >= options.max_evals) break;
        int k = i;
        bool found = false;
        auto stmts = RewriteStmts(result.program.stmts, &k, v, &found);
        if (!found) break;  // i beyond the program; loop condition ends us
        if (!stmts) continue;
        Program candidate{std::move(*stmts)};
        ++result.evals;
        if (still_fails(candidate)) {
          result.program = std::move(candidate);
          ++result.rounds;
          improved = true;
          advanced = false;
          break;
        }
      }
      if (advanced) ++i;
    }

    // Pass 2: expression rewrites. Successful rewrites keep the node count
    // the same or smaller, and replacement nodes are re-visited at the same
    // index, so advancing only on failure terminates.
    for (int j = 0; j < CountExprNodesIn(result.program.stmts);) {
      bool advanced = true;
      for (int v = 0; v < kMaxExprVariants; ++v) {
        if (result.evals >= options.max_evals) break;
        int k = j;
        bool found = false;
        auto stmts =
            RewriteStmtExprs(result.program.stmts, &k, v, &found);
        if (!found) break;
        if (!stmts) continue;
        Program candidate{std::move(*stmts)};
        ++result.evals;
        if (still_fails(candidate)) {
          result.program = std::move(candidate);
          ++result.rounds;
          improved = true;
          advanced = false;
          break;
        }
      }
      if (advanced) ++j;
    }
  }
  return result;
}

}  // namespace mitos::testing
