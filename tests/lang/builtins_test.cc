// Table-driven checks of the builtin table (MITOS_BUILTINS in
// lang/functions.h): every row, with sampled in-range arguments, must
// print a name that parses back, hold the algebraic flags it declares, and
// have fast paths that agree with its boxed body.
#include "lang/functions.h"

#include <set>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace mitos::lang {
namespace {

// Small arguments the boxed bodies can run with on the samples below
// (field indexes stay within the 3-tuples).
std::vector<int64_t> SmallArgs(const BuiltinParam& p) {
  std::vector<int64_t> out;
  for (int64_t v : {-3, -1, 0, 1, 2}) {
    if (p.lo <= v && v <= p.hi) out.push_back(v);
  }
  return out;
}

// Every combination of the given per-parameter candidates.
std::vector<std::vector<int64_t>> Combinations(
    const Builtin& row,
    std::vector<int64_t> (*candidates)(const BuiltinParam&)) {
  std::vector<std::vector<int64_t>> out = {{}};
  for (const BuiltinParam& p : row.params) {
    std::vector<std::vector<int64_t>> next;
    for (const std::vector<int64_t>& prefix : out) {
      for (int64_t v : candidates(p)) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

std::vector<int64_t> BoundaryAndSmallArgs(const BuiltinParam& p) {
  std::vector<int64_t> out = SmallArgs(p);
  out.push_back(p.lo);
  out.push_back(p.hi);
  return out;
}

const std::vector<int64_t> kInts = {-7, -1, 0, 1, 2, 5, 12, 1000};
const std::vector<double> kDoubles = {-2.5, 0.0, 0.1, 0.2, 0.3, 1.0, 1e16};

DatumVector Samples(BuiltinDomain domain) {
  DatumVector out;
  switch (domain) {
    case BuiltinDomain::kAny:
      out.push_back(Datum::String("s"));
      out.push_back(Datum::Pair(Datum::Int64(1), Datum::Int64(2)));
      [[fallthrough]];
    case BuiltinDomain::kInt64:
      for (int64_t v : kInts) out.push_back(Datum::Int64(v));
      break;
    case BuiltinDomain::kDouble:
      for (double v : kDoubles) out.push_back(Datum::Double(v));
      break;
    case BuiltinDomain::kString:
      for (const char* v : {"", "a", "xyz", "hello"}) {
        out.push_back(Datum::String(v));
      }
      break;
    case BuiltinDomain::kTuple:
      for (int64_t k : {0, 2}) {
        for (int64_t a : {-1, 0, 5}) {
          for (int64_t b : {0, 5, 9}) {
            out.push_back(Datum::Tuple(
                {Datum::Int64(k), Datum::Int64(a), Datum::Int64(b)}));
          }
        }
      }
      break;
  }
  return out;
}

std::string NameOf(const AnyFn& fn) {
  return std::visit([](const auto& f) { return f.name; }, fn);
}

// The row's name as the parser reads it back from `x = y.method(name);`.
std::string ParsedName(FnKind kind, const std::string& name) {
  const char* method = kind == FnKind::kUnary       ? "map"
                       : kind == FnKind::kPredicate ? "filter"
                       : kind == FnKind::kFlatMap   ? "flatMap"
                                                    : "reduce";
  const std::string source =
      std::string("x = y.") + method + "(" + name + ");";
  StatusOr<Program> program = Parse(source);
  if (!program.ok()) return program.status().ToString();
  const Expr& e = *program->stmts.at(0)->expr;
  switch (kind) {
    case FnKind::kUnary:
      return e.unary.name;
    case FnKind::kPredicate:
      return e.pred.name;
    case FnKind::kFlatMap:
      return e.flat.name;
    case FnKind::kBinary:
      return e.binary.name;
  }
  return "";
}

TEST(BuiltinsTest, NamesAreUniqueAndOnlyCombinersCarryFlags) {
  std::set<std::string> names;
  for (const Builtin& row : Builtins()) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    if (row.kind != FnKind::kBinary) {
      EXPECT_EQ(row.flags, kNoFlags) << row.name;
    }
    for (const BuiltinParam& p : row.params) {
      EXPECT_LE(p.lo, p.hi) << row.name << " " << p.name;
    }
  }
}

TEST(BuiltinsTest, PrintedNameParsesBack) {
  for (const Builtin& row : Builtins()) {
    for (const std::vector<int64_t>& args :
         Combinations(row, BoundaryAndSmallArgs)) {
      const std::string name = NameOf(row.make(args.data()));
      std::string want = row.name;
      for (size_t i = 0; i < args.size(); ++i) {
        want += i == 0 ? "(" : ", ";
        want += std::to_string(args[i]);
      }
      if (!args.empty()) want += ")";
      EXPECT_EQ(name, want);
      EXPECT_EQ(ParsedName(row.kind, name), name);
    }
  }
}

TEST(BuiltinsTest, LookupRejectsWrongArityRangeAndKind) {
  for (const Builtin& row : Builtins()) {
    std::vector<int64_t> args(row.params.size() + 1, 1);
    StatusOr<AnyFn> extra = MakeBuiltin(row.kind, row.name, args);
    ASSERT_FALSE(extra.ok()) << row.name;
    EXPECT_NE(extra.status().message().find("expects"), std::string::npos);
    for (size_t i = 0; i < row.params.size(); ++i) {
      const BuiltinParam& p = row.params[i];
      std::vector<int64_t> in_range(row.params.size(), 0);
      for (size_t j = 0; j < row.params.size(); ++j) {
        in_range[j] = row.params[j].lo;
      }
      EXPECT_TRUE(MakeBuiltin(row.kind, row.name, in_range).ok());
      if (p.lo > INT64_MIN) {
        std::vector<int64_t> below = in_range;
        below[i] = p.lo - 1;
        StatusOr<AnyFn> fn = MakeBuiltin(row.kind, row.name, below);
        ASSERT_FALSE(fn.ok()) << row.name;
        EXPECT_NE(fn.status().message().find(p.name), std::string::npos)
            << fn.status().message();
      }
      if (p.hi < INT64_MAX) {
        std::vector<int64_t> above = in_range;
        above[i] = p.hi + 1;
        EXPECT_FALSE(MakeBuiltin(row.kind, row.name, above).ok());
      }
    }
    // A name is unknown under every other kind.
    const FnKind other =
        row.kind == FnKind::kUnary ? FnKind::kBinary : FnKind::kUnary;
    StatusOr<AnyFn> wrong = MakeBuiltin(other, row.name, {});
    ASSERT_FALSE(wrong.ok()) << row.name;
    EXPECT_NE(wrong.status().message().find("unknown"), std::string::npos);
  }
}

// The boxed body accepts every sample of the row's declared domain.
TEST(BuiltinsTest, BodiesAcceptTheirDomain) {
  for (const Builtin& row : Builtins()) {
    const DatumVector samples = Samples(row.domain);
    for (const std::vector<int64_t>& args : Combinations(row, SmallArgs)) {
      const AnyFn fn = row.make(args.data());
      for (const Datum& x : samples) {
        if (const auto* u = std::get_if<UnaryFn>(&fn)) (*u)(x);
        if (const auto* p = std::get_if<PredicateFn>(&fn)) (*p)(x);
        if (const auto* m = std::get_if<FlatMapFn>(&fn)) (*m)(x);
        if (const auto* b = std::get_if<BinaryFn>(&fn)) (*b)(x, x);
      }
    }
  }
}

// Each flag a combiner declares holds on every sample of its domain, and a
// flag it leaves out has a counterexample there: the flags are exact.
TEST(BuiltinsTest, DeclaredFlagsHoldAndOmittedFlagsFail) {
  for (const Builtin& row : Builtins()) {
    if (row.kind != FnKind::kBinary) continue;
    const BinaryFn f = std::get<BinaryFn>(row.make(nullptr));
    const DatumVector samples = Samples(row.domain == BuiltinDomain::kAny
                                            ? BuiltinDomain::kInt64
                                            : row.domain);
    bool commutes = true;
    bool associates = true;
    for (const Datum& a : samples) {
      for (const Datum& b : samples) {
        commutes = commutes && f(a, b) == f(b, a);
        for (const Datum& c : samples) {
          associates = associates && f(f(a, b), c) == f(a, f(b, c));
        }
      }
    }
    EXPECT_EQ(commutes, row.commutative()) << row.name;
    EXPECT_EQ(associates, row.associative()) << row.name;
    if (f.i64) {
      EXPECT_TRUE(row.commutative() && row.associative())
          << row.name << " has an i64 fast path";
    }
  }
}

// The fuzzer's combiners: the commutative and associative int64 rows, in
// table order. Its RNG draws one of exactly these three.
TEST(BuiltinsTest, GeneratorCombinersAreSumMinMax) {
  std::vector<std::string> names;
  for (const Builtin& row : Builtins()) {
    if (row.kind == FnKind::kBinary && row.domain == BuiltinDomain::kInt64 &&
        row.commutative() && row.associative()) {
      names.push_back(row.name);
    }
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"sumInt64", "minInt64", "maxInt64"}));
}

Datum IntPair(int64_t k, int64_t v) {
  return Datum::Pair(Datum::Int64(k), Datum::Int64(v));
}

TEST(BuiltinsTest, FastPathsMatchBoxedBodies) {
  int checked = 0;
  for (const Builtin& row : Builtins()) {
    for (const std::vector<int64_t>& args : Combinations(row, SmallArgs)) {
      const AnyFn any = row.make(args.data());
      const std::string& name = NameOf(any);
      if (const auto* f = std::get_if<UnaryFn>(&any)) {
        for (int64_t x : kInts) {
          if (f->i64) {
            EXPECT_EQ((*f)(Datum::Int64(x)), Datum::Int64(f->i64(x))) << name;
          }
          if (f->i64_to_pair) {
            const Int64Pair p = f->i64_to_pair(x);
            EXPECT_EQ((*f)(Datum::Int64(x)), IntPair(p.first, p.second))
                << name;
          }
          for (int64_t y : kInts) {
            if (f->pair_to_i64) {
              EXPECT_EQ((*f)(IntPair(x, y)),
                        Datum::Int64(f->pair_to_i64(x, y)))
                  << name;
            }
            if (f->pair_to_pair) {
              const Int64Pair p = f->pair_to_pair(x, y);
              EXPECT_EQ((*f)(IntPair(x, y)), IntPair(p.first, p.second))
                  << name;
            }
          }
        }
        if (f->f64) {
          for (double x : kDoubles) {
            EXPECT_EQ((*f)(Datum::Double(x)), Datum::Double(f->f64(x)))
                << name;
          }
        }
        checked += f->i64 || f->f64 || f->i64_to_pair || f->pair_to_i64 ||
                   f->pair_to_pair;
      }
      if (const auto* f = std::get_if<BinaryFn>(&any); f && f->i64) {
        for (int64_t a : kInts) {
          for (int64_t b : kInts) {
            EXPECT_EQ((*f)(Datum::Int64(a), Datum::Int64(b)),
                      Datum::Int64(f->i64(a, b)))
                << name;
          }
        }
        ++checked;
      }
      if (const auto* f = std::get_if<PredicateFn>(&any)) {
        for (int64_t x : kInts) {
          if (f->i64) {
            EXPECT_EQ((*f)(Datum::Int64(x)), f->i64(x)) << name;
          }
          for (int64_t y : kInts) {
            if (f->pair) {
              EXPECT_EQ((*f)(IntPair(x, y)), f->pair(x, y)) << name;
            }
          }
        }
        checked += f->i64 || f->pair;
      }
      if (const auto* f = std::get_if<FlatMapFn>(&any); f && f->i64) {
        for (int64_t x : kInts) {
          std::vector<int64_t> typed;
          f->i64(x, &typed);
          DatumVector boxed;
          for (int64_t v : typed) boxed.push_back(Datum::Int64(v));
          EXPECT_EQ((*f)(Datum::Int64(x)), boxed) << name;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace mitos::lang
