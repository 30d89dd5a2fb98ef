// Named user-function wrappers for bag operations, and the table of
// builtins.
//
// The paper's user programs pass Scala lambdas to bag operations (map,
// filter, reduceByKey, ...). We wrap std::function with a name so that IR
// dumps and dataflow visualizations stay readable; the function body itself
// is opaque to the compiler, exactly as in the paper (only control flow is
// inspected, never lambda bodies).
//
// Each wrapper optionally carries typed fast-path variants operating on raw
// int64/double values. These power the vectorized kernels over columnar
// chunks (common/chunk.h): when a chunk's representation matches a fast
// path, the kernel runs a tight loop with no Datum boxing. A fast path MUST
// be exactly equivalent to `fn` on the corresponding representation — the
// fuzz harness cross-checks this by diffing columnar-on vs columnar-off
// runs element-for-element, and tests/lang/builtins_test.cc checks it row
// by row.
#ifndef MITOS_LANG_FUNCTIONS_H_
#define MITOS_LANG_FUNCTIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/datum.h"
#include "common/status.h"

namespace mitos::lang {

// (key, value) int64 pair for typed fast paths.
using Int64Pair = std::pair<int64_t, int64_t>;

// Element -> element (map, key extraction).
struct UnaryFn {
  std::string name;
  std::function<Datum(const Datum&)> fn;

  // Typed fast paths (all optional; see file comment).
  std::function<int64_t(int64_t)> i64;            // int64 -> int64
  std::function<double(double)> f64;              // double -> double
  std::function<Int64Pair(int64_t)> i64_to_pair;  // int64 -> (k, v)
  std::function<int64_t(int64_t, int64_t)> pair_to_i64;    // (k, v) -> int64
  std::function<Int64Pair(int64_t, int64_t)> pair_to_pair;  // (k,v) -> (k,v)

  bool valid() const { return static_cast<bool>(fn); }
  Datum operator()(const Datum& x) const { return fn(x); }
};

// (element, element) -> element (reduce, reduceByKey combiners, join output).
struct BinaryFn {
  std::string name;
  std::function<Datum(const Datum&, const Datum&)> fn;

  // int64 fast path. Only set for combiners that are commutative and
  // associative on int64 (sum/min/max), where a typed fold over the
  // canonical sorted order provably matches the generic Datum fold.
  // Order-sensitive combiners (keepLast) must stay generic.
  std::function<int64_t(int64_t, int64_t)> i64;

  bool valid() const { return static_cast<bool>(fn); }
  Datum operator()(const Datum& a, const Datum& b) const { return fn(a, b); }
};

// Element -> bool (filter).
struct PredicateFn {
  std::string name;
  std::function<bool(const Datum&)> fn;

  // Typed fast paths.
  std::function<bool(int64_t)> i64;
  std::function<bool(int64_t, int64_t)> pair;

  bool valid() const { return static_cast<bool>(fn); }
  bool operator()(const Datum& x) const { return fn(x); }
};

// Element -> elements (flatMap).
struct FlatMapFn {
  std::string name;
  std::function<DatumVector(const Datum&)> fn;

  // int64 -> int64s fast path; appends outputs to `out`.
  std::function<void(int64_t, std::vector<int64_t>*)> i64;

  bool valid() const { return static_cast<bool>(fn); }
  DatumVector operator()(const Datum& x) const { return fn(x); }
};

// ----- The builtin table -----
//
// Every builtin element function of the language is one row below, and
// nothing else defines one: the fns:: factories, the printed names, the
// parser's lookup and arity/range checks (MakeBuiltin) and the generator's
// combiner set all expand from these rows. A row is
//
//   X0(Kind, Factory, id, domain, flags, body...)
//   X1(Kind, Factory, id, domain, flags, p, p_lo, p_hi, body...)
//   X2(Kind, Factory, id, domain, flags, p, p_lo, p_hi, q, q_lo, q_hi,
//      body...)
//
//   Kind     Unary | Binary | Predicate | FlatMap: fills a Kind##Fn.
//   Factory  the fns:: factory: `id` capitalized.
//   id       the printed and parsed name. A row with parameters prints as
//            id(p) or id(p, q), e.g. addInt64(-3) or modEquals(2, 0).
//   domain   the element shape the boxed body accepts (BuiltinDomain).
//   flags    algebraic properties of a combiner on its domain
//            (kCommutative, kAssociative); kNoFlags elsewhere.
//   p, q     int64 literal parameters with their inclusive valid ranges.
//            MakeBuiltin rejects an argument outside them, the factory
//            CHECKs them.
//   body     statements that fill `f`: its boxed `fn` and exactly the
//            typed fast paths it has. The parameters are in scope.
//
// A combiner with an i64 fast path must be commutative and associative
// (see BinaryFn). Rows keep their order: RandomCombiner draws from the
// commutative and associative int64 rows in table order.
// clang-format off
#define MITOS_BUILTINS(X0, X1, X2)                                            \
  /* ---- map ---- */                                                         \
  X0(Unary, Identity, identity, kAny, kNoFlags,                               \
     f.fn = [](const Datum& x) { return x; };                                 \
     f.i64 = [](int64_t x) { return x; };                                     \
     f.f64 = [](double x) { return x; };                                      \
     f.pair_to_pair = [](int64_t k, int64_t v) { return Int64Pair{k, v}; };)  \
  /* x -> (x, 1): the word-count/visit-count mapper. */                       \
  X0(Unary, PairWithOne, pairWithOne, kAny, kNoFlags,                         \
     f.fn = [](const Datum& x) { return Datum::Pair(x, Datum::Int64(1)); };   \
     f.i64_to_pair = [](int64_t x) { return Int64Pair{x, 1}; };)              \
  /* Columnar pairs are exactly width-2 tuples, so field(0)/field(1) have */  \
  /* typed projections. */                                                    \
  X1(Unary, Field, field, kTuple, kNoFlags, i, 0, INT64_MAX,                  \
     f.fn = [i](const Datum& x) { return x.field(static_cast<size_t>(i)); };  \
     if (i == 0) f.pair_to_i64 = [](int64_t k, int64_t) { return k; };        \
     if (i == 1) f.pair_to_i64 = [](int64_t, int64_t v) { return v; };)       \
  X1(Unary, AddInt64, addInt64, kInt64, kNoFlags, delta, INT64_MIN,           \
     INT64_MAX,                                                               \
     f.fn = [delta](const Datum& x) {                                         \
       return Datum::Int64(x.int64() + delta);                                \
     };                                                                       \
     f.i64 = [delta](int64_t x) { return x + delta; };)                       \
  X1(Unary, MulInt64, mulInt64, kInt64, kNoFlags, k, INT64_MIN, INT64_MAX,    \
     f.fn = [k](const Datum& x) { return Datum::Int64(x.int64() * k); };      \
     f.i64 = [k](int64_t x) { return x * k; };)                               \
  X1(Unary, ScaleDouble, scaleDouble, kDouble, kNoFlags, factor, INT64_MIN,   \
     INT64_MAX, const double by = static_cast<double>(factor);                \
     f.fn = [by](const Datum& x) { return Datum::Double(x.dbl() * by); };     \
     f.f64 = [by](double x) { return x * by; };)                              \
  /* Join output (k, lv, rv) -> (k, lv + rv): keeps joined pipelines */       \
  /* joinable and reducible. Width-3 tuples are never columnar. */            \
  X0(Unary, SumJoin, sumJoin, kTuple, kNoFlags,                               \
     f.fn = [](const Datum& t) {                                              \
       return Datum::Pair(t.field(0), Datum::Int64(t.field(1).int64() +       \
                                                   t.field(2).int64()));      \
     };)                                                                      \
  X0(Unary, PairSwap, pairSwap, kTuple, kNoFlags,                             \
     f.fn = [](const Datum& p) {                                              \
       return Datum::Pair(p.field(1), p.field(0));                            \
     };                                                                       \
     f.pair_to_pair = [](int64_t k, int64_t v) { return Int64Pair{v, k}; };)  \
  /* (key, today, yesterday) -> |today - yesterday|: the paper's */           \
  /* map((id, today, yesterday) => abs(today - yesterday)). */                \
  X0(Unary, AbsDiff, absDiff, kTuple, kNoFlags,                               \
     f.fn = [](const Datum& x) {                                              \
       return Datum::Int64(                                                   \
           std::abs(x.field(1).int64() - x.field(2).int64()));                \
     };)                                                                      \
  /* Maps string bags back into the int vocabulary. */                        \
  X0(Unary, StrLen, strLen, kString, kNoFlags,                                \
     f.fn = [](const Datum& x) {                                              \
       return Datum::Int64(static_cast<int64_t>(x.str().size()));             \
     };)                                                                      \
  /* s -> s + "#" + k: a string-preserving transform. */                      \
  X1(Unary, StrTag, strTag, kString, kNoFlags, k, INT64_MIN, INT64_MAX,       \
     f.fn = [k](const Datum& x) {                                             \
       std::string s = x.str();                                               \
       s += '#';                                                              \
       s += std::to_string(k);                                                \
       return Datum::String(std::move(s));                                    \
     };)                                                                      \
  /* ---- reduce / reduceByKey ---- */                                        \
  X0(Binary, SumInt64, sumInt64, kInt64, kCommutative | kAssociative,         \
     f.fn = [](const Datum& a, const Datum& b) {                              \
       return Datum::Int64(a.int64() + b.int64());                            \
     };                                                                       \
     f.i64 = [](int64_t a, int64_t b) { return a + b; };)                     \
  /* Floating-point addition is not associative. */                           \
  X0(Binary, SumDouble, sumDouble, kDouble, kCommutative,                     \
     f.fn = [](const Datum& a, const Datum& b) {                              \
       return Datum::Double(a.dbl() + b.dbl());                               \
     };)                                                                      \
  X0(Binary, MinInt64, minInt64, kInt64, kCommutative | kAssociative,         \
     f.fn = [](const Datum& a, const Datum& b) {                              \
       return a.int64() <= b.int64() ? a : b;                                 \
     };                                                                       \
     f.i64 = [](int64_t a, int64_t b) { return a <= b ? a : b; };)            \
  X0(Binary, MaxInt64, maxInt64, kInt64, kCommutative | kAssociative,         \
     f.fn = [](const Datum& a, const Datum& b) {                              \
       return a.int64() >= b.int64() ? a : b;                                 \
     };                                                                       \
     f.i64 = [](int64_t a, int64_t b) { return a >= b ? a : b; };)            \
  /* (a, b) -> b: the result depends on fold order, so no fast path. */      \
  X0(Binary, KeepLast, keepLast, kAny, kAssociative,                          \
     f.fn = [](const Datum&, const Datum& b) { return b; };)                  \
  /* ---- filter ---- */                                                      \
  X2(Predicate, FieldEquals, fieldEquals, kTuple, kNoFlags, i, 0, INT64_MAX,  \
     v, INT64_MIN, INT64_MAX, const Datum want = Datum::Int64(v);             \
     f.fn = [i, want](const Datum& x) {                                       \
       return x.field(static_cast<size_t>(i)) == want;                        \
     };                                                                       \
     if (i == 0) f.pair = [v](int64_t k, int64_t) { return k == v; };         \
     if (i == 1) f.pair = [v](int64_t, int64_t w) { return w == v; };)        \
  X2(Predicate, ModEquals, modEquals, kInt64, kNoFlags, modulus, 1,           \
     INT64_MAX, remainder, INT64_MIN, INT64_MAX,                              \
     f.fn = [modulus, remainder](const Datum& x) {                            \
       return x.int64() % modulus == remainder;                               \
     };                                                                       \
     f.i64 = [modulus, remainder](int64_t x) {                                \
       return x % modulus == remainder;                                       \
     };)                                                                      \
  X1(Predicate, GtInt64, gtInt64, kInt64, kNoFlags, k, INT64_MIN, INT64_MAX,  \
     f.fn = [k](const Datum& x) { return x.int64() > k; };                    \
     f.i64 = [k](int64_t x) { return x > k; };)                               \
  X1(Predicate, LtInt64, ltInt64, kInt64, kNoFlags, k, INT64_MIN, INT64_MAX,  \
     f.fn = [k](const Datum& x) { return x.int64() < k; };                    \
     f.i64 = [k](int64_t x) { return x < k; };)                               \
  X1(Predicate, StrLenGt, strLenGt, kString, kNoFlags, k, INT64_MIN,          \
     INT64_MAX, f.fn = [k](const Datum& x) {                                  \
       return static_cast<int64_t>(x.str().size()) > k;                       \
     };)                                                                      \
  /* ---- flatMap ---- */                                                     \
  X0(FlatMap, Dup, dup, kAny, kNoFlags,                                       \
     f.fn = [](const Datum& x) { return DatumVector{x, x}; };                 \
     f.i64 = [](int64_t x, std::vector<int64_t>* out) {                       \
       out->push_back(x);                                                     \
       out->push_back(x);                                                     \
     };)                                                                      \
  /* n -> [0, 1, ..., n-1]. */                                                \
  X0(FlatMap, RangeTo, rangeTo, kInt64, kNoFlags,                             \
     f.fn = [](const Datum& x) {                                              \
       DatumVector out;                                                       \
       for (int64_t i = 0; i < x.int64(); ++i) {                              \
         out.push_back(Datum::Int64(i));                                      \
       }                                                                      \
       return out;                                                            \
     };                                                                       \
     f.i64 = [](int64_t x, std::vector<int64_t>* out) {                       \
       for (int64_t i = 0; i < x; ++i) out->push_back(i);                     \
     };)
// clang-format on

// The element shape a builtin's boxed body accepts. Bodies abort on any
// other shape (see ROADMAP, "No input can crash the process").
enum class BuiltinDomain {
  kAny,
  kInt64,
  kDouble,
  kString,
  kTuple,  // int64 tuples wide enough for the fields the body reads
};

enum BuiltinFlags : unsigned {
  kNoFlags = 0,
  kCommutative = 1,  // f(a, b) == f(b, a)
  kAssociative = 2,  // f(f(a, b), c) == f(a, f(b, c))
};

// Which bag operation a builtin serves.
enum class FnKind { kUnary, kBinary, kPredicate, kFlatMap };

using AnyFn = std::variant<UnaryFn, BinaryFn, PredicateFn, FlatMapFn>;

struct BuiltinParam {
  const char* name;
  int64_t lo;  // inclusive
  int64_t hi;  // inclusive
};

// One expanded row of MITOS_BUILTINS.
struct Builtin {
  const char* name;
  FnKind kind;
  BuiltinDomain domain;
  unsigned flags;
  std::vector<BuiltinParam> params;
  // Calls the fns:: factory with params.size() in-range arguments.
  AnyFn (*make)(const int64_t* args);

  bool commutative() const { return (flags & kCommutative) != 0; }
  bool associative() const { return (flags & kAssociative) != 0; }
};

// Every row, in table order.
const std::vector<Builtin>& Builtins();

// The builtin `name` of `kind` applied to `args`. InvalidArgument when no
// such builtin exists, the argument count differs from the row's, or an
// argument lies outside its parameter's range.
StatusOr<AnyFn> MakeBuiltin(FnKind kind, const std::string& name,
                            const std::vector<int64_t>& args);

namespace fns {

#define MITOS_DECLARE0(Kind, Factory, ...) Kind##Fn Factory();
#define MITOS_DECLARE1(Kind, Factory, id, domain, flags, p, ...) \
  Kind##Fn Factory(int64_t p);
#define MITOS_DECLARE2(Kind, Factory, id, domain, flags, p, p_lo, p_hi, q, \
                       ...)                                                  \
  Kind##Fn Factory(int64_t p, int64_t q);
MITOS_BUILTINS(MITOS_DECLARE0, MITOS_DECLARE1, MITOS_DECLARE2)
#undef MITOS_DECLARE0
#undef MITOS_DECLARE1
#undef MITOS_DECLARE2

}  // namespace fns

}  // namespace mitos::lang

#endif  // MITOS_LANG_FUNCTIONS_H_
