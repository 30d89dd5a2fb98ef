#include "lang/functions.h"

#include <cstdlib>
#include <initializer_list>

#include "common/logging.h"

namespace mitos::lang {

namespace {

bool InRange(int64_t v, int64_t lo, int64_t hi) { return lo <= v && v <= hi; }

// name, name(p) or name(p, q).
std::string PrintedName(const char* name,
                        std::initializer_list<int64_t> args) {
  std::string out = name;
  if (args.size() == 0) return out;
  const char* sep = "(";
  for (int64_t a : args) {
    out += sep;
    out += std::to_string(a);
    sep = ", ";
  }
  out += ')';
  return out;
}

const char* KindNoun(FnKind kind) {
  switch (kind) {
    case FnKind::kUnary:
      return "element function";
    case FnKind::kBinary:
      return "combiner";
    case FnKind::kPredicate:
      return "predicate";
    case FnKind::kFlatMap:
      return "flatMap function";
  }
  return "function";
}

}  // namespace

namespace fns {

// Each factory CHECKs its arguments against the row's ranges; the parser
// validates first (MakeBuiltin), so only a C++ caller can trip the CHECK.
#define MITOS_DEFINE0(Kind, Factory, id, domain, flags, ...) \
  Kind##Fn Factory() {                                       \
    Kind##Fn f;                                              \
    f.name = #id;                                            \
    __VA_ARGS__                                              \
    return f;                                                \
  }
#define MITOS_DEFINE1(Kind, Factory, id, domain, flags, p, p_lo, p_hi, ...) \
  Kind##Fn Factory(int64_t p) {                                             \
    MITOS_CHECK(InRange(p, p_lo, p_hi)) << #id ": " #p " = " << p;          \
    Kind##Fn f;                                                             \
    f.name = PrintedName(#id, {p});                                         \
    __VA_ARGS__                                                             \
    return f;                                                               \
  }
#define MITOS_DEFINE2(Kind, Factory, id, domain, flags, p, p_lo, p_hi, q, \
                      q_lo, q_hi, ...)                                    \
  Kind##Fn Factory(int64_t p, int64_t q) {                                \
    MITOS_CHECK(InRange(p, p_lo, p_hi)) << #id ": " #p " = " << p;        \
    MITOS_CHECK(InRange(q, q_lo, q_hi)) << #id ": " #q " = " << q;        \
    Kind##Fn f;                                                           \
    f.name = PrintedName(#id, {p, q});                                    \
    __VA_ARGS__                                                           \
    return f;                                                             \
  }
MITOS_BUILTINS(MITOS_DEFINE0, MITOS_DEFINE1, MITOS_DEFINE2)
#undef MITOS_DEFINE0
#undef MITOS_DEFINE1
#undef MITOS_DEFINE2

}  // namespace fns

const std::vector<Builtin>& Builtins() {
#define MITOS_ROW0(Kind, Factory, id, domain, flags, ...)  \
  {#id, FnKind::k##Kind, BuiltinDomain::domain, flags, {}, \
   [](const int64_t*) -> AnyFn { return fns::Factory(); }},
#define MITOS_ROW1(Kind, Factory, id, domain, flags, p, p_lo, p_hi, ...) \
  {#id, FnKind::k##Kind, BuiltinDomain::domain, flags,                   \
   {{#p, p_lo, p_hi}},                                                   \
   [](const int64_t* args) -> AnyFn { return fns::Factory(args[0]); }},
#define MITOS_ROW2(Kind, Factory, id, domain, flags, p, p_lo, p_hi, q, \
                   q_lo, q_hi, ...)                                    \
  {#id, FnKind::k##Kind, BuiltinDomain::domain, flags,                 \
   {{#p, p_lo, p_hi}, {#q, q_lo, q_hi}},                               \
   [](const int64_t* args) -> AnyFn {                                  \
     return fns::Factory(args[0], args[1]);                            \
   }},
  static const std::vector<Builtin> rows = {
      MITOS_BUILTINS(MITOS_ROW0, MITOS_ROW1, MITOS_ROW2)};
#undef MITOS_ROW0
#undef MITOS_ROW1
#undef MITOS_ROW2
  return rows;
}

StatusOr<AnyFn> MakeBuiltin(FnKind kind, const std::string& name,
                            const std::vector<int64_t>& args) {
  for (const Builtin& row : Builtins()) {
    if (row.kind != kind || name != row.name) continue;
    if (args.size() != row.params.size()) {
      return Status::InvalidArgument(
          "builtin '" + name + "' expects " +
          std::to_string(row.params.size()) + " argument(s), got " +
          std::to_string(args.size()));
    }
    for (size_t i = 0; i < args.size(); ++i) {
      const BuiltinParam& param = row.params[i];
      if (!InRange(args[i], param.lo, param.hi)) {
        return Status::InvalidArgument(
            "builtin '" + name + "' parameter '" + param.name + "' is " +
            std::to_string(args[i]) + ", outside [" +
            std::to_string(param.lo) + ", " + std::to_string(param.hi) + "]");
      }
    }
    return row.make(args.data());
  }
  return Status::InvalidArgument(std::string("unknown ") + KindNoun(kind) +
                                 " '" + name + "'");
}

}  // namespace mitos::lang
