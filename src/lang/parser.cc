#include "lang/parser.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.h"

namespace mitos::lang {

namespace {

// ----- tokens -----

enum class TokKind {
  kEnd, kIdent, kInt, kFloat, kString,
  kLParen, kRParen, kLBrace, kRBrace, kComma, kSemicolon, kDot,
  kAssign,                                   // =
  kPlus, kMinus, kStar, kSlash, kPercent, kConcat,  // + - * / % ++
  kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr, kNot,
  kKwWhile, kKwDo, kKwIf, kKwElse, kKwWrite, kKwTrue, kKwFalse,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  uint64_t magnitude = 0;  // kInt; saturates at UINT64_MAX
  double float_value = 0;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) {}

  StatusOr<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      Token token;
      token.line = line_;
      token.col = col_;
      if (AtEnd()) {
        token.kind = TokKind::kEnd;
        tokens.push_back(token);
        return tokens;
      }
      char c = Peek();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string word;
        while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                            Peek() == '_')) {
          word.push_back(Get());
        }
        token.text = word;
        if (word == "while") token.kind = TokKind::kKwWhile;
        else if (word == "do") token.kind = TokKind::kKwDo;
        else if (word == "if") token.kind = TokKind::kKwIf;
        else if (word == "else") token.kind = TokKind::kKwElse;
        else if (word == "write") token.kind = TokKind::kKwWrite;
        else if (word == "true") token.kind = TokKind::kKwTrue;
        else if (word == "false") token.kind = TokKind::kKwFalse;
        else token.kind = TokKind::kIdent;
        tokens.push_back(std::move(token));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string number;
        bool is_float = false;
        while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                            Peek() == '.')) {
          if (Peek() == '.') {
            // A dot followed by a non-digit is a method call, not a float.
            if (pos_ + 1 >= src_.size() ||
                !std::isdigit(static_cast<unsigned char>(src_[pos_ + 1]))) {
              break;
            }
            is_float = true;
          }
          number.push_back(Get());
        }
        token.text = number;
        if (is_float) {
          token.kind = TokKind::kFloat;
          token.float_value = std::strtod(number.c_str(), nullptr);
        } else {
          token.kind = TokKind::kInt;
          token.magnitude = std::strtoull(number.c_str(), nullptr, 10);
        }
        tokens.push_back(std::move(token));
        continue;
      }
      if (c == '"') {
        Get();
        std::string value;
        while (!AtEnd() && Peek() != '"') {
          char ch = Get();
          if (ch == '\\' && !AtEnd()) {
            char esc = Get();
            value.push_back(esc == 'n' ? '\n' : esc);
          } else {
            value.push_back(ch);
          }
        }
        if (AtEnd()) return Error(token, "unterminated string literal");
        Get();  // closing quote
        token.kind = TokKind::kString;
        token.text = std::move(value);
        tokens.push_back(std::move(token));
        continue;
      }
      // Operators and punctuation.
      Get();
      switch (c) {
        case '(': token.kind = TokKind::kLParen; break;
        case ')': token.kind = TokKind::kRParen; break;
        case '{': token.kind = TokKind::kLBrace; break;
        case '}': token.kind = TokKind::kRBrace; break;
        case ',': token.kind = TokKind::kComma; break;
        case ';': token.kind = TokKind::kSemicolon; break;
        case '.': token.kind = TokKind::kDot; break;
        case '*': token.kind = TokKind::kStar; break;
        case '/': token.kind = TokKind::kSlash; break;
        case '%': token.kind = TokKind::kPercent; break;
        case '-': token.kind = TokKind::kMinus; break;
        case '+':
          token.kind = Match('+') ? TokKind::kConcat : TokKind::kPlus;
          break;
        case '=':
          token.kind = Match('=') ? TokKind::kEq : TokKind::kAssign;
          break;
        case '!':
          token.kind = Match('=') ? TokKind::kNe : TokKind::kNot;
          break;
        case '<':
          token.kind = Match('=') ? TokKind::kLe : TokKind::kLt;
          break;
        case '>':
          token.kind = Match('=') ? TokKind::kGe : TokKind::kGt;
          break;
        case '&':
          if (!Match('&')) return Error(token, "expected '&&'");
          token.kind = TokKind::kAnd;
          break;
        case '|':
          if (!Match('|')) return Error(token, "expected '||'");
          token.kind = TokKind::kOr;
          break;
        default:
          return Error(token, std::string("unexpected character '") + c +
                                  "'");
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek() const { return src_[pos_]; }
  char Get() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  bool Match(char expected) {
    if (AtEnd() || Peek() != expected) return false;
    Get();
    return true;
  }
  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Get();
      } else if (c == '/' && pos_ + 1 < src_.size() &&
                 src_[pos_ + 1] == '/') {
        while (!AtEnd() && Peek() != '\n') Get();
      } else {
        break;
      }
    }
  }
  static Status Error(const Token& at, const std::string& message) {
    return Status::InvalidArgument(
        "line " + std::to_string(at.line) + ", col " +
        std::to_string(at.col) + ": " + message);
  }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

// ----- builtin function references -----

// A parsed function reference: name plus optional int64 literal arguments,
// e.g. addInt64(1) or modEquals(2, 0).
struct FnRef {
  std::string name;
  std::vector<int64_t> args;
  int line = 0;
  int col = 0;
};

// Looks `ref` up in the builtin table (lang/functions.h).
template <typename Fn>
StatusOr<Fn> Resolve(FnKind kind, const FnRef& ref) {
  StatusOr<AnyFn> fn = MakeBuiltin(kind, ref.name, ref.args);
  if (!fn.ok()) {
    return Status::InvalidArgument("line " + std::to_string(ref.line) +
                                   ", col " + std::to_string(ref.col) + ": " +
                                   fn.status().message());
  }
  return std::get<Fn>(std::move(fn).value());
}

// ----- parser -----

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Program> Run() {
    Program program;
    while (!Check(TokKind::kEnd)) {
      StatusOr<StmtPtr> stmt = ParseStmt();
      if (!stmt.ok()) return stmt.status();
      program.stmts.push_back(*stmt);
    }
    return program;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Previous() const { return tokens_[pos_ - 1]; }
  bool Check(TokKind kind) const { return Peek().kind == kind; }
  bool MatchTok(TokKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokKind kind, const char* what) {
    if (MatchTok(kind)) return Status::Ok();
    return ErrorHere(std::string("expected ") + what);
  }
  Status ErrorHere(const std::string& message) const {
    const Token& t = Peek();
    return Status::InvalidArgument("line " + std::to_string(t.line) +
                                   ", col " + std::to_string(t.col) + ": " +
                                   message +
                                   (t.text.empty() ? "" : " near '" +
                                                              t.text + "'"));
  }

  StatusOr<StmtList> ParseBlock() {
    MITOS_RETURN_IF_ERROR(Expect(TokKind::kLBrace, "'{'"));
    StmtList stmts;
    while (!Check(TokKind::kRBrace) && !Check(TokKind::kEnd)) {
      StatusOr<StmtPtr> stmt = ParseStmt();
      if (!stmt.ok()) return stmt.status();
      stmts.push_back(*stmt);
    }
    MITOS_RETURN_IF_ERROR(Expect(TokKind::kRBrace, "'}'"));
    return stmts;
  }

  StatusOr<StmtPtr> ParseStmt() {
    if (MatchTok(TokKind::kKwWhile)) {
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      StatusOr<ExprPtr> cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      StatusOr<StmtList> body = ParseBlock();
      if (!body.ok()) return body.status();
      return While(*cond, *body);
    }
    if (MatchTok(TokKind::kKwDo)) {
      StatusOr<StmtList> body = ParseBlock();
      if (!body.ok()) return body.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kKwWhile, "'while'"));
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      StatusOr<ExprPtr> cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
      return DoWhile(*body, *cond);
    }
    if (MatchTok(TokKind::kKwIf)) {
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      StatusOr<ExprPtr> cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      StatusOr<StmtList> then_body = ParseBlock();
      if (!then_body.ok()) return then_body.status();
      StmtList else_body;
      if (MatchTok(TokKind::kKwElse)) {
        StatusOr<StmtList> parsed = ParseBlock();
        if (!parsed.ok()) return parsed.status();
        else_body = *parsed;
      }
      return If(*cond, *then_body, else_body);
    }
    if (MatchTok(TokKind::kKwWrite)) {
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      StatusOr<ExprPtr> bag = ParseExpr();
      if (!bag.ok()) return bag.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kComma, "','"));
      StatusOr<ExprPtr> name = ParseExpr();
      if (!name.ok()) return name.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
      return WriteFile(*bag, *name);
    }
    if (Check(TokKind::kIdent)) {
      std::string name = Peek().text;
      ++pos_;
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kAssign, "'='"));
      StatusOr<ExprPtr> rhs = ParseExpr();
      if (!rhs.ok()) return rhs.status();
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kSemicolon, "';'"));
      return Assign(std::move(name), *rhs);
    }
    return ErrorHere("expected a statement");
  }

  // Precedence climbing: || < && < equality < comparison < additive
  // (+ - ++) < multiplicative (* / %) < unary < postfix.
  StatusOr<ExprPtr> ParseExpr() { return ParseOr(); }

  StatusOr<ExprPtr> ParseOr() {
    StatusOr<ExprPtr> left = ParseAnd();
    if (!left.ok()) return left;
    while (MatchTok(TokKind::kOr)) {
      StatusOr<ExprPtr> right = ParseAnd();
      if (!right.ok()) return right;
      left = Or(*left, *right);
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAnd() {
    StatusOr<ExprPtr> left = ParseEquality();
    if (!left.ok()) return left;
    while (MatchTok(TokKind::kAnd)) {
      StatusOr<ExprPtr> right = ParseEquality();
      if (!right.ok()) return right;
      left = And(*left, *right);
    }
    return left;
  }

  StatusOr<ExprPtr> ParseEquality() {
    StatusOr<ExprPtr> left = ParseComparison();
    if (!left.ok()) return left;
    while (Check(TokKind::kEq) || Check(TokKind::kNe)) {
      TokKind op = Peek().kind;
      ++pos_;
      StatusOr<ExprPtr> right = ParseComparison();
      if (!right.ok()) return right;
      left = op == TokKind::kEq ? Eq(*left, *right) : Ne(*left, *right);
    }
    return left;
  }

  StatusOr<ExprPtr> ParseComparison() {
    StatusOr<ExprPtr> left = ParseAdditive();
    if (!left.ok()) return left;
    while (Check(TokKind::kLt) || Check(TokKind::kLe) ||
           Check(TokKind::kGt) || Check(TokKind::kGe)) {
      TokKind op = Peek().kind;
      ++pos_;
      StatusOr<ExprPtr> right = ParseAdditive();
      if (!right.ok()) return right;
      switch (op) {
        case TokKind::kLt: left = Lt(*left, *right); break;
        case TokKind::kLe: left = Le(*left, *right); break;
        case TokKind::kGt: left = Gt(*left, *right); break;
        default: left = Ge(*left, *right); break;
      }
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAdditive() {
    StatusOr<ExprPtr> left = ParseMultiplicative();
    if (!left.ok()) return left;
    while (Check(TokKind::kPlus) || Check(TokKind::kMinus) ||
           Check(TokKind::kConcat)) {
      TokKind op = Peek().kind;
      ++pos_;
      StatusOr<ExprPtr> right = ParseMultiplicative();
      if (!right.ok()) return right;
      switch (op) {
        case TokKind::kPlus: left = Add(*left, *right); break;
        case TokKind::kMinus: left = Sub(*left, *right); break;
        default: left = Concat(*left, *right); break;
      }
    }
    return left;
  }

  StatusOr<ExprPtr> ParseMultiplicative() {
    StatusOr<ExprPtr> left = ParseUnary();
    if (!left.ok()) return left;
    while (Check(TokKind::kStar) || Check(TokKind::kSlash) ||
           Check(TokKind::kPercent)) {
      TokKind op = Peek().kind;
      ++pos_;
      StatusOr<ExprPtr> right = ParseUnary();
      if (!right.ok()) return right;
      switch (op) {
        case TokKind::kStar: left = Mul(*left, *right); break;
        case TokKind::kSlash: left = Div(*left, *right); break;
        default: left = Mod(*left, *right); break;
      }
    }
    return left;
  }

  StatusOr<ExprPtr> ParseUnary() {
    if (MatchTok(TokKind::kNot)) {
      StatusOr<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) return operand;
      return Not(*operand);
    }
    if (MatchTok(TokKind::kMinus)) {
      StatusOr<ExprPtr> operand = ParseUnary();
      if (!operand.ok()) return operand;
      return Sub(LitInt(0), *operand);
    }
    return ParsePostfix();
  }

  // Method-call chains: expr '.' method '(' args ')'.
  StatusOr<ExprPtr> ParsePostfix() {
    StatusOr<ExprPtr> expr = ParsePrimary();
    if (!expr.ok()) return expr;
    while (MatchTok(TokKind::kDot)) {
      if (!Check(TokKind::kIdent)) return ErrorHere("expected method name");
      std::string method = Peek().text;
      ++pos_;
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
      StatusOr<ExprPtr> result = ParseMethod(*expr, method);
      if (!result.ok()) return result;
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      expr = *result;
    }
    return expr;
  }

  StatusOr<ExprPtr> ParseMethod(ExprPtr receiver, const std::string& method) {
    if (method == "distinct") return Distinct(std::move(receiver));
    if (method == "count") return Count(std::move(receiver));
    if (method == "join" || method == "union") {
      StatusOr<ExprPtr> other = ParseExpr();
      if (!other.ok()) return other;
      return method == "join" ? Join(std::move(receiver), *other)
                              : Union(std::move(receiver), *other);
    }
    // Remaining methods take a builtin function reference.
    StatusOr<FnRef> ref = ParseFnRef();
    if (!ref.ok()) return ref.status();
    if (method == "map") {
      StatusOr<UnaryFn> fn = Resolve<UnaryFn>(FnKind::kUnary, *ref);
      if (!fn.ok()) return fn.status();
      return Map(std::move(receiver), *fn);
    }
    if (method == "filter") {
      StatusOr<PredicateFn> fn =
          Resolve<PredicateFn>(FnKind::kPredicate, *ref);
      if (!fn.ok()) return fn.status();
      return Filter(std::move(receiver), *fn);
    }
    if (method == "flatMap") {
      StatusOr<FlatMapFn> fn = Resolve<FlatMapFn>(FnKind::kFlatMap, *ref);
      if (!fn.ok()) return fn.status();
      return FlatMap(std::move(receiver), *fn);
    }
    if (method == "reduceByKey" || method == "reduce") {
      StatusOr<BinaryFn> fn = Resolve<BinaryFn>(FnKind::kBinary, *ref);
      if (!fn.ok()) return fn.status();
      return method == "reduce" ? Reduce(std::move(receiver), *fn)
                                : ReduceByKey(std::move(receiver), *fn);
    }
    return ErrorHere("unknown method '" + method + "'");
  }

  StatusOr<FnRef> ParseFnRef() {
    if (!Check(TokKind::kIdent)) return ErrorHere("expected function name");
    FnRef ref;
    ref.name = Peek().text;
    ref.line = Peek().line;
    ref.col = Peek().col;
    ++pos_;
    if (MatchTok(TokKind::kLParen)) {
      if (!Check(TokKind::kRParen)) {
        do {
          bool negative = MatchTok(TokKind::kMinus);
          if (!Check(TokKind::kInt)) {
            return ErrorHere("expected integer literal argument");
          }
          StatusOr<int64_t> v = TakeInt(negative);
          if (!v.ok()) return v.status();
          ref.args.push_back(*v);
        } while (MatchTok(TokKind::kComma));
      }
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    }
    return ref;
  }

  // Consumes the current kInt token as an int64, negated if a '-' came
  // before it. -9223372036854775808 is in range, so every int64 that
  // ToSource prints reads back; a literal beyond the range is an error, not
  // a silent clamp.
  StatusOr<int64_t> TakeInt(bool negative) {
    const uint64_t magnitude = Peek().magnitude;
    const uint64_t limit =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
        (negative ? 1 : 0);
    if (magnitude > limit) return ErrorHere("integer literal out of range");
    ++pos_;
    if (!negative) return static_cast<int64_t>(magnitude);
    return magnitude == limit ? std::numeric_limits<int64_t>::min()
                              : -static_cast<int64_t>(magnitude);
  }

  // One element of a bagOf(...) literal: an int, float, or string scalar,
  // or a parenthesized tuple of literals, e.g. (1, 2) or (1, (2, "x")).
  StatusOr<Datum> ParseDatumLiteral() {
    if (MatchTok(TokKind::kLParen)) {
      DatumVector fields;
      if (!Check(TokKind::kRParen)) {
        do {
          StatusOr<Datum> field = ParseDatumLiteral();
          if (!field.ok()) return field.status();
          fields.push_back(*std::move(field));
        } while (MatchTok(TokKind::kComma));
      }
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return Datum::Tuple(std::move(fields));
    }
    bool negative = MatchTok(TokKind::kMinus);
    if (Check(TokKind::kInt)) {
      StatusOr<int64_t> v = TakeInt(negative);
      if (!v.ok()) return v.status();
      return Datum::Int64(*v);
    }
    if (Check(TokKind::kFloat)) {
      double v = Peek().float_value;
      ++pos_;
      return Datum::Double(negative ? -v : v);
    }
    if (Check(TokKind::kString) && !negative) {
      Datum v = Datum::String(Peek().text);
      ++pos_;
      return v;
    }
    return ErrorHere("expected literal in bagOf(...)");
  }

  StatusOr<ExprPtr> ParsePrimary() {
    if (Check(TokKind::kInt)) {
      StatusOr<int64_t> v = TakeInt(/*negative=*/false);
      if (!v.ok()) return v.status();
      return LitInt(*v);
    }
    if (Check(TokKind::kFloat)) {
      double v = Peek().float_value;
      ++pos_;
      return LitDouble(v);
    }
    if (Check(TokKind::kString)) {
      std::string v = Peek().text;
      ++pos_;
      return LitString(std::move(v));
    }
    if (MatchTok(TokKind::kKwTrue)) return LitBool(true);
    if (MatchTok(TokKind::kKwFalse)) return LitBool(false);
    if (MatchTok(TokKind::kLParen)) {
      StatusOr<ExprPtr> inner = ParseExpr();
      if (!inner.ok()) return inner;
      MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return inner;
    }
    if (Check(TokKind::kIdent)) {
      std::string name = Peek().text;
      ++pos_;
      // Builtin pseudo-functions.
      if (Check(TokKind::kLParen) &&
          (name == "readFile" || name == "empty" || name == "newBag" ||
           name == "scalarOf" || name == "bagOf")) {
        ++pos_;  // '('
        if (name == "empty") {
          MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
          return BagLit({});
        }
        if (name == "bagOf") {
          DatumVector values;
          if (!Check(TokKind::kRParen)) {
            do {
              StatusOr<Datum> value = ParseDatumLiteral();
              if (!value.ok()) return value.status();
              values.push_back(*std::move(value));
            } while (MatchTok(TokKind::kComma));
          }
          MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
          return BagLit(std::move(values));
        }
        StatusOr<ExprPtr> arg = ParseExpr();
        if (!arg.ok()) return arg;
        MITOS_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        if (name == "readFile") return ReadFile(*arg);
        if (name == "newBag") return FromScalar(*arg);
        return ScalarFromBag(*arg);
      }
      return Var(std::move(name));
    }
    return ErrorHere("expected an expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Program> Parse(const std::string& source) {
  Lexer lexer(source);
  StatusOr<std::vector<Token>> tokens = lexer.Run();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Run();
}

}  // namespace mitos::lang
