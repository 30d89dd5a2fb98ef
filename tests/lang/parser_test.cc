#include "lang/parser.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "lang/interpreter.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::lang {
namespace {

DatumVector Sorted(DatumVector v) {
  std::sort(v.begin(), v.end(),
            [](const Datum& a, const Datum& b) { return a < b; });
  return v;
}

TEST(ParserTest, ScalarStatementsAndArithmetic) {
  auto program = Parse(R"(
    x = 2;
    y = (x + 3) * 4 - 6 / 2;
    z = -y;
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  Interpreter interp(&fs);
  ASSERT_TRUE(interp.Run(*program).ok());
  EXPECT_EQ(interp.scalars().at("y").int64(), 17);
  EXPECT_EQ(interp.scalars().at("z").int64(), -17);
}

TEST(ParserTest, PrecedenceAndBooleans) {
  auto program = Parse(R"(
    a = 1 + 2 * 3 == 7;
    b = true && !false || 1 > 2;
    c = "v" ++ (10 % 3);
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  Interpreter interp(&fs);
  ASSERT_TRUE(interp.Run(*program).ok());
  EXPECT_TRUE(interp.scalars().at("a").boolean());
  EXPECT_TRUE(interp.scalars().at("b").boolean());
  EXPECT_EQ(interp.scalars().at("c").str(), "v1");
}

TEST(ParserTest, BagMethodsChain) {
  auto program = Parse(R"(
    b = bagOf(1, 2, 3, 4, 5, 2);
    counts = b.map(pairWithOne).reduceByKey(sumInt64);
    evens = b.filter(modEquals(2, 0)).distinct();
    n = b.count();
    total = b.reduce(sumInt64);
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  Interpreter interp(&fs);
  Status status = interp.Run(*program);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(interp.bags().at("n")[0].int64(), 6);
  EXPECT_EQ(interp.bags().at("total")[0].int64(), 17);
  EXPECT_EQ(Sorted(interp.bags().at("evens")),
            (DatumVector{Datum::Int64(2), Datum::Int64(4)}));
}

TEST(ParserTest, ControlFlowConstructs) {
  auto program = Parse(R"(
    acc = 0;
    i = 0;
    while (i < 5) {
      if (i % 2 == 0) {
        acc = acc + i;
      } else {
        acc = acc - 1;
      }
      i = i + 1;
    }
    j = 0;
    do { j = j + 10; } while (j < 25);
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  Interpreter interp(&fs);
  ASSERT_TRUE(interp.Run(*program).ok());
  EXPECT_EQ(interp.scalars().at("acc").int64(), 4);  // 0+2+4 -1 -1
  EXPECT_EQ(interp.scalars().at("j").int64(), 30);
}

TEST(ParserTest, FullVisitCountScriptMatchesBuilderProgram) {
  // The paper's running example, written as text, must behave exactly like
  // the builder-constructed VisitCountProgram under both the interpreter
  // and Mitos.
  const char* source = R"(
    // Visit Count with consecutive-day comparison (paper Sec. 2).
    yesterday = empty();
    day = 1;
    do {
      visits = readFile("pageVisitLog" ++ day);
      counts = visits.map(pairWithOne).reduceByKey(sumInt64);
      if (day != 1) {
        summed = yesterday.join(counts).map(absDiff).reduce(sumInt64);
        write(summed, "diff" ++ day);
      }
      yesterday = counts;
      day = day + 1;
    } while (day <= 4);
  )";
  auto parsed = Parse(source);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&inputs, {.days = 4, .entries_per_day = 200,
                                         .num_pages = 20});

  sim::SimFileSystem fs_builder = inputs;
  auto ref = api::Run(api::EngineKind::kReference,
                      workloads::VisitCountProgram({.days = 4}),
                      &fs_builder);
  ASSERT_TRUE(ref.ok());

  for (auto engine : {api::EngineKind::kReference, api::EngineKind::kMitos}) {
    sim::SimFileSystem fs = inputs;
    auto result = api::Run(engine, *parsed, &fs, {.machines = 3});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(fs_builder.ListFiles(), fs.ListFiles());
    for (const std::string& name : fs_builder.ListFiles()) {
      EXPECT_EQ(Sorted(*fs_builder.Read(name)), Sorted(*fs.Read(name)))
          << name;
    }
  }
}

TEST(ParserTest, ParameterizedBuiltins) {
  auto program = Parse(R"(
    b = bagOf(1, 2, 3);
    shifted = b.map(addInt64(-1)).map(mulInt64(10));
    pairs = b.map(pairWithOne).map(pairSwap);
    expanded = b.flatMap(rangeTo);
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  Interpreter interp(&fs);
  ASSERT_TRUE(interp.Run(*program).ok());
  EXPECT_EQ(interp.bags().at("shifted"),
            (DatumVector{Datum::Int64(0), Datum::Int64(10),
                         Datum::Int64(20)}));
  EXPECT_EQ(interp.bags().at("expanded").size(), 6u);  // 0+1+2+3 ranges
  EXPECT_EQ(interp.bags().at("pairs")[0],
            Datum::Pair(Datum::Int64(1), Datum::Int64(1)));
}

TEST(ParserTest, ErrorsCarryLineAndColumn) {
  auto missing_semi = Parse("x = 1\ny = 2;");
  ASSERT_FALSE(missing_semi.ok());
  EXPECT_NE(missing_semi.status().message().find("line 2"),
            std::string::npos);

  auto bad_char = Parse("x = 1 # 2;");
  ASSERT_FALSE(bad_char.ok());
  EXPECT_NE(bad_char.status().message().find("unexpected character"),
            std::string::npos);

  auto unknown_fn = Parse("b = bagOf(1); c = b.map(noSuchFn);");
  ASSERT_FALSE(unknown_fn.ok());
  EXPECT_NE(unknown_fn.status().message().find("noSuchFn"),
            std::string::npos);

  auto unterminated = Parse("x = \"abc;");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("unterminated"),
            std::string::npos);

  auto bad_arity = Parse("b = bagOf(1); c = b.map(field(1, 2));");
  ASSERT_FALSE(bad_arity.ok());
  EXPECT_NE(bad_arity.status().message().find("expects"), std::string::npos);
}

// A builtin argument outside its parameter's range is an InvalidArgument
// naming the builtin and the parameter, not an abort at run time.
TEST(ParserTest, BuiltinArgumentsOutOfRangeAreParseErrors) {
  const struct {
    const char* source;
    const char* param;
  } cases[] = {
      {"b = bagOf(1, 2).filter(modEquals(0, 1));", "'modulus'"},
      {"b = bagOf(1, 2).filter(modEquals(-3, 1));", "'modulus'"},
      {"b = bagOf((1, 2)).map(field(-1));", "'i'"},
      {"b = bagOf((1, 2)).filter(fieldEquals(-2, 0));", "'i'"},
  };
  for (const auto& c : cases) {
    auto program = Parse(c.source);
    ASSERT_FALSE(program.ok()) << c.source;
    EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = program.status().message();
    EXPECT_NE(message.find("line 1, col "), std::string::npos) << message;
    EXPECT_NE(message.find(c.param), std::string::npos) << message;
  }
  // The bounds themselves are in range.
  EXPECT_TRUE(Parse("b = bagOf(1).filter(modEquals(1, 0));").ok());
  EXPECT_TRUE(Parse("b = bagOf((1, 2)).map(field(0));").ok());
}

TEST(ParserTest, CommentsAndWhitespaceIgnored) {
  auto program = Parse(R"(
    // leading comment
    x = 1;  // trailing comment
    // comment between statements
    y = x + 1;
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->stmts.size(), 2u);
}

TEST(ParserTest, NewBagAndScalarOf) {
  auto program = Parse(R"(
    n = 7;
    b = newBag(n * 2);
    s = scalarOf(b) + 1;
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  sim::SimFileSystem fs;
  Interpreter interp(&fs);
  ASSERT_TRUE(interp.Run(*program).ok());
  EXPECT_EQ(interp.scalars().at("s").int64(), 15);
}

}  // namespace
}  // namespace mitos::lang
