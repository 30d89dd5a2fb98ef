#include "lang/ast.h"

#include <gtest/gtest.h>

#include "lang/builder.h"

namespace mitos::lang {
namespace {

TEST(AstTest, ExprFactoriesSetKinds) {
  EXPECT_EQ(LitInt(1)->kind, ExprKind::kLit);
  EXPECT_EQ(Var("x")->kind, ExprKind::kVarRef);
  EXPECT_EQ(Add(LitInt(1), LitInt(2))->kind, ExprKind::kBinOp);
  EXPECT_EQ(Add(LitInt(1), LitInt(2))->binop, BinOpKind::kAdd);
  EXPECT_EQ(ReadFile(LitString("f"))->kind, ExprKind::kReadFile);
  EXPECT_EQ(Map(Var("b"), fns::Identity())->kind, ExprKind::kMap);
  EXPECT_EQ(Join(Var("a"), Var("b"))->kind, ExprKind::kJoin);
  EXPECT_EQ(ScalarFromBag(Var("b"))->kind, ExprKind::kScalarFromBag);
}

TEST(AstTest, IsBagExprKindClassification) {
  EXPECT_TRUE(IsBagExprKind(ExprKind::kMap));
  EXPECT_TRUE(IsBagExprKind(ExprKind::kReadFile));
  EXPECT_TRUE(IsBagExprKind(ExprKind::kFromScalar));
  EXPECT_TRUE(IsBagExprKind(ExprKind::kCount));
  EXPECT_FALSE(IsBagExprKind(ExprKind::kLit));
  EXPECT_FALSE(IsBagExprKind(ExprKind::kBinOp));
  EXPECT_FALSE(IsBagExprKind(ExprKind::kScalarFromBag));
  EXPECT_FALSE(IsBagExprKind(ExprKind::kVarRef));
}

TEST(AstTest, PrinterRendersExpressions) {
  EXPECT_EQ(ToSource(*Add(Var("day"), LitInt(1))), "(day + 1)");
  EXPECT_EQ(ToSource(*Concat(LitString("log"), Var("day"))),
            "(\"log\" ++ day)");
  EXPECT_EQ(ToSource(*Map(Var("v"), fns::PairWithOne())),
            "v.map(pairWithOne)");
  EXPECT_EQ(ToSource(*Join(Var("a"), Var("b"))), "a.join(b)");
  EXPECT_EQ(ToSource(*Not(Var("c"))), "!(c)");
}

TEST(AstTest, PrinterRendersStatements) {
  StmtPtr s = Assign("x", LitInt(3));
  EXPECT_EQ(ToSource(Program{{s}}), "x = 3;\n");

  StmtPtr w = While(Le(Var("i"), LitInt(2)), {Assign("i", LitInt(9))});
  std::string text = ToSource(Program{{w}});
  EXPECT_NE(text.find("while ((i <= 2)) {"), std::string::npos);
  EXPECT_NE(text.find("  i = 9;"), std::string::npos);
  EXPECT_NE(text.find("\n}\n"), std::string::npos);
}

TEST(AstTest, PrinterRendersIfElse) {
  StmtPtr s = If(Var("c"), {Assign("a", LitInt(1))},
                 {Assign("a", LitInt(2))});
  std::string text = ToSource(Program{{s}});
  EXPECT_NE(text.find("if (c) {"), std::string::npos);
  EXPECT_NE(text.find("} else {"), std::string::npos);
  EXPECT_NE(text.find("  a = 2;\n}\n"), std::string::npos);
}

TEST(BuilderTest, BuildsFlatProgram) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(1));
  pb.WriteFile(FromScalar(Var("x")), LitString("out"));
  Program p = pb.Build();
  ASSERT_EQ(p.stmts.size(), 2u);
  EXPECT_EQ(p.stmts[0]->kind, StmtKind::kAssign);
  EXPECT_EQ(p.stmts[1]->kind, StmtKind::kWriteFile);
}

TEST(BuilderTest, CapturesNestedControlFlow) {
  ProgramBuilder pb;
  pb.Assign("day", LitInt(1));
  pb.While(Le(Var("day"), LitInt(3)), [&] {
    pb.If(Ne(Var("day"), LitInt(1)), [&] { pb.Assign("z", LitInt(1)); });
    pb.Assign("day", Add(Var("day"), LitInt(1)));
  });
  Program p = pb.Build();
  ASSERT_EQ(p.stmts.size(), 2u);
  const Stmt& loop = *p.stmts[1];
  EXPECT_EQ(loop.kind, StmtKind::kWhile);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[0]->kind, StmtKind::kIf);
  EXPECT_EQ(loop.body[0]->body.size(), 1u);
  EXPECT_TRUE(loop.body[0]->else_body.empty());
}

TEST(BuilderTest, DoWhileShape) {
  ProgramBuilder pb;
  pb.Assign("i", LitInt(0));
  pb.DoWhile([&] { pb.Assign("i", Add(Var("i"), LitInt(1))); },
             Lt(Var("i"), LitInt(5)));
  Program p = pb.Build();
  ASSERT_EQ(p.stmts.size(), 2u);
  EXPECT_EQ(p.stmts[1]->kind, StmtKind::kDoWhile);
  EXPECT_EQ(p.stmts[1]->body.size(), 1u);
}

TEST(BuilderTest, ProgramPrintsRoundTrippableText) {
  ProgramBuilder pb;
  pb.Assign("day", LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("visits",
                  ReadFile(Concat(LitString("pageVisitLog"), Var("day"))));
        pb.Assign("counts", ReduceByKey(Map(Var("visits"), fns::PairWithOne()),
                                        fns::SumInt64()));
        pb.WriteFile(Var("counts"), Concat(LitString("counts"), Var("day")));
        pb.Assign("day", Add(Var("day"), LitInt(1)));
      },
      Le(Var("day"), LitInt(365)));
  std::string text = ToSource(pb.Build());
  EXPECT_NE(text.find("readFile((\"pageVisitLog\" ++ day))"),
            std::string::npos);
  EXPECT_NE(text.find(".reduceByKey(sumInt64)"), std::string::npos);
  EXPECT_NE(text.find("} while ((day <= 365));"), std::string::npos);
}

}  // namespace
}  // namespace mitos::lang
