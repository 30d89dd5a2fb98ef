#include "ir/normalize.h"

#include <gtest/gtest.h>

#include "lang/builder.h"
#include "lang/interpreter.h"

namespace mitos::ir {
namespace {

using lang::Program;
using lang::ProgramBuilder;

DatumVector Ints(std::initializer_list<int64_t> values) {
  DatumVector out;
  for (int64_t v : values) out.push_back(Datum::Int64(v));
  return out;
}

// Runs both the original and the normalized program in the reference
// interpreter and expects identical file outputs.
void ExpectSameFileOutputs(const Program& original,
                           const sim::SimFileSystem& inputs) {
  auto normalized = Normalize(original);
  ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
  ASSERT_TRUE(IsNormalized(normalized->program))
      << lang::ToSource(normalized->program);

  sim::SimFileSystem fs_a = inputs;
  sim::SimFileSystem fs_b = inputs;
  lang::Interpreter interp_a(&fs_a);
  lang::Interpreter interp_b(&fs_b);
  ASSERT_TRUE(interp_a.Run(original).ok());
  Status status_b = interp_b.Run(normalized->program);
  ASSERT_TRUE(status_b.ok()) << status_b.ToString() << "\nnormalized:\n"
                             << lang::ToSource(normalized->program);

  EXPECT_EQ(fs_a.ListFiles(), fs_b.ListFiles());
  for (const std::string& name : fs_a.ListFiles()) {
    EXPECT_EQ(*fs_a.Read(name), *fs_b.Read(name)) << "file " << name;
  }
}

TEST(NormalizeTest, SplitsChainedBagOps) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit(Ints({1, 2, 3})));
  pb.Assign("r", lang::Filter(lang::Map(lang::Var("b"), lang::fns::AddInt64(1)),
                              lang::fns::ModEquals(2, 0)));
  auto result = Normalize(pb.Build());
  ASSERT_TRUE(result.ok());
  // b = bagLit; _t1 = b.map; r = _t1.filter  => 3 statements.
  EXPECT_EQ(result->program.stmts.size(), 3u);
  EXPECT_TRUE(IsNormalized(result->program));
}

TEST(NormalizeTest, WrapsScalarsIntoSingletonBags) {
  ProgramBuilder pb;
  pb.Assign("day", lang::LitInt(1));
  pb.Assign("next", lang::Add(lang::Var("day"), lang::LitInt(1)));
  auto result = Normalize(pb.Build());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->singleton_vars.count("day") > 0);
  EXPECT_TRUE(result->singleton_vars.count("next") > 0);
  // day = bagLit([1]); next = day.map(x -> x+1): literal folded into the
  // closure, no combine2 needed (paper's Fig. 3 day3 node).
  EXPECT_EQ(result->program.stmts.size(), 2u);
  EXPECT_EQ(result->program.stmts[1]->expr->kind, lang::ExprKind::kMap);
}

TEST(NormalizeTest, TwoVariableScalarExprBecomesCombine2) {
  ProgramBuilder pb;
  pb.Assign("a", lang::LitInt(1));
  pb.Assign("b", lang::LitInt(2));
  pb.Assign("c", lang::Add(lang::Var("a"), lang::Var("b")));
  auto result = Normalize(pb.Build());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->program.stmts[2]->expr->kind, lang::ExprKind::kCombine2);
}

TEST(NormalizeTest, ConstantFoldsLiteralBinOps) {
  ProgramBuilder pb;
  pb.Assign("x", lang::Add(lang::LitInt(2), lang::LitInt(3)));
  auto result = Normalize(pb.Build());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->program.stmts.size(), 1u);
  const lang::Expr& rhs = *result->program.stmts[0]->expr;
  ASSERT_EQ(rhs.kind, lang::ExprKind::kBagLit);
  EXPECT_EQ(rhs.bag_lit, Ints({5}));
}

TEST(NormalizeTest, WhileConditionRecomputedAtBodyEnd) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  auto result = Normalize(pb.Build());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Find the while statement; its condition must be a VarRef, and the same
  // variable must be assigned both before the loop and at the body's end.
  const lang::Stmt* loop = nullptr;
  for (const auto& s : result->program.stmts) {
    if (s->kind == lang::StmtKind::kWhile) loop = s.get();
  }
  ASSERT_NE(loop, nullptr);
  ASSERT_EQ(loop->expr->kind, lang::ExprKind::kVarRef);
  const std::string cond_var = loop->expr->var;
  EXPECT_EQ(loop->body.back()->kind, lang::StmtKind::kAssign);
  EXPECT_EQ(loop->body.back()->var, cond_var);
}

TEST(NormalizeTest, CopyAssignmentBecomesIdentityMap) {
  ProgramBuilder pb;
  pb.Assign("a", lang::BagLit(Ints({1})));
  pb.Assign("b", lang::Var("a"));
  auto result = Normalize(pb.Build());
  ASSERT_TRUE(result.ok());
  const lang::Expr& rhs = *result->program.stmts[1]->expr;
  EXPECT_EQ(rhs.kind, lang::ExprKind::kMap);
  EXPECT_EQ(rhs.unary.name, "identity");
}

TEST(NormalizeTest, IsNormalizedRejectsNestedExpressions) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit(Ints({1})));
  pb.Assign("r", lang::Map(lang::Map(lang::Var("b"), lang::fns::Identity()),
                           lang::fns::Identity()));
  EXPECT_FALSE(IsNormalized(pb.Build()));
}

TEST(NormalizeTest, PreservesSemanticsScalarLoop) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("acc", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(10)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
    pb.Assign("acc", lang::Add(lang::Var("acc"), lang::Var("i")));
  });
  pb.WriteFile(lang::FromScalar(lang::Var("acc")), lang::LitString("out"));
  ExpectSameFileOutputs(pb.Build(), sim::SimFileSystem());
}

TEST(NormalizeTest, PreservesSemanticsVisitCountDiff) {
  sim::SimFileSystem inputs;
  inputs.Write("pageVisitLog1", Ints({1, 1, 2}));
  inputs.Write("pageVisitLog2", Ints({1, 2, 2}));
  inputs.Write("pageVisitLog3", Ints({2, 2, 2}));

  ProgramBuilder pb;
  pb.Assign("yesterday", lang::BagLit({}));
  pb.Assign("day", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("visits", lang::ReadFile(lang::Concat(
                                lang::LitString("pageVisitLog"),
                                lang::Var("day"))));
        pb.Assign("counts",
                  lang::ReduceByKey(lang::Map(lang::Var("visits"),
                                              lang::fns::PairWithOne()),
                                    lang::fns::SumInt64()));
        pb.If(lang::Ne(lang::Var("day"), lang::LitInt(1)), [&] {
          pb.Assign("joined",
                    lang::Join(lang::Var("yesterday"), lang::Var("counts")));
          pb.Assign("diffs", lang::Map(lang::Var("joined"),
                                       lang::fns::AbsDiff()));
          pb.Assign("summed",
                    lang::Reduce(lang::Var("diffs"), lang::fns::SumInt64()));
          pb.WriteFile(lang::Var("summed"),
                       lang::Concat(lang::LitString("diff"), lang::Var("day")));
        });
        pb.Assign("yesterday", lang::Var("counts"));
        pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
      },
      lang::Le(lang::Var("day"), lang::LitInt(3)));
  ExpectSameFileOutputs(pb.Build(), inputs);
}

TEST(NormalizeTest, PreservesSemanticsNestedLoopsAndIf) {
  sim::SimFileSystem inputs;
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("total", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(4)), [&] {
    pb.Assign("j", lang::LitInt(0));
    pb.While(lang::Lt(lang::Var("j"), lang::Var("i")), [&] {
      pb.If(lang::Eq(lang::Mod(lang::Var("j"), lang::LitInt(2)),
                     lang::LitInt(0)),
            [&] { pb.Assign("total", lang::Add(lang::Var("total"),
                                               lang::Var("j"))); },
            [&] { pb.Assign("total", lang::Sub(lang::Var("total"),
                                               lang::LitInt(1))); });
      pb.Assign("j", lang::Add(lang::Var("j"), lang::LitInt(1)));
    });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::FromScalar(lang::Var("total")), lang::LitString("out"));
  ExpectSameFileOutputs(pb.Build(), inputs);
}

TEST(NormalizeTest, PreservesSemanticsBagConditionLoop) {
  sim::SimFileSystem inputs;
  ProgramBuilder pb;
  pb.Assign("vals", lang::BagLit(Ints({6})));
  pb.While(lang::Gt(lang::ScalarFromBag(lang::Var("vals")), lang::LitInt(0)),
           [&] {
             pb.Assign("vals", lang::Map(lang::Var("vals"),
                                         lang::fns::AddInt64(-2)));
           });
  pb.WriteFile(lang::Var("vals"), lang::LitString("out"));
  ExpectSameFileOutputs(pb.Build(), inputs);
}

TEST(NormalizeTest, RejectsIllTypedProgram) {
  ProgramBuilder pb;
  pb.Assign("x", lang::Add(lang::Var("nope"), lang::LitInt(1)));
  EXPECT_FALSE(Normalize(pb.Build()).ok());
}

}  // namespace
}  // namespace mitos::ir
