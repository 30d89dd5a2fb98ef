#include "lang/type_check.h"

#include <gtest/gtest.h>

#include "lang/builder.h"

namespace mitos::lang {
namespace {

TEST(TypeCheckTest, InfersScalarAndBagTypes) {
  ProgramBuilder pb;
  pb.Assign("n", LitInt(3));
  pb.Assign("b", BagLit({Datum::Int64(1)}));
  pb.Assign("m", Map(Var("b"), fns::Identity()));
  pb.Assign("s", ScalarFromBag(Var("m")));
  auto result = TypeCheck(pb.Build());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->var_types.at("n"), VarType::kScalar);
  EXPECT_EQ(result->var_types.at("b"), VarType::kBag);
  EXPECT_EQ(result->var_types.at("m"), VarType::kBag);
  EXPECT_EQ(result->var_types.at("s"), VarType::kScalar);
}

TEST(TypeCheckTest, RejectsUseBeforeDef) {
  ProgramBuilder pb;
  pb.Assign("y", Add(Var("x"), LitInt(1)));
  auto result = TypeCheck(pb.Build());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TypeCheckTest, RejectsMapOnScalar) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(1));
  pb.Assign("y", Map(Var("x"), fns::Identity()));
  auto result = TypeCheck(pb.Build());
  ASSERT_FALSE(result.ok());
}

TEST(TypeCheckTest, AcceptsBagConditions) {
  // Conditions may be one-element bool bags — this is the form the
  // Preparator produces (paper Sec. 4.1) and is also user-writable.
  ProgramBuilder pb;
  pb.Assign("b", BagLit({Datum::Bool(false)}));
  pb.While(Var("b"), [] {});
  EXPECT_TRUE(TypeCheck(pb.Build()).ok());
}

TEST(TypeCheckTest, RejectsBinOpOnBagOperand) {
  ProgramBuilder pb;
  pb.Assign("b", BagLit({Datum::Int64(1)}));
  pb.Assign("x", Add(Var("b"), LitInt(1)));
  EXPECT_FALSE(TypeCheck(pb.Build()).ok());
}

TEST(TypeCheckTest, Combine2RequiresBags) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(1));
  pb.Assign("b", BagLit({Datum::Int64(2)}));
  pb.Assign("c", Combine2(Var("x"), Var("b"), fns::SumInt64()));
  EXPECT_FALSE(TypeCheck(pb.Build()).ok());
}

TEST(TypeCheckTest, RejectsMixedScalarBagAssignment) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(1));
  pb.Assign("x", BagLit({Datum::Int64(1)}));
  auto result = TypeCheck(pb.Build());
  ASSERT_FALSE(result.ok());
}

TEST(TypeCheckTest, VariableDefinedInOnlyOneIfBranchIsNotDefinedAfter) {
  ProgramBuilder pb;
  pb.Assign("c", LitBool(true));
  pb.If(Var("c"), [&] { pb.Assign("a", LitInt(1)); });
  pb.Assign("y", Add(Var("a"), LitInt(1)));
  auto result = TypeCheck(pb.Build());
  ASSERT_FALSE(result.ok());
}

TEST(TypeCheckTest, VariableDefinedInBothIfBranchesIsDefinedAfter) {
  ProgramBuilder pb;
  pb.Assign("c", LitBool(true));
  pb.If(Var("c"), [&] { pb.Assign("a", LitInt(1)); },
        [&] { pb.Assign("a", LitInt(2)); });
  pb.Assign("y", Add(Var("a"), LitInt(1)));
  auto result = TypeCheck(pb.Build());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(TypeCheckTest, WhileBodyDefinitionsDoNotEscape) {
  ProgramBuilder pb;
  pb.Assign("c", LitBool(false));
  pb.While(Var("c"), [&] { pb.Assign("a", LitInt(1)); });
  pb.Assign("y", Add(Var("a"), LitInt(1)));
  auto result = TypeCheck(pb.Build());
  ASSERT_FALSE(result.ok());
}

TEST(TypeCheckTest, DoWhileBodyDefinitionsEscape) {
  ProgramBuilder pb;
  pb.DoWhile([&] { pb.Assign("a", LitInt(1)); }, LitBool(false));
  pb.Assign("y", Add(Var("a"), LitInt(1)));
  auto result = TypeCheck(pb.Build());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(TypeCheckTest, DoWhileConditionMayUseBodyVariable) {
  ProgramBuilder pb;
  pb.DoWhile([&] { pb.Assign("i", LitInt(1)); }, Lt(Var("i"), LitInt(0)));
  EXPECT_TRUE(TypeCheck(pb.Build()).ok());
}

TEST(TypeCheckTest, WhileConditionVariableMustPreexist) {
  ProgramBuilder pb;
  pb.While(Var("i"), [&] { pb.Assign("i", LitBool(false)); });
  EXPECT_FALSE(TypeCheck(pb.Build()).ok());
}

TEST(TypeCheckTest, AcceptsVisitCountProgram) {
  ProgramBuilder pb;
  pb.Assign("yesterdayCounts", BagLit({}));
  pb.Assign("day", LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("visits",
                  ReadFile(Concat(LitString("pageVisitLog"), Var("day"))));
        pb.Assign("counts", ReduceByKey(Map(Var("visits"), fns::PairWithOne()),
                                        fns::SumInt64()));
        pb.If(Ne(Var("day"), LitInt(1)), [&] {
          pb.Assign("joined", Join(Var("yesterdayCounts"), Var("counts")));
          pb.Assign("diffs", Map(Var("joined"), fns::AbsDiff()));
          pb.Assign("summed", Reduce(Var("diffs"), fns::SumInt64()));
          pb.WriteFile(Var("summed"), Concat(LitString("diff"), Var("day")));
        });
        pb.Assign("yesterdayCounts", Var("counts"));
        pb.Assign("day", Add(Var("day"), LitInt(1)));
      },
      Le(Var("day"), LitInt(365)));
  auto result = TypeCheck(pb.Build());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->var_types.at("yesterdayCounts"), VarType::kBag);
  EXPECT_EQ(result->var_types.at("day"), VarType::kScalar);
}

}  // namespace
}  // namespace mitos::lang
