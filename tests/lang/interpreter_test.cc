#include "lang/interpreter.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "lang/builder.h"

namespace mitos::lang {
namespace {

DatumVector Ints(std::initializer_list<int64_t> values) {
  DatumVector out;
  for (int64_t v : values) out.push_back(Datum::Int64(v));
  return out;
}

DatumVector Sorted(DatumVector v) {
  std::sort(v.begin(), v.end(),
            [](const Datum& a, const Datum& b) { return a < b; });
  return v;
}

class InterpreterTest : public ::testing::Test {
 protected:
  sim::SimFileSystem fs_;
};

TEST_F(InterpreterTest, ScalarArithmeticAndAssignment) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(2));
  pb.Assign("y", Mul(Add(Var("x"), LitInt(3)), LitInt(4)));  // (2+3)*4
  pb.Assign("z", Sub(Var("y"), Mod(Var("y"), LitInt(7))));   // 20 - 6
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("y").int64(), 20);
  EXPECT_EQ(interp.scalars().at("z").int64(), 14);
}

TEST_F(InterpreterTest, StringConcatStringifiesNumbers) {
  ProgramBuilder pb;
  pb.Assign("day", LitInt(7));
  pb.Assign("name", Concat(LitString("log"), Var("day")));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("name").str(), "log7");
}

TEST_F(InterpreterTest, WhileLoopCounts) {
  ProgramBuilder pb;
  pb.Assign("i", LitInt(0));
  pb.Assign("sum", LitInt(0));
  pb.While(Lt(Var("i"), LitInt(5)), [&] {
    pb.Assign("i", Add(Var("i"), LitInt(1)));
    pb.Assign("sum", Add(Var("sum"), Var("i")));
  });
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("sum").int64(), 15);
  EXPECT_EQ(interp.stats().loop_iterations, 5);
}

TEST_F(InterpreterTest, WhileFalseNeverRuns) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(1));
  pb.While(LitBool(false), [&] { pb.Assign("x", LitInt(99)); });
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("x").int64(), 1);
}

TEST_F(InterpreterTest, DoWhileRunsAtLeastOnce) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(1));
  pb.DoWhile([&] { pb.Assign("x", LitInt(99)); }, LitBool(false));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("x").int64(), 99);
}

TEST_F(InterpreterTest, IfElseTakesCorrectBranch) {
  ProgramBuilder pb;
  pb.Assign("c", Gt(LitInt(3), LitInt(2)));
  pb.If(Var("c"), [&] { pb.Assign("r", LitInt(1)); },
        [&] { pb.Assign("r", LitInt(2)); });
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("r").int64(), 1);
}

TEST_F(InterpreterTest, InfiniteLoopIsCut) {
  ProgramBuilder pb;
  pb.Assign("x", LitInt(0));
  pb.While(LitBool(true), [&] { pb.Assign("x", Add(Var("x"), LitInt(1))); });
  Interpreter interp(&fs_, {.max_total_iterations = 100});
  Status status = interp.Run(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(InterpreterTest, MapFilterFlatMap) {
  ProgramBuilder pb;
  pb.Assign("b", BagLit(Ints({1, 2, 3, 4})));
  pb.Assign("m", Map(Var("b"), fns::AddInt64(10)));
  pb.Assign("f", Filter(Var("b"), fns::ModEquals(2, 0)));
  pb.Assign("fm", FlatMap(Var("b"), {"dup", [](const Datum& x) {
                                       return DatumVector{x, x};
                                     }}));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.bags().at("m"), Ints({11, 12, 13, 14}));
  EXPECT_EQ(interp.bags().at("f"), Ints({2, 4}));
  EXPECT_EQ(interp.bags().at("fm"), Ints({1, 1, 2, 2, 3, 3, 4, 4}));
}

TEST_F(InterpreterTest, ReduceByKeyCombinesPerKey) {
  ProgramBuilder pb;
  pb.Assign("b", BagLit(Ints({7, 8, 7, 7, 9, 8})));
  pb.Assign("counts", ReduceByKey(Map(Var("b"), fns::PairWithOne()),
                                  fns::SumInt64()));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  DatumVector expected = {Datum::Pair(Datum::Int64(7), Datum::Int64(3)),
                          Datum::Pair(Datum::Int64(8), Datum::Int64(2)),
                          Datum::Pair(Datum::Int64(9), Datum::Int64(1))};
  EXPECT_EQ(Sorted(interp.bags().at("counts")), Sorted(expected));
}

TEST_F(InterpreterTest, ReduceOnEmptyBagIsEmpty) {
  ProgramBuilder pb;
  pb.Assign("b", BagLit({}));
  pb.Assign("r", Reduce(Var("b"), fns::SumInt64()));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_TRUE(interp.bags().at("r").empty());
}

TEST_F(InterpreterTest, ReduceFoldsWholeBag) {
  ProgramBuilder pb;
  pb.Assign("b", BagLit(Ints({1, 2, 3, 4, 5})));
  pb.Assign("r", Reduce(Var("b"), fns::SumInt64()));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.bags().at("r"), Ints({15}));
}

TEST_F(InterpreterTest, JoinEmitsKeyBuildProbeTuples) {
  ProgramBuilder pb;
  pb.Assign("build",
            BagLit({Datum::Pair(Datum::Int64(1), Datum::String("a")),
                    Datum::Pair(Datum::Int64(2), Datum::String("b")),
                    Datum::Pair(Datum::Int64(1), Datum::String("c"))}));
  pb.Assign("probe", BagLit({Datum::Pair(Datum::Int64(1), Datum::Int64(10)),
                             Datum::Pair(Datum::Int64(3), Datum::Int64(30))}));
  pb.Assign("j", Join(Var("build"), Var("probe")));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  DatumVector expected = {
      Datum::Tuple({Datum::Int64(1), Datum::String("a"), Datum::Int64(10)}),
      Datum::Tuple({Datum::Int64(1), Datum::String("c"), Datum::Int64(10)})};
  EXPECT_EQ(Sorted(interp.bags().at("j")), Sorted(expected));
}

TEST_F(InterpreterTest, UnionDistinctCount) {
  ProgramBuilder pb;
  pb.Assign("a", BagLit(Ints({1, 2})));
  pb.Assign("b", BagLit(Ints({2, 3})));
  pb.Assign("u", Union(Var("a"), Var("b")));
  pb.Assign("d", Distinct(Var("u")));
  pb.Assign("c", Count(Var("u")));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.bags().at("u"), Ints({1, 2, 2, 3}));
  EXPECT_EQ(Sorted(interp.bags().at("d")), Ints({1, 2, 3}));
  EXPECT_EQ(interp.bags().at("c"), Ints({4}));
}

TEST_F(InterpreterTest, ScalarFromBagRequiresSingleton) {
  ProgramBuilder pb;
  pb.Assign("b", BagLit(Ints({1, 2})));
  pb.Assign("s", ScalarFromBag(Var("b")));
  Interpreter interp(&fs_);
  EXPECT_FALSE(interp.Run(pb.Build()).ok());
}

TEST_F(InterpreterTest, ReadMissingFileFails) {
  ProgramBuilder pb;
  pb.Assign("b", ReadFile(LitString("missing")));
  Interpreter interp(&fs_);
  Status status = interp.Run(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(InterpreterTest, FileRoundTripThroughLoop) {
  fs_.Write("in1", Ints({1, 2}));
  fs_.Write("in2", Ints({3}));
  ProgramBuilder pb;
  pb.Assign("i", LitInt(1));
  pb.While(Le(Var("i"), LitInt(2)), [&] {
    pb.Assign("data", ReadFile(Concat(LitString("in"), Var("i"))));
    pb.WriteFile(Map(Var("data"), fns::AddInt64(100)),
                 Concat(LitString("out"), Var("i")));
    pb.Assign("i", Add(Var("i"), LitInt(1)));
  });
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(*fs_.Read("out1"), Ints({101, 102}));
  EXPECT_EQ(*fs_.Read("out2"), Ints({103}));
  EXPECT_EQ(interp.stats().elements_read, 3);
  EXPECT_EQ(interp.stats().elements_written, 3);
}

TEST_F(InterpreterTest, VisitCountDiffProgramEndToEnd) {
  // The paper's running example (Sec. 2) on a tiny 3-day input.
  fs_.Write("pageVisitLog1", Ints({1, 1, 2}));
  fs_.Write("pageVisitLog2", Ints({1, 2, 2}));
  fs_.Write("pageVisitLog3", Ints({2, 2, 2}));
  ProgramBuilder pb;
  pb.Assign("yesterday", BagLit({}));
  pb.Assign("day", LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("visits",
                  ReadFile(Concat(LitString("pageVisitLog"), Var("day"))));
        pb.Assign("counts", ReduceByKey(Map(Var("visits"), fns::PairWithOne()),
                                        fns::SumInt64()));
        pb.If(Ne(Var("day"), LitInt(1)), [&] {
          pb.Assign("joined", Join(Var("yesterday"), Var("counts")));
          pb.Assign("diffs", Map(Var("joined"), fns::AbsDiff()));
          pb.Assign("summed", Reduce(Var("diffs"), fns::SumInt64()));
          pb.WriteFile(Var("summed"), Concat(LitString("diff"), Var("day")));
        });
        pb.Assign("yesterday", Var("counts"));
        pb.Assign("day", Add(Var("day"), LitInt(1)));
      },
      Le(Var("day"), LitInt(3)));
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  // Day1: {1:2, 2:1}; Day2: {1:1, 2:2} -> |2-1| + |1-2| = 2.
  // Day3: {2:3} -> joined only on page 2: |2-3| = 1.
  EXPECT_EQ(*fs_.Read("diff2"), Ints({2}));
  EXPECT_EQ(*fs_.Read("diff3"), Ints({1}));
  EXPECT_FALSE(fs_.Exists("diff1"));
}

TEST_F(InterpreterTest, NestedLoops) {
  ProgramBuilder pb;
  pb.Assign("total", LitInt(0));
  pb.Assign("i", LitInt(0));
  pb.While(Lt(Var("i"), LitInt(3)), [&] {
    pb.Assign("j", LitInt(0));
    pb.While(Lt(Var("j"), LitInt(4)), [&] {
      pb.Assign("total", Add(Var("total"), LitInt(1)));
      pb.Assign("j", Add(Var("j"), LitInt(1)));
    });
    pb.Assign("i", Add(Var("i"), LitInt(1)));
  });
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("total").int64(), 12);
}

TEST_F(InterpreterTest, DivisionByZeroIsError) {
  ProgramBuilder pb;
  pb.Assign("x", Div(LitInt(1), LitInt(0)));
  Interpreter interp(&fs_);
  EXPECT_FALSE(interp.Run(pb.Build()).ok());
}

TEST_F(InterpreterTest, ConditionOverBagViaScalarFromBag) {
  // while (residual > 0) — condition flows out of a bag, k-means style.
  ProgramBuilder pb;
  pb.Assign("vals", BagLit(Ints({5})));
  pb.Assign("steps", LitInt(0));
  pb.While(Gt(ScalarFromBag(Var("vals")), LitInt(0)), [&] {
    pb.Assign("vals", Map(Var("vals"), fns::AddInt64(-2)));
    pb.Assign("steps", Add(Var("steps"), LitInt(1)));
  });
  Interpreter interp(&fs_);
  ASSERT_TRUE(interp.Run(pb.Build()).ok());
  EXPECT_EQ(interp.scalars().at("steps").int64(), 3);  // 5 -> 3 -> 1 -> -1
}

}  // namespace
}  // namespace mitos::lang
