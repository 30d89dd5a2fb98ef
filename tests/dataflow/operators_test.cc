#include "dataflow/operators.h"

#include <gtest/gtest.h>

#include "common/chunk.h"

namespace mitos::dataflow {
namespace {

DatumVector Ints(std::initializer_list<int64_t> values) {
  DatumVector out;
  for (int64_t v : values) out.push_back(Datum::Int64(v));
  return out;
}

// Drives one output bag through a kernel and collects emissions. With
// `columnar` false the kernel and every input chunk stay boxed, exercising
// the generic paths the columnar fast paths must agree with.
DatumVector RunBag(BagOperator& op,
                   const std::vector<std::pair<int, DatumVector>>& pushes,
                   int num_inputs = 1, bool columnar = true) {
  op.set_columnar(columnar);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  for (const auto& [input, data] : pushes) {
    op.Push(input, Chunk::OfDatums(DatumVector(data), columnar), emit);
  }
  for (int i = 0; i < num_inputs; ++i) op.Close(i, emit);
  op.Finish(emit);
  return collected;
}

TEST(OperatorsTest, MapTransformsEveryElement) {
  MapOp op(lang::fns::AddInt64(5));
  DatumVector out = RunBag(op, {{0, Ints({1, 2})}, {0, Ints({3})}});
  EXPECT_EQ(out, Ints({6, 7, 8}));
}

TEST(OperatorsTest, FilterKeepsMatching) {
  FilterOp op(lang::fns::ModEquals(2, 1));
  DatumVector out = RunBag(op, {{0, Ints({1, 2, 3, 4, 5})}});
  EXPECT_EQ(out, Ints({1, 3, 5}));
}

TEST(OperatorsTest, FlatMapExpands) {
  FlatMapOp op({"explode", [](const Datum& x) {
                  DatumVector v;
                  for (int64_t i = 0; i < x.int64(); ++i) {
                    v.push_back(Datum::Int64(i));
                  }
                  return v;
                }});
  DatumVector out = RunBag(op, {{0, Ints({2, 0, 3})}});
  EXPECT_EQ(out, Ints({0, 1, 0, 1, 2}));
}

TEST(OperatorsTest, ReduceByKeyAggregatesAcrossChunks) {
  ReduceByKeyOp op(lang::fns::SumInt64());
  DatumVector out = RunBag(
      op, {{0, {Datum::Pair(Datum::Int64(1), Datum::Int64(10))}},
           {0, {Datum::Pair(Datum::Int64(2), Datum::Int64(5)),
                Datum::Pair(Datum::Int64(1), Datum::Int64(1))}}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Datum::Pair(Datum::Int64(1), Datum::Int64(11)));
  EXPECT_EQ(out[1], Datum::Pair(Datum::Int64(2), Datum::Int64(5)));
}

TEST(OperatorsTest, ReduceByKeyResetsBetweenBags) {
  ReduceByKeyOp op(lang::fns::SumInt64());
  RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::Int64(10))}}});
  DatumVector out =
      RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::Int64(2))}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].field(1).int64(), 2);  // not 12: state was dropped
}

TEST(OperatorsTest, ReduceByKeyDegradesToGenericMidBag) {
  // First chunk hits the typed accumulator; the second is a boxed mixed
  // chunk, forcing a mid-bag degrade that must preserve the typed state.
  ReduceByKeyOp op(lang::fns::SumInt64());
  op.set_columnar(true);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  op.Push(0,
          Chunk::OfDatums({Datum::Pair(Datum::Int64(1), Datum::Int64(10)),
                           Datum::Pair(Datum::Int64(2), Datum::Int64(5))}),
          emit);
  op.Push(0,
          Chunk::OfDatums({Datum::Pair(Datum::String("k"), Datum::Int64(3)),
                           Datum::Pair(Datum::Int64(1), Datum::Int64(1))},
                          /*columnarize=*/false),
          emit);
  op.Close(0, emit);
  op.Finish(emit);
  ASSERT_EQ(collected.size(), 3u);
  EXPECT_EQ(collected[0], Datum::Pair(Datum::Int64(1), Datum::Int64(11)));
  EXPECT_EQ(collected[1], Datum::Pair(Datum::Int64(2), Datum::Int64(5)));
  EXPECT_EQ(collected[2],
            Datum::Pair(Datum::String("k"), Datum::Int64(3)));
}

TEST(OperatorsTest, ReduceEmitsNothingOnEmptyInput) {
  ReduceOp op(lang::fns::SumInt64());
  EXPECT_TRUE(RunBag(op, {}).empty());
}

TEST(OperatorsTest, ReduceFolds) {
  ReduceOp op(lang::fns::SumInt64());
  DatumVector out = RunBag(op, {{0, Ints({1, 2})}, {0, Ints({3})}});
  EXPECT_EQ(out, Ints({6}));
}

TEST(OperatorsTest, CountEmitsZeroForEmpty) {
  CountOp op;
  EXPECT_EQ(RunBag(op, {}), Ints({0}));
}

TEST(OperatorsTest, JoinBuildThenProbe) {
  JoinOp op;
  DatumVector out = RunBag(
      op,
      {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a"))}},
       {1, {Datum::Pair(Datum::Int64(1), Datum::Int64(10)),
            Datum::Pair(Datum::Int64(2), Datum::Int64(20))}}},
      /*num_inputs=*/2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Datum::Tuple({Datum::Int64(1), Datum::String("a"),
                                  Datum::Int64(10)}));
}

TEST(OperatorsTest, JoinBlockingInputIsBuildSide) {
  JoinOp op;
  EXPECT_EQ(op.BlockingInput(), 0);
  EXPECT_TRUE(op.CanReuseInput(0));
  EXPECT_FALSE(op.CanReuseInput(1));
}

TEST(OperatorsTest, JoinReusesBuildStateWhenAsked) {
  JoinOp op;
  // Bag 1: build {1: a}, probe nothing.
  RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a"))}}},
         /*num_inputs=*/2);
  // Bag 2: reuse the build side, probe key 1 — must still match.
  op.SetReuseInput(0, true);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  op.Push(1, Chunk::OfDatums({Datum::Pair(Datum::Int64(1), Datum::Int64(7))}),
          emit);
  op.Finish(emit);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].field(1).str(), "a");
}

TEST(OperatorsTest, JoinDropsBuildStateWithoutReuse) {
  JoinOp op;
  RunBag(op, {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a"))}}},
         /*num_inputs=*/2);
  op.SetReuseInput(0, false);
  DatumVector collected;
  BagOperator::EmitFn emit = [&](Chunk&& chunk) {
    chunk.AppendTo(&collected);
  };
  op.Open();
  op.Push(1, Chunk::OfDatums({Datum::Pair(Datum::Int64(1), Datum::Int64(7))}),
          emit);
  op.Finish(emit);
  EXPECT_TRUE(collected.empty());
}

TEST(OperatorsTest, JoinMultiMatchEmitsAllBuildValues) {
  JoinOp op;
  DatumVector out = RunBag(
      op,
      {{0, {Datum::Pair(Datum::Int64(1), Datum::String("a")),
            Datum::Pair(Datum::Int64(1), Datum::String("b"))}},
       {1, {Datum::Pair(Datum::Int64(1), Datum::Int64(9))}}},
      /*num_inputs=*/2);
  EXPECT_EQ(out.size(), 2u);
}

TEST(OperatorsTest, UnionForwardsBothInputs) {
  UnionOp op;
  DatumVector out = RunBag(op, {{0, Ints({1})}, {1, Ints({2})},
                                {0, Ints({3})}},
                           /*num_inputs=*/2);
  EXPECT_EQ(out, Ints({1, 2, 3}));
}

TEST(OperatorsTest, DistinctDeduplicatesWithinBag) {
  DistinctOp op;
  DatumVector out = RunBag(op, {{0, Ints({1, 2, 1})}, {0, Ints({2, 3})}});
  EXPECT_EQ(out, Ints({1, 2, 3}));
  // And resets between bags.
  DatumVector again = RunBag(op, {{0, Ints({1})}});
  EXPECT_EQ(again, Ints({1}));
}

TEST(OperatorsTest, Combine2AppliesFunction) {
  Combine2Op op(lang::fns::SumInt64());
  DatumVector out = RunBag(op, {{0, Ints({4})}, {1, Ints({5})}},
                           /*num_inputs=*/2);
  EXPECT_EQ(out, Ints({9}));
}

TEST(OperatorsTest, Combine2EmitsNothingWhenAnInputIsEmpty) {
  Combine2Op op(lang::fns::SumInt64());
  DatumVector out = RunBag(op, {{0, Ints({4})}}, /*num_inputs=*/2);
  EXPECT_TRUE(out.empty());
}

TEST(OperatorsTest, PhiForwardsSelectedInput) {
  PhiOp op;
  DatumVector out = RunBag(op, {{1, Ints({7, 8})}}, /*num_inputs=*/2);
  EXPECT_EQ(out, Ints({7, 8}));
}

TEST(OperatorsTest, MakeOperatorDispatch) {
  LogicalNode node;
  node.kind = NodeKind::kMap;
  node.unary = lang::fns::Identity();
  EXPECT_NE(MakeOperator(node), nullptr);
  node.kind = NodeKind::kReadFile;
  EXPECT_EQ(MakeOperator(node), nullptr);  // host-handled
  node.kind = NodeKind::kCondition;
  EXPECT_EQ(MakeOperator(node), nullptr);
  node.kind = NodeKind::kJoin;
  EXPECT_NE(MakeOperator(node), nullptr);
}

// Every vectorized fast path must agree element-for-element with the
// generic (boxed) path it replaces.
TEST(OperatorsTest, ColumnarMatchesBoxedAcrossKernels) {
  DatumVector ints, doubles, pairs;
  for (int64_t i = 0; i < 100; ++i) {
    ints.push_back(Datum::Int64(i * 7 % 23));
    doubles.push_back(Datum::Double(static_cast<double>(i) * 0.5));
    pairs.push_back(Datum::Pair(Datum::Int64(i % 5), Datum::Int64(i)));
  }
  struct Case {
    const char* name;
    std::function<std::unique_ptr<BagOperator>()> make;
    const DatumVector* input;
  };
  const std::vector<Case> cases = {
      {"map.addInt64", [] { return std::make_unique<MapOp>(
                                lang::fns::AddInt64(3)); }, &ints},
      {"map.pairWithOne", [] { return std::make_unique<MapOp>(
                                   lang::fns::PairWithOne()); }, &ints},
      {"map.field0", [] { return std::make_unique<MapOp>(
                              lang::fns::Field(0)); }, &pairs},
      {"map.pairSwap", [] { return std::make_unique<MapOp>(
                                lang::fns::PairSwap()); }, &pairs},
      {"map.scaleDouble", [] { return std::make_unique<MapOp>(
                                   lang::fns::ScaleDouble(3)); }, &doubles},
      {"filter.gt", [] { return std::make_unique<FilterOp>(
                             lang::fns::GtInt64(10)); }, &ints},
      {"filter.fieldEquals", [] { return std::make_unique<FilterOp>(
                                      lang::fns::FieldEquals(0, 2)); },
       &pairs},
      {"flatMap.dup", [] { return std::make_unique<FlatMapOp>(
                               lang::fns::Dup()); }, &ints},
      {"reduceByKey.sum", [] { return std::make_unique<ReduceByKeyOp>(
                                   lang::fns::SumInt64()); }, &pairs},
      {"reduceByKey.min", [] { return std::make_unique<ReduceByKeyOp>(
                                   lang::fns::MinInt64()); }, &pairs},
      {"reduce.sum", [] { return std::make_unique<ReduceOp>(
                              lang::fns::SumInt64()); }, &ints},
      {"reduce.max", [] { return std::make_unique<ReduceOp>(
                              lang::fns::MaxInt64()); }, &ints},
      {"distinct", [] { return std::make_unique<DistinctOp>(); }, &ints},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Split the input in two chunks to exercise cross-chunk state.
    DatumVector first(c.input->begin(), c.input->begin() + 40);
    DatumVector rest(c.input->begin() + 40, c.input->end());
    auto fast_op = c.make();
    DatumVector fast = RunBag(*fast_op, {{0, first}, {0, rest}},
                              /*num_inputs=*/1, /*columnar=*/true);
    auto boxed_op = c.make();
    DatumVector boxed = RunBag(*boxed_op, {{0, first}, {0, rest}},
                               /*num_inputs=*/1, /*columnar=*/false);
    EXPECT_EQ(fast, boxed);
    EXPECT_FALSE(fast.empty());
  }
}

}  // namespace
}  // namespace mitos::dataflow
