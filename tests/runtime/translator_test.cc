#include "runtime/translator.h"

#include <gtest/gtest.h>

#include "ir/ssa.h"
#include "lang/builder.h"
#include "workloads/programs.h"

namespace mitos::runtime {
namespace {

using dataflow::EdgeKind;
using dataflow::LogicalGraph;
using dataflow::LogicalNode;
using dataflow::NodeKind;

LogicalGraph TranslateProgram(const lang::Program& program, int machines) {
  auto ir = ir::CompileToIr(program);
  MITOS_CHECK(ir.ok()) << ir.status().ToString();
  auto result = Translate(*ir, machines);
  MITOS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result->graph);
}

const LogicalNode* FindNode(const LogicalGraph& g, NodeKind kind,
                            int skip = 0) {
  for (const LogicalNode& n : g.nodes) {
    if (n.kind == kind && skip-- == 0) return &n;
  }
  return nullptr;
}

int CountNodes(const LogicalGraph& g, NodeKind kind) {
  int c = 0;
  for (const LogicalNode& n : g.nodes) {
    if (n.kind == kind) ++c;
  }
  return c;
}

TEST(TranslatorTest, OneNodePerStatementPlusConditions) {
  lang::ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.DoWhile(
      [&] { pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1))); },
      lang::Lt(lang::Var("i"), lang::LitInt(3)));
  LogicalGraph g = TranslateProgram(pb.Build(), 4);
  // One condition node (the loop's branch).
  EXPECT_EQ(CountNodes(g, NodeKind::kCondition), 1);
  // Φs for the loop-carried wrapped scalar.
  EXPECT_GE(CountNodes(g, NodeKind::kPhi), 1);
}

TEST(TranslatorTest, SingletonSpineGetsParallelismOne) {
  lang::ProgramBuilder pb;
  pb.Assign("day", lang::LitInt(1));
  pb.Assign("next", lang::Add(lang::Var("day"), lang::LitInt(1)));
  pb.Assign("big", lang::ReadFile(lang::LitString("f")));
  pb.Assign("mapped", lang::Map(lang::Var("big"), lang::fns::Identity()));
  LogicalGraph g = TranslateProgram(pb.Build(), 8);
  for (const LogicalNode& n : g.nodes) {
    if (n.singleton) {
      EXPECT_EQ(n.parallelism, 1) << n.name;
    }
  }
  const LogicalNode* read = FindNode(g, NodeKind::kReadFile);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->parallelism, 8);
  const LogicalNode* map = FindNode(g, NodeKind::kMap, /*skip=*/0);
  ASSERT_NE(map, nullptr);
}

TEST(TranslatorTest, ElementwiseOpsInheritProducerParallelism) {
  lang::ProgramBuilder pb;
  pb.Assign("big", lang::ReadFile(lang::LitString("f")));
  pb.Assign("m1", lang::Map(lang::Var("big"), lang::fns::Identity()));
  pb.Assign("m2", lang::Filter(lang::Var("m1"),
                               lang::fns::ModEquals(2, 0)));
  LogicalGraph g = TranslateProgram(pb.Build(), 6);
  for (const LogicalNode& n : g.nodes) {
    if (n.kind == NodeKind::kMap || n.kind == NodeKind::kFilter) {
      EXPECT_EQ(n.parallelism, 6) << n.name;
      for (const auto& e : n.inputs) {
        EXPECT_EQ(e.kind, EdgeKind::kForward);
      }
    }
  }
}

TEST(TranslatorTest, ShuffleIntoKeyedOperators) {
  lang::ProgramBuilder pb;
  pb.Assign("big", lang::ReadFile(lang::LitString("f")));
  pb.Assign("pairs", lang::Map(lang::Var("big"), lang::fns::PairWithOne()));
  pb.Assign("counts", lang::ReduceByKey(lang::Var("pairs"),
                                        lang::fns::SumInt64()));
  pb.Assign("joined", lang::Join(lang::Var("counts"), lang::Var("pairs")));
  pb.Assign("uniq", lang::Distinct(lang::Var("big")));
  LogicalGraph g = TranslateProgram(pb.Build(), 4);

  const LogicalNode* rbk = FindNode(g, NodeKind::kReduceByKey);
  ASSERT_NE(rbk, nullptr);
  EXPECT_EQ(rbk->inputs[0].kind, EdgeKind::kShuffle);
  EXPECT_EQ(rbk->inputs[0].shuffle_key, dataflow::ShuffleKey::kField0);

  const LogicalNode* join = FindNode(g, NodeKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->inputs[0].kind, EdgeKind::kShuffle);
  EXPECT_EQ(join->inputs[1].kind, EdgeKind::kShuffle);

  const LogicalNode* distinct = FindNode(g, NodeKind::kDistinct);
  ASSERT_NE(distinct, nullptr);
  EXPECT_EQ(distinct->inputs[0].shuffle_key,
            dataflow::ShuffleKey::kWholeElement);
}

TEST(TranslatorTest, ReduceExpandsIntoLocalPlusFinal) {
  lang::ProgramBuilder pb;
  pb.Assign("big", lang::ReadFile(lang::LitString("f")));
  pb.Assign("total", lang::Reduce(lang::Var("big"), lang::fns::SumInt64()));
  pb.WriteFile(lang::Var("total"), lang::LitString("out"));
  LogicalGraph g = TranslateProgram(pb.Build(), 4);
  const LogicalNode* local = FindNode(g, NodeKind::kLocalReduce);
  const LogicalNode* final_node = FindNode(g, NodeKind::kFinalReduce);
  ASSERT_NE(local, nullptr);
  ASSERT_NE(final_node, nullptr);
  EXPECT_EQ(local->parallelism, 4);
  EXPECT_EQ(final_node->parallelism, 1);
  EXPECT_EQ(final_node->inputs[0].kind, EdgeKind::kGather);
  EXPECT_EQ(final_node->inputs[0].from, local->id);
  // The sink consumes the final node, not the partials.
  const LogicalNode* sink = FindNode(g, NodeKind::kWriteFile);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->inputs[0].from, final_node->id);
}

TEST(TranslatorTest, FilenamesBroadcastToReaders) {
  lang::ProgramBuilder pb;
  pb.Assign("name", lang::LitString("f"));
  pb.Assign("big", lang::ReadFile(lang::Var("name")));
  pb.WriteFile(lang::Var("big"), lang::LitString("out"));
  LogicalGraph g = TranslateProgram(pb.Build(), 4);
  const LogicalNode* read = FindNode(g, NodeKind::kReadFile);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->inputs[0].kind, EdgeKind::kBroadcast);
  const LogicalNode* sink = FindNode(g, NodeKind::kWriteFile);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->inputs[1].kind, EdgeKind::kBroadcast);
  EXPECT_EQ(sink->parallelism, 4);  // follows the data input
}

TEST(TranslatorTest, CrossBlockEdgesAreConditional) {
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  LogicalGraph g = TranslateProgram(program, 4);
  int conditional = 0, unconditional = 0;
  for (const LogicalNode& n : g.nodes) {
    for (const auto& e : n.inputs) {
      const LogicalNode& from = g.node(e.from);
      if (from.block != n.block) {
        EXPECT_TRUE(e.conditional) << from.name << " -> " << n.name;
        ++conditional;
      } else {
        EXPECT_FALSE(e.conditional) << from.name << " -> " << n.name;
        ++unconditional;
      }
    }
  }
  EXPECT_GT(conditional, 0);
  EXPECT_GT(unconditional, 0);
}

TEST(TranslatorTest, ConditionNodesCarryBranchTargets) {
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  auto ir = ir::CompileToIr(program);
  ASSERT_TRUE(ir.ok());
  auto result = Translate(*ir, 2);
  ASSERT_TRUE(result.ok());
  int conditions = 0;
  for (const LogicalNode& n : result->graph.nodes) {
    if (n.kind != NodeKind::kCondition) continue;
    ++conditions;
    EXPECT_NE(n.branch_true, ir::kNoBlock);
    EXPECT_NE(n.branch_false, ir::kNoBlock);
    EXPECT_EQ(n.parallelism, 1);
    // The condition's block is the block whose terminator it decides.
    EXPECT_EQ(ir->block(n.block).term.kind, ir::Terminator::Kind::kBranch);
  }
  EXPECT_EQ(conditions, 2);  // the if and the loop exit
}

TEST(TranslatorTest, PhiParallelismIsMaxOfInputs) {
  // yesterdayCounts: Φ of an empty literal (par 1) and the big counts
  // (par P) — must be par P with forward edges.
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  LogicalGraph g = TranslateProgram(program, 5);
  bool found_data_phi = false;
  for (const LogicalNode& n : g.nodes) {
    if (n.kind != NodeKind::kPhi || n.singleton) continue;
    found_data_phi = true;
    EXPECT_EQ(n.parallelism, 5) << n.name;
  }
  EXPECT_TRUE(found_data_phi);
}

TEST(TranslatorTest, VarNodeMapCoversAllVariables) {
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  auto ir = ir::CompileToIr(program);
  ASSERT_TRUE(ir.ok());
  auto result = Translate(*ir, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(static_cast<int>(result->var_node.size()), ir->num_vars());
}

}  // namespace
}  // namespace mitos::runtime
