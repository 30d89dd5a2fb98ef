#include "ir/ssa.h"

#include <gtest/gtest.h>

#include "ir/cfg.h"
#include "ir/verify.h"
#include "lang/builder.h"

namespace mitos::ir {
namespace {

using lang::ProgramBuilder;

DatumVector Ints(std::initializer_list<int64_t> values) {
  DatumVector out;
  for (int64_t v : values) out.push_back(Datum::Int64(v));
  return out;
}

// Counts statements of a kind across all blocks.
int CountOps(const Program& p, OpKind op) {
  int n = 0;
  for (const BasicBlock& b : p.blocks) {
    for (const Stmt& s : b.stmts) {
      if (s.op == op) ++n;
    }
  }
  return n;
}

TEST(SsaTest, StraightLineProgram) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit(Ints({1, 2})));
  pb.Assign("m", lang::Map(lang::Var("b"), lang::fns::AddInt64(1)));
  pb.WriteFile(lang::Var("m"), lang::LitString("out"));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  EXPECT_TRUE(Verify(*ir).ok()) << Verify(*ir).ToString();
  // Single block (entry), exit terminator, no Φ.
  ASSERT_GE(ir->num_blocks(), 1);
  EXPECT_EQ(CountOps(*ir, OpKind::kPhi), 0);
  // writeFile filename got wrapped: bagLit for "out".
  EXPECT_EQ(CountOps(*ir, OpKind::kWriteFile), 1);
}

TEST(SsaTest, DoWhileLoopCreatesPhisInBodyHead) {
  // The paper's Figure 3 shape: do-while with loop-carried day +
  // yesterday bags.
  ProgramBuilder pb;
  pb.Assign("yesterday", lang::BagLit({}));
  pb.Assign("day", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("yesterday", lang::Map(lang::Var("yesterday"),
                                         lang::fns::Identity()));
        pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
      },
      lang::Le(lang::Var("day"), lang::LitInt(3)));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  Status v = Verify(*ir);
  ASSERT_TRUE(v.ok()) << v.ToString() << "\n" << ToString(*ir);

  // Loop-carried Φs: yesterday and day (the condition temp is computed from
  // day inside the body, so only these two are carried).
  EXPECT_EQ(CountOps(*ir, OpKind::kPhi), 2);

  // The body's first block must start with the Φs and be the target of a
  // back-edge branch.
  bool found_backedge = false;
  for (const BasicBlock& b : ir->blocks) {
    if (b.term.kind == Terminator::Kind::kBranch) {
      const BasicBlock& target = ir->block(b.term.target);
      if (!target.stmts.empty() && target.stmts[0].op == OpKind::kPhi) {
        found_backedge = true;
      }
    }
  }
  EXPECT_TRUE(found_backedge);
}

TEST(SsaTest, PhiInputsAreInitAndBackedge) {
  ProgramBuilder pb;
  pb.Assign("x", lang::LitInt(0));
  pb.DoWhile(
      [&] { pb.Assign("x", lang::Add(lang::Var("x"), lang::LitInt(1))); },
      lang::Lt(lang::Var("x"), lang::LitInt(3)));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  const Stmt* phi = nullptr;
  for (const BasicBlock& b : ir->blocks) {
    for (const Stmt& s : b.stmts) {
      if (s.op == OpKind::kPhi) phi = &s;
    }
  }
  ASSERT_NE(phi, nullptr);
  ASSERT_EQ(phi->inputs.size(), 2u);
  // Init comes from the entry block; back-edge input from the body.
  EXPECT_EQ(ir->var(phi->inputs[0]).def_block, 0);
  EXPECT_NE(ir->var(phi->inputs[1]).def_block, 0);
  // Both sides are wrapped scalars -> Φ is singleton.
  EXPECT_TRUE(ir->var(phi->result).singleton);
}

TEST(SsaTest, IfElseCreatesJoinPhi) {
  ProgramBuilder pb;
  pb.Assign("c", lang::LitBool(true));
  pb.Assign("a", lang::LitInt(0));
  pb.If(lang::Var("c"), [&] { pb.Assign("a", lang::LitInt(1)); },
        [&] { pb.Assign("a", lang::LitInt(2)); });
  pb.WriteFile(lang::FromScalar(lang::Var("a")), lang::LitString("out"));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  Status v = Verify(*ir);
  ASSERT_TRUE(v.ok()) << v.ToString() << "\n" << ToString(*ir);
  EXPECT_EQ(CountOps(*ir, OpKind::kPhi), 1);
  // 4 blocks: entry, then, else, join.
  EXPECT_EQ(ir->num_blocks(), 4);
}

TEST(SsaTest, IfWithoutElseBranchesToJoin) {
  ProgramBuilder pb;
  pb.Assign("c", lang::LitBool(false));
  pb.Assign("a", lang::LitInt(0));
  pb.If(lang::Var("c"), [&] { pb.Assign("a", lang::LitInt(1)); });
  pb.WriteFile(lang::FromScalar(lang::Var("a")), lang::LitString("out"));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  ASSERT_TRUE(Verify(*ir).ok());
  EXPECT_EQ(CountOps(*ir, OpKind::kPhi), 1);  // merge of pre-if and then-def
  // Entry branches to then-block and join-block directly.
  const Terminator& term = ir->block(0).term;
  ASSERT_EQ(term.kind, Terminator::Kind::kBranch);
  const BasicBlock& then_block = ir->block(term.target);
  EXPECT_EQ(then_block.term.kind, Terminator::Kind::kJump);
  EXPECT_EQ(then_block.term.target, term.target_else);
}

TEST(SsaTest, UnchangedVariableNeedsNoPhiAtIfJoin) {
  ProgramBuilder pb;
  pb.Assign("c", lang::LitBool(true));
  pb.Assign("keep", lang::LitInt(7));
  pb.Assign("a", lang::LitInt(0));
  pb.If(lang::Var("c"), [&] { pb.Assign("a", lang::LitInt(1)); },
        [&] { pb.Assign("a", lang::LitInt(2)); });
  pb.Assign("b", lang::Add(lang::Var("keep"), lang::Var("a")));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  ASSERT_TRUE(Verify(*ir).ok());
  EXPECT_EQ(CountOps(*ir, OpKind::kPhi), 1);  // only `a`
}

TEST(SsaTest, NestedLoopsVerify) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("acc", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("j", lang::LitInt(0));
    pb.While(lang::Lt(lang::Var("j"), lang::LitInt(2)), [&] {
      pb.Assign("acc", lang::Add(lang::Var("acc"), lang::LitInt(1)));
      pb.Assign("j", lang::Add(lang::Var("j"), lang::LitInt(1)));
    });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  Status v = Verify(*ir);
  EXPECT_TRUE(v.ok()) << v.ToString() << "\n" << ToString(*ir);
}

TEST(SsaTest, VisitCountDiffMatchesPaperShape) {
  // Build the paper's running example and compare against the structure of
  // Figure 3: a do-while whose body splits into 4 logical regions, Φs for
  // yesterdayCnts and day, a branch on the wrapped ifCond, and a back-edge
  // branch on the wrapped exitCond.
  ProgramBuilder pb;
  pb.Assign("yesterdayCnts", lang::BagLit({}));
  pb.Assign("day", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("fileName", lang::Concat(lang::LitString("pageVisitLog"),
                                           lang::Var("day")));
        pb.Assign("visits", lang::ReadFile(lang::Var("fileName")));
        pb.Assign("visitsMapped",
                  lang::Map(lang::Var("visits"), lang::fns::PairWithOne()));
        pb.Assign("counts", lang::ReduceByKey(lang::Var("visitsMapped"),
                                              lang::fns::SumInt64()));
        pb.If(lang::Ne(lang::Var("day"), lang::LitInt(1)), [&] {
          pb.Assign(
              "joinedYesterday",
              lang::Join(lang::Var("yesterdayCnts"), lang::Var("counts")));
          pb.Assign("diffs", lang::Map(lang::Var("joinedYesterday"),
                                       lang::fns::AbsDiff()));
          pb.Assign("summed",
                    lang::Reduce(lang::Var("diffs"), lang::fns::SumInt64()));
          pb.Assign("outFileName",
                    lang::Concat(lang::LitString("diff"), lang::Var("day")));
          pb.WriteFile(lang::Var("summed"), lang::Var("outFileName"));
        });
        pb.Assign("yesterdayCnts", lang::Var("counts"));
        pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
      },
      lang::Le(lang::Var("day"), lang::LitInt(365)));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  Status v = Verify(*ir);
  ASSERT_TRUE(v.ok()) << v.ToString() << "\n" << ToString(*ir);

  // Φs for yesterdayCnts and day at the body head (paper lines 4-5).
  EXPECT_EQ(CountOps(*ir, OpKind::kPhi), 2);
  // Two conditional branches: the if and the loop exit.
  int branches = 0;
  for (const BasicBlock& b : ir->blocks) {
    if (b.term.kind == Terminator::Kind::kBranch) ++branches;
  }
  EXPECT_EQ(branches, 2);
  // 5 blocks: entry, body-head, if-then, if-join(latch), after.
  EXPECT_EQ(ir->num_blocks(), 5);
  EXPECT_EQ(CountOps(*ir, OpKind::kReadFile), 1);
  EXPECT_EQ(CountOps(*ir, OpKind::kJoin), 1);
  EXPECT_EQ(CountOps(*ir, OpKind::kWriteFile), 1);

  // The day Φ is singleton, the yesterdayCnts Φ is not.
  for (const BasicBlock& b : ir->blocks) {
    for (const Stmt& s : b.stmts) {
      if (s.op != OpKind::kPhi) continue;
      const std::string& name = ir->var(s.result).name;
      if (name.rfind("day", 0) == 0) {
        EXPECT_TRUE(ir->var(s.result).singleton) << name;
      } else {
        EXPECT_FALSE(ir->var(s.result).singleton) << name;
      }
    }
  }
}

TEST(SsaTest, WhileLoopHasHeaderBlockWithPhisAndBranch) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  ASSERT_TRUE(Verify(*ir).ok()) << ToString(*ir);
  // Entry jumps to a header that only holds Φs and branches body/after.
  const BasicBlock& entry = ir->block(0);
  ASSERT_EQ(entry.term.kind, Terminator::Kind::kJump);
  const BasicBlock& header = ir->block(entry.term.target);
  ASSERT_EQ(header.term.kind, Terminator::Kind::kBranch);
  for (const Stmt& s : header.stmts) EXPECT_EQ(s.op, OpKind::kPhi);
}

TEST(SsaTest, RejectsNonNormalizedInput) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit(Ints({1})));
  pb.Assign("r", lang::Map(lang::Map(lang::Var("b"), lang::fns::Identity()),
                           lang::fns::Identity()));
  auto ir = BuildSsa(pb.Build(), {});
  ASSERT_FALSE(ir.ok());
  EXPECT_EQ(ir.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SsaTest, SingletonPropagatesThroughReduceAndCombine) {
  ProgramBuilder pb;
  pb.Assign("big", lang::BagLit(Ints({1, 2, 3, 4})));
  pb.Assign("r", lang::Reduce(lang::Var("big"), lang::fns::SumInt64()));
  pb.Assign("n", lang::Count(lang::Var("big")));
  pb.Assign("c", lang::Combine2(lang::Var("r"), lang::Var("n"),
                                lang::fns::SumInt64()));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  for (const BasicBlock& b : ir->blocks) {
    for (const Stmt& s : b.stmts) {
      if (s.result == kNoVar) continue;
      const VarInfo& info = ir->var(s.result);
      if (info.name.rfind("big", 0) == 0) {
        EXPECT_FALSE(info.singleton);
      } else {
        EXPECT_TRUE(info.singleton) << info.name;
      }
    }
  }
}

}  // namespace
}  // namespace mitos::ir
