#include "ir/fusion.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "../runtime/run_on_des.h"
#include "api/engine.h"
#include "ir/ssa.h"
#include "ir/verify.h"
#include "lang/builder.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::ir {
namespace {

int TotalStmts(const Program& p) {
  int n = 0;
  for (const BasicBlock& b : p.blocks) n += static_cast<int>(b.stmts.size());
  return n;
}

TEST(FusionTest, FusesMapChains) {
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1), Datum::Int64(2)}));
  pb.Assign("r", lang::Map(lang::Map(lang::Map(lang::Var("b"),
                                               lang::fns::AddInt64(1)),
                                     lang::fns::AddInt64(2)),
                           lang::fns::AddInt64(3)));
  pb.WriteFile(lang::Var("r"), lang::LitString("out"));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  auto fused = FuseElementwise(*ir);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_EQ(fused->fused_stmts, 2);  // three maps become one flatMap
  EXPECT_TRUE(Verify(fused->program).ok())
      << Verify(fused->program).ToString();
  EXPECT_EQ(TotalStmts(fused->program), TotalStmts(*ir) - 2);
}

TEST(FusionTest, FusedChainComputesSameResult) {
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1), Datum::Int64(2),
                               Datum::Int64(3), Datum::Int64(4)}));
  pb.Assign("r",
            lang::Filter(lang::Map(lang::Var("b"), lang::fns::AddInt64(1)),
                         lang::fns::ModEquals(2, 1)));
  pb.WriteFile(lang::Var("r"), lang::LitString("out"));
  lang::Program program = pb.Build();

  sim::SimFileSystem fs_plain, fs_fused;
  ASSERT_TRUE(runtime::RunOnDes(program, &fs_plain, 4).ok());
  ASSERT_TRUE(runtime::RunOnDes(program, &fs_fused, 4, {},
                                {.operator_fusion = true})
                  .ok());
  auto sorted = [](DatumVector v) {
    std::sort(v.begin(), v.end(),
              [](const Datum& a, const Datum& b) { return a < b; });
    return v;
  };
  EXPECT_EQ(sorted(*fs_plain.Read("out")), sorted(*fs_fused.Read("out")));
}

TEST(FusionTest, SharedIntermediateIsNotFused) {
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.Assign("mid", lang::Map(lang::Var("b"), lang::fns::AddInt64(1)));
  pb.Assign("r1", lang::Map(lang::Var("mid"), lang::fns::AddInt64(2)));
  pb.Assign("r2", lang::Map(lang::Var("mid"), lang::fns::AddInt64(3)));
  pb.WriteFile(lang::Var("r1"), lang::LitString("out1"));
  pb.WriteFile(lang::Var("r2"), lang::LitString("out2"));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  auto fused = FuseElementwise(*ir);
  ASSERT_TRUE(fused.ok());
  // `mid` feeds two consumers: it must survive as a node.
  EXPECT_EQ(fused->fused_stmts, 0);
}

TEST(FusionTest, CrossBlockChainsAreNotFused) {
  // A map whose producer lives in a different basic block (conditional
  // edge semantics) must not be merged across the boundary.
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(2)), [&] {
    pb.Assign("b", lang::Map(lang::Var("b"), lang::fns::AddInt64(1)));
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("b"), lang::LitString("out"));
  auto ir = CompileToIr(pb.Build());
  ASSERT_TRUE(ir.ok());
  auto fused = FuseElementwise(*ir);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(Verify(fused->program).ok());
  // The Φ -> map edge crosses from the header/body boundary handling; the
  // loop body's map consumes the Φ (not elementwise) — whatever fuses, the
  // program must stay runnable and correct:
  sim::SimFileSystem fs;
  ASSERT_TRUE(
      runtime::RunOnDes(pb.Build(), &fs, 4, {}, {.operator_fusion = true})
          .ok());
  EXPECT_EQ((*fs.Read("out"))[0].int64(), 3);
}

TEST(FusionTest, VisitCountWithFusionMatchesReference) {
  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&inputs, {.days = 5, .entries_per_day = 400,
                                         .num_pages = 40});
  lang::Program program = workloads::VisitCountProgram({.days = 5});

  sim::SimFileSystem fs_ref = inputs;
  ASSERT_TRUE(
      api::Run(api::EngineKind::kReference, program, &fs_ref).ok());

  sim::SimFileSystem fs = inputs;
  auto stats =
      runtime::RunOnDes(program, &fs, 4, {}, {.operator_fusion = true});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto sorted = [](DatumVector v) {
    std::sort(v.begin(), v.end(),
              [](const Datum& a, const Datum& b) { return a < b; });
    return v;
  };
  ASSERT_EQ(fs_ref.ListFiles(), fs.ListFiles());
  for (const std::string& name : fs_ref.ListFiles()) {
    EXPECT_EQ(sorted(*fs_ref.Read(name)), sorted(*fs.Read(name))) << name;
  }
}

TEST(FusionTest, NoFusablePairsInCanonicalVisitCount) {
  // Every elementwise op in Visit Count consumes a non-elementwise
  // producer (readFile, reduceByKey, join, Φ): fusion must be a no-op.
  auto ir = CompileToIr(workloads::VisitCountProgram({.days = 3}));
  ASSERT_TRUE(ir.ok());
  auto fused = FuseElementwise(*ir);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->fused_stmts, 0);
}

TEST(FusionTest, FusionReducesCoordinatedBags) {
  // A loop whose body is a long elementwise chain: fusion collapses the
  // chain's interior, removing per-iteration bag coordination.
  lang::ProgramBuilder pb;
  pb.Assign("data", lang::BagLit({Datum::Int64(1), Datum::Int64(2),
                                  Datum::Int64(3)}));
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(8)), [&] {
    pb.Assign("data",
              lang::Map(lang::Map(lang::Map(lang::Map(lang::Var("data"),
                                                      lang::fns::AddInt64(1)),
                                            lang::fns::AddInt64(2)),
                                  lang::fns::AddInt64(3)),
                        lang::fns::AddInt64(-6)));
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("data"), lang::LitString("out"));
  lang::Program program = pb.Build();

  auto run = [&](bool fusion) {
    sim::SimFileSystem fs;
    auto stats =
        runtime::RunOnDes(program, &fs, 2, {}, {.operator_fusion = fusion});
    MITOS_CHECK(stats.ok()) << stats.status().ToString();
    // Results identical regardless of fusion.
    MITOS_CHECK((*fs.Read("out")).size() == 3);
    return stats->bags;
  };
  int64_t fused_bags = run(true);
  int64_t plain_bags = run(false);
  // Exactly 3 interior operators per iteration disappear: 8 iterations x 3
  // bags fewer to coordinate.
  EXPECT_EQ(plain_bags - fused_bags, 3 * 8);
}

}  // namespace
}  // namespace mitos::ir
