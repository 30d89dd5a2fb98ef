#include "baselines/flink.h"

#include <gtest/gtest.h>

#include "lang/builder.h"
#include "workloads/programs.h"

namespace mitos::baselines {
namespace {

using lang::ProgramBuilder;

TEST(FlinkExpressibilityTest, PlainLoopIsExpressible) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("b", lang::Map(lang::Var("b"), lang::fns::AddInt64(1)));
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("b"), lang::LitString("out"));
  EXPECT_TRUE(CheckNativeIterationExpressible(pb.Build()).ok());
}

TEST(FlinkExpressibilityTest, NestedLoopsRejected) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("j", lang::LitInt(0));
    pb.While(lang::Lt(lang::Var("j"), lang::LitInt(3)), [&] {
      pb.Assign("j", lang::Add(lang::Var("j"), lang::LitInt(1)));
    });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  Status status = CheckNativeIterationExpressible(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_NE(status.message().find("nested"), std::string::npos);
}

TEST(FlinkExpressibilityTest, IfInsideLoopRejected) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.If(lang::Eq(lang::Var("i"), lang::LitInt(1)), [&] {});
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  Status status = CheckNativeIterationExpressible(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("if"), std::string::npos);
}

TEST(FlinkExpressibilityTest, FileReadInsideLoopRejected) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("d", lang::ReadFile(lang::Concat(lang::LitString("f"),
                                               lang::Var("i"))));
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  Status status = CheckNativeIterationExpressible(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("reading"), std::string::npos);
}

TEST(FlinkExpressibilityTest, FileWriteInsideLoopRejected) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.Assign("i", lang::LitInt(0));
  pb.DoWhile(
      [&] {
        pb.WriteFile(lang::Var("b"), lang::LitString("out"));
        pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
      },
      lang::Lt(lang::Var("i"), lang::LitInt(3)));
  Status status = CheckNativeIterationExpressible(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("writing"), std::string::npos);
}

TEST(FlinkExpressibilityTest, ControlFlowOutsideLoopsIsFine) {
  ProgramBuilder pb;
  pb.Assign("c", lang::LitBool(true));
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.If(lang::Var("c"),
        [&] { pb.Assign("b", lang::ReadFile(lang::LitString("f"))); },
        [&] { pb.WriteFile(lang::Var("b"), lang::LitString("g")); });
  EXPECT_TRUE(CheckNativeIterationExpressible(pb.Build()).ok());
}

TEST(FlinkExpressibilityTest, PaperProgramsClassifiedCorrectly) {
  // The paper's running example is outside the fragment (Sec. 2)...
  EXPECT_FALSE(CheckNativeIterationExpressible(
                   workloads::VisitCountProgram({.days = 3}))
                   .ok());
  // ...while PageRank and k-means (fixed-iteration loops over in-job data)
  // fit native iterations.
  EXPECT_TRUE(CheckNativeIterationExpressible(
                  workloads::PageRankProgram(
                      {.iterations = 3, .num_vertices = 10}))
                  .ok());
  EXPECT_TRUE(CheckNativeIterationExpressible(
                  workloads::KMeansProgram({.iterations = 3}))
                  .ok());
}

TEST(FlinkSimTest, StrictModeRejects) {
  // api::Run's strict Flink mode is this check before compiling.
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("d", lang::ReadFile(lang::Concat(lang::LitString("f"),
                                                   lang::Var("i"))));
        pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
      },
      lang::Lt(lang::Var("i"), lang::LitInt(2)));
  Status status = CheckNativeIterationExpressible(pb.Build());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

TEST(FlinkSimTest, PerStepOverheadChargedPerDecision) {
  auto run_with_overhead = [&](double overhead) {
    sim::Simulator sim;
    sim::ClusterConfig config;
    config.num_machines = 2;
    sim::Cluster cluster(&sim, config);
    runtime::DesBackend backend(&sim, &cluster);
    sim::SimFileSystem fs;
    auto plan = runtime::CompilePlan(workloads::StepOverheadProgram(10),
                                     {.machines = 2});
    MITOS_CHECK(plan.ok()) << plan.status().ToString();
    FlinkOptions options;
    options.step_overhead = overhead;
    auto stats = RunFlinkSim(&backend, &fs, *plan, options);
    MITOS_CHECK(stats.ok()) << stats.status().ToString();
    return stats->total_seconds;
  };
  double cheap = run_with_overhead(0.001);
  double pricey = run_with_overhead(0.101);
  // 11 decisions (10 true + 1 false) at +100 ms each; the initial path
  // broadcast at job start is not a superstep boundary and charges nothing.
  EXPECT_NEAR(pricey - cheap, 11 * 0.1, 0.02);
}

}  // namespace
}  // namespace mitos::baselines
