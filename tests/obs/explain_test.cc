#include "obs/analysis/explain.h"

#include <string>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "json_lint.h"
#include "lang/builder.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::obs::analysis {
namespace {

using obs_testing::JsonLint;

TEST(ExplainTest, ExportsAstSsaAndDataflow) {
  lang::Program program = workloads::KMeansProgram({.iterations = 3});
  auto plan = BuildExplain(program, {.plan = {.machines = 4}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EXPECT_FALSE(plan->ast.empty());
  EXPECT_NE(plan->ssa.find("block"), std::string::npos);
  EXPECT_FALSE(plan->graph.nodes.empty());

  std::string dot = plan->ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  // No cost annotations without a profile.
  EXPECT_EQ(dot.find("s cpu"), std::string::npos);
}

TEST(ExplainTest, JsonIsValidAndDeterministic) {
  lang::Program program = workloads::VisitCountProgram({.days = 4});
  auto plan = BuildExplain(program, {.plan = {.machines = 3}});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  std::string json = plan->ToJson();
  std::string error;
  EXPECT_TRUE(JsonLint::IsValid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"ast\""), std::string::npos);
  EXPECT_NE(json.find("\"ssa\""), std::string::npos);
  EXPECT_NE(json.find("\"dataflow\""), std::string::npos);

  auto again = BuildExplain(program, {.plan = {.machines = 3}});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(json, again->ToJson());
  EXPECT_EQ(plan->ToDot(), again->ToDot());
}

// api::Engine::Explain back-fills measured operator costs from the most
// recent profiled Run().
TEST(ExplainTest, EngineBackfillsProfiledCosts) {
  sim::SimFileSystem fs;
  workloads::GeneratePoints(&fs, {.num_points = 120, .num_clusters = 3});
  lang::Program program = workloads::KMeansProgram({.iterations = 3});

  api::Engine engine(api::EngineKind::kMitos, {.machines = 4});

  // Before any run: plan only, no costs.
  auto cold = engine.Explain(program);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->operator_cpu.empty());

  auto result = engine.Run(program, &fs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto warm = engine.Explain(program);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_FALSE(warm->operator_cpu.empty());
  EXPECT_NE(warm->ToDot().find("s cpu"), std::string::npos);
  // The JSON carries the measured per-node cpu_seconds too.
  EXPECT_NE(warm->ToJson().find("\"cpu_seconds\""), std::string::npos);
}

TEST(ExplainTest, MirrorsEnginePipelineOptions) {
  // A map chain: fusable, so the explained plan must shrink when the
  // engine would fuse (EXPLAIN shows the plan the engine executes).
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1), Datum::Int64(2)}));
  pb.Assign("r", lang::Map(lang::Map(lang::Map(lang::Var("b"),
                                               lang::fns::AddInt64(1)),
                                     lang::fns::AddInt64(2)),
                           lang::fns::AddInt64(3)));
  pb.WriteFile(lang::Var("r"), lang::LitString("out"));
  lang::Program program = pb.Build();

  auto plain = BuildExplain(program, {.plan = {.machines = 4}});
  auto fused = BuildExplain(
      program, {.plan = {.machines = 4, .operator_fusion = true}});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fused.ok());
  EXPECT_LT(fused->graph.nodes.size(), plain->graph.nodes.size());
}

TEST(ExplainTest, BaselineEnginesExplainTheUnfusedPlanTheyRun) {
  // Fusion is a Mitos-only compile option: a baseline engine configured
  // with it still executes, and so must explain, the unfused plan.
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1), Datum::Int64(2)}));
  pb.Assign("r", lang::Map(lang::Map(lang::Var("b"), lang::fns::AddInt64(1)),
                           lang::fns::AddInt64(2)));
  pb.WriteFile(lang::Var("r"), lang::LitString("out"));
  lang::Program program = pb.Build();
  const api::RunConfig fusing = {.machines = 4, .mitos_operator_fusion = true};

  auto unfused = BuildExplain(program, {.plan = {.machines = 4}});
  ASSERT_TRUE(unfused.ok());
  for (api::EngineKind kind : {api::EngineKind::kFlink, api::EngineKind::kNaiad,
                               api::EngineKind::kTensorFlow}) {
    auto explained = api::Engine(kind, fusing).Explain(program);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(explained->ssa, unfused->ssa) << api::EngineKindName(kind);
  }
  auto mitos = api::Engine(api::EngineKind::kMitos, fusing).Explain(program);
  ASSERT_TRUE(mitos.ok());
  EXPECT_NE(mitos->ssa, unfused->ssa);
}

}  // namespace
}  // namespace mitos::obs::analysis
