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
  // A dead map next to the observed one: the explained plan must shrink
  // when dead-code elimination is on (EXPLAIN shows the plan that runs).
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1), Datum::Int64(2)}));
  pb.Assign("dead", lang::Map(lang::Var("b"), lang::fns::AddInt64(1)));
  pb.Assign("r", lang::Map(lang::Var("b"), lang::fns::AddInt64(2)));
  pb.WriteFile(lang::Var("r"), lang::LitString("out"));
  lang::Program program = pb.Build();

  auto pruned = BuildExplain(program, {.plan = {.machines = 4}});
  auto unpruned = BuildExplain(
      program, {.plan = {.machines = 4, .dead_code_elimination = false}});
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(unpruned.ok());
  EXPECT_LT(pruned->graph.nodes.size(), unpruned->graph.nodes.size());
}

lang::Program TwoMapProgram() {
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1), Datum::Int64(2)}));
  pb.Assign("r", lang::Map(lang::Map(lang::Var("b"), lang::fns::AddInt64(1)),
                           lang::fns::AddInt64(2)));
  pb.WriteFile(lang::Var("r"), lang::LitString("out"));
  return pb.Build();
}

TEST(ExplainTest, PlanEnginesExplainTheOnePlanTheyRun) {
  // Every engine that runs from a plan runs the same one: api::Compile's.
  const lang::Program program = TwoMapProgram();
  auto plan = BuildExplain(program, {.plan = {.machines = 4}});
  ASSERT_TRUE(plan.ok());
  for (api::EngineKind kind :
       {api::EngineKind::kMitos, api::EngineKind::kMitosNoPipelining,
        api::EngineKind::kMitosNoHoisting, api::EngineKind::kFlink,
        api::EngineKind::kNaiad, api::EngineKind::kTensorFlow}) {
    ASSERT_TRUE(api::RunsFromPlan(kind)) << api::EngineKindName(kind);
    auto explained = api::Engine(kind, {.machines = 4}).Explain(program);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(explained->ssa, plan->ssa) << api::EngineKindName(kind);
  }
}

TEST(ExplainTest, EnginesWithoutOnePlanAreRejected) {
  // The reference interpreter runs no dataflow job and the per-action
  // launchers run one job per action: no single plan to explain.
  const lang::Program program = TwoMapProgram();
  for (api::EngineKind kind :
       {api::EngineKind::kReference, api::EngineKind::kFlinkSeparateJobs,
        api::EngineKind::kSpark}) {
    ASSERT_FALSE(api::RunsFromPlan(kind)) << api::EngineKindName(kind);
    auto explained = api::Engine(kind, {.machines = 4}).Explain(program);
    ASSERT_FALSE(explained.ok()) << api::EngineKindName(kind);
    EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(explained.status().message().find(api::EngineKindName(kind)),
              std::string::npos)
        << explained.status().ToString();
  }
}

}  // namespace
}  // namespace mitos::obs::analysis
