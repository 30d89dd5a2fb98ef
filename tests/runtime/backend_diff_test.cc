// Differential suite: the real-parallel threads backend against the DES
// oracle. Both run the SAME operator kernels and PathAuthority decisions
// behind the runtime::Backend seam — so for every figure workload and every
// hostile-control-flow program, the two must agree element-for-element on
// outputs and exactly on the control-plane counters (decisions, bags,
// elements).
//
// What is deliberately NOT compared: virtual vs wall time (different
// clocks by construction) and the cluster byte/message tallies (chunk
// flushing under real concurrency packs elements into different chunk
// boundaries than the simulated schedule — same data, different framing).
#include <gtest/gtest.h>

#include "backend_diff.h"
#include "lang/builder.h"
#include "sim/fault.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::api {
namespace {

// --- hostile control flow ---

// If-branch flips every iteration: consecutive steps never repeat.
lang::Program FlippingIfProgram(int steps) {
  lang::ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("acc", lang::BagLit({Datum::Int64(0)}));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(steps)), [&] {
    pb.If(lang::Eq(lang::Mod(lang::Var("i"), lang::LitInt(2)),
                   lang::LitInt(0)),
          [&] {
            pb.Assign("acc",
                      lang::Map(lang::Var("acc"), lang::fns::AddInt64(1)));
          },
          [&] {
            pb.Assign("acc",
                      lang::Map(lang::Var("acc"), lang::fns::AddInt64(2)));
          });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("acc"), lang::LitString("out"));
  return pb.Build();
}

// Nested loops; alternating inner trip count (1 + i mod 2) keeps the step
// sequence from ever settling into one repeating shape.
lang::Program NestedLoopProgram(int outer, bool alternating, int inner) {
  lang::ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("acc", lang::BagLit({Datum::Int64(0)}));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(outer)), [&] {
    pb.Assign("j", lang::LitInt(0));
    if (alternating) {
      pb.Assign("trips", lang::Add(lang::LitInt(1),
                                   lang::Mod(lang::Var("i"),
                                             lang::LitInt(2))));
    } else {
      pb.Assign("trips", lang::LitInt(inner));
    }
    pb.While(lang::Lt(lang::Var("j"), lang::Var("trips")), [&] {
      pb.Assign("acc", lang::Map(lang::Var("acc"), lang::fns::AddInt64(1)));
      pb.Assign("j", lang::Add(lang::Var("j"), lang::LitInt(1)));
    });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("acc"), lang::LitString("out"));
  return pb.Build();
}

// --- figure workloads ---

TEST(BackendDiffTest, Fig7StepOverheadLoop) {
  sim::SimFileSystem inputs;
  lang::Program program = workloads::StepOverheadProgram(30);
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

TEST(BackendDiffTest, Fig8VisitCount) {
  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&inputs, {.days = 8, .entries_per_day = 1000,
                                         .num_pages = 60});
  lang::Program program = workloads::VisitCountProgram({.days = 8});
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

TEST(BackendDiffTest, Fig9KMeans) {
  sim::SimFileSystem inputs;
  workloads::GeneratePoints(&inputs, {.num_points = 2000, .num_clusters = 3});
  lang::Program program = workloads::KMeansProgram({.iterations = 4});
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

TEST(BackendDiffTest, PageRank) {
  sim::SimFileSystem inputs;
  workloads::GenerateGraph(&inputs, {.num_vertices = 200, .num_edges = 800});
  lang::Program program =
      workloads::PageRankProgram({.iterations = 5, .num_vertices = 200});
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

TEST(BackendDiffTest, ConnectedComponents) {
  sim::SimFileSystem inputs;
  workloads::GenerateGraph(&inputs, {.num_vertices = 150, .num_edges = 400});
  lang::Program program = workloads::ConnectedComponentsProgram();
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

// --- hostile control flow ---

TEST(BackendDiffTest, HostileFlippingBranch) {
  sim::SimFileSystem inputs;
  lang::Program program = FlippingIfProgram(16);
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 8);
}

TEST(BackendDiffTest, HostileAlternatingNestedLoop) {
  sim::SimFileSystem inputs;
  lang::Program program =
      NestedLoopProgram(/*outer=*/6, /*alternating=*/true, /*inner=*/0);
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

// Constant inner trip count: the outer loop replays one step shape.
TEST(BackendDiffTest, SteadyNestedLoopReplays) {
  sim::SimFileSystem inputs;
  lang::Program program =
      NestedLoopProgram(/*outer=*/4, /*alternating=*/false, /*inner=*/8);
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 4);
}

// --- engine ablations through the seam ---

TEST(BackendDiffTest, AblationsAgreeOnVisitCount) {
  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&inputs, {.days = 5, .entries_per_day = 500,
                                         .num_pages = 40});
  lang::Program program = workloads::VisitCountProgram({.days = 5});
  ExpectBackendsAgree(EngineKind::kMitosNoPipelining, program, inputs, 4);
  ExpectBackendsAgree(EngineKind::kMitosNoHoisting, program, inputs, 4);
}

// --- determinism framing ---

// The DES is the oracle precisely because repeated runs are bit-identical;
// the threads backend must be result-deterministic even though its wall
// times are not.
TEST(BackendDiffTest, RepeatedRunsAgreeOnBothBackends) {
  sim::SimFileSystem inputs;
  workloads::GeneratePoints(&inputs, {.num_points = 1500, .num_clusters = 3});
  lang::Program program = workloads::KMeansProgram({.iterations = 3});
  Outcome des1 = RunOn(BackendKind::kDes, EngineKind::kMitos, program, inputs,
                       4);
  Outcome des2 = RunOn(BackendKind::kDes, EngineKind::kMitos, program, inputs,
                       4);
  ExpectEquivalent(des1, des2);
  Outcome thr1 = RunOn(BackendKind::kThreads, EngineKind::kMitos, program,
                       inputs, 4);
  Outcome thr2 = RunOn(BackendKind::kThreads, EngineKind::kMitos, program,
                       inputs, 4);
  ExpectEquivalent(thr1, thr2);
  ExpectEquivalent(des1, thr1);
}

// More machines than the default, so cross-machine chunk interleaving under
// real concurrency gets a real workout.
TEST(BackendDiffTest, EightMachines) {
  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&inputs, {.days = 6, .entries_per_day = 800,
                                         .num_pages = 50});
  lang::Program program = workloads::VisitCountProgram({.days = 6});
  ExpectBackendsAgree(EngineKind::kMitos, program, inputs, 8);
}

// --- guard rails ---

TEST(BackendDiffTest, ThreadsRejectsNonMitosEngines) {
  sim::SimFileSystem fs;
  workloads::GenerateVisitLogs(&fs, {.days = 2, .entries_per_day = 100,
                                     .num_pages = 10});
  lang::Program program = workloads::VisitCountProgram({.days = 2});
  RunConfig config;
  config.backend = BackendKind::kThreads;
  for (EngineKind engine : {EngineKind::kFlink, EngineKind::kSpark,
                            EngineKind::kNaiad, EngineKind::kTensorFlow,
                            EngineKind::kFlinkSeparateJobs}) {
    auto result = api::Run(engine, program, &fs, config);
    EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented)
        << EngineKindName(engine);
  }
}

TEST(BackendDiffTest, ThreadsRejectsFaultPlans) {
  sim::SimFileSystem fs;
  workloads::GeneratePoints(&fs, {.num_points = 200, .num_clusters = 2});
  lang::Program program = workloads::KMeansProgram({.iterations = 2});
  auto plan = sim::FaultPlan::Parse("crash=1@0.5+0.5");
  ASSERT_TRUE(plan.ok());
  RunConfig config;
  config.backend = BackendKind::kThreads;
  config.faults = &*plan;
  auto result = api::Run(EngineKind::kMitos, program, &fs, config);
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(BackendDiffTest, ReferenceInterpreterIgnoresBackend) {
  sim::SimFileSystem fs;
  workloads::GenerateVisitLogs(&fs, {.days = 2, .entries_per_day = 100,
                                     .num_pages = 10});
  lang::Program program = workloads::VisitCountProgram({.days = 2});
  RunConfig config;
  config.backend = BackendKind::kThreads;
  auto result = api::Run(EngineKind::kReference, program, &fs, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace mitos::api
