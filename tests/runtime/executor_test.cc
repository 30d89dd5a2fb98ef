#include "runtime/executor.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "lang/builder.h"
#include "lang/interpreter.h"
#include "workloads/programs.h"

namespace mitos::runtime {
namespace {

using lang::ProgramBuilder;

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

// Runs `program` in the reference interpreter and under Mitos on `machines`
// simulated machines, then compares all file outputs as sorted multisets
// (distributed partitions arrive unordered).
RunStats ExpectMitosMatchesReference(const lang::Program& program,
                                     const sim::SimFileSystem& inputs,
                                     int machines,
                                     ExecutorOptions options = {}) {
  sim::SimFileSystem fs_ref = inputs;
  lang::Interpreter interp(&fs_ref);
  Status ref_status = interp.Run(program);
  EXPECT_TRUE(ref_status.ok()) << ref_status.ToString();

  sim::SimFileSystem fs_mitos = inputs;
  sim::Simulator sim;
  sim::ClusterConfig cluster_config;
  cluster_config.num_machines = machines;
  sim::Cluster cluster(&sim, cluster_config);
  MitosExecutor executor(&sim, &cluster, &fs_mitos, options);
  StatusOr<RunStats> stats = executor.Run(program);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return RunStats{};

  EXPECT_EQ(fs_ref.ListFiles(), fs_mitos.ListFiles());
  for (const std::string& name : fs_ref.ListFiles()) {
    EXPECT_EQ(Sorted(*fs_ref.Read(name)), Sorted(*fs_mitos.Read(name)))
        << "file " << name << " differs on " << machines << " machines";
  }
  EXPECT_GT(stats->total_seconds, 0.0);
  return *stats;
}

TEST(MitosExecutorTest, StraightLineMapWrite) {
  ProgramBuilder pb;
  pb.Assign("b", lang::BagLit(Ints({1, 2, 3, 4, 5})));
  pb.WriteFile(lang::Map(lang::Var("b"), lang::fns::AddInt64(10)),
               lang::LitString("out"));
  ExpectMitosMatchesReference(pb.Build(), {}, 1);
  ExpectMitosMatchesReference(pb.Build(), {}, 4);
}

TEST(MitosExecutorTest, ReadMapReduceWrite) {
  sim::SimFileSystem inputs;
  DatumVector data;
  for (int i = 0; i < 1000; ++i) data.push_back(Datum::Int64(i % 13));
  inputs.Write("in", data);

  ProgramBuilder pb;
  pb.Assign("visits", lang::ReadFile(lang::LitString("in")));
  pb.Assign("counts", lang::ReduceByKey(
                          lang::Map(lang::Var("visits"),
                                    lang::fns::PairWithOne()),
                          lang::fns::SumInt64()));
  pb.WriteFile(lang::Var("counts"), lang::LitString("out"));
  for (int machines : {1, 3, 8}) {
    ExpectMitosMatchesReference(pb.Build(), inputs, machines);
  }
}

TEST(MitosExecutorTest, SimpleCountingLoop) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(5)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::FromScalar(lang::Var("i")), lang::LitString("out"));
  RunStats stats = ExpectMitosMatchesReference(pb.Build(), {}, 2);
  // 5 iterations + exit test... the while header evaluates 6 times.
  EXPECT_EQ(stats.decisions, 6);
}

TEST(MitosExecutorTest, DoWhileLoop) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.DoWhile(
      [&] { pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1))); },
      lang::Lt(lang::Var("i"), lang::LitInt(4)));
  pb.WriteFile(lang::FromScalar(lang::Var("i")), lang::LitString("out"));
  RunStats stats = ExpectMitosMatchesReference(pb.Build(), {}, 2);
  EXPECT_EQ(stats.decisions, 4);
}

TEST(MitosExecutorTest, LoopThatNeverRuns) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(10));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(5)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::FromScalar(lang::Var("i")), lang::LitString("out"));
  ExpectMitosMatchesReference(pb.Build(), {}, 2);
}

TEST(MitosExecutorTest, IfInsideLoopBothBranches) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("acc", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(6)), [&] {
    pb.If(lang::Eq(lang::Mod(lang::Var("i"), lang::LitInt(2)),
                   lang::LitInt(0)),
          [&] {
            pb.Assign("acc", lang::Add(lang::Var("acc"), lang::Var("i")));
          },
          [&] {
            pb.Assign("acc", lang::Sub(lang::Var("acc"), lang::LitInt(1)));
          });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::FromScalar(lang::Var("acc")), lang::LitString("out"));
  ExpectMitosMatchesReference(pb.Build(), {}, 3);
}

TEST(MitosExecutorTest, FileReadInsideLoop) {
  sim::SimFileSystem inputs;
  inputs.Write("in1", Ints({1, 2, 3}));
  inputs.Write("in2", Ints({4, 5}));
  inputs.Write("in3", Ints({6}));
  ProgramBuilder pb;
  pb.Assign("day", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("data", lang::ReadFile(lang::Concat(lang::LitString("in"),
                                                      lang::Var("day"))));
        pb.WriteFile(lang::Map(lang::Var("data"), lang::fns::AddInt64(100)),
                     lang::Concat(lang::LitString("out"), lang::Var("day")));
        pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
      },
      lang::Le(lang::Var("day"), lang::LitInt(3)));
  for (int machines : {1, 4}) {
    ExpectMitosMatchesReference(pb.Build(), inputs, machines);
  }
}

TEST(MitosExecutorTest, VisitCountDiffFullPaperExample) {
  sim::SimFileSystem inputs;
  inputs.Write("pageVisitLog1", Ints({1, 1, 2, 5, 5, 5}));
  inputs.Write("pageVisitLog2", Ints({1, 2, 2, 5}));
  inputs.Write("pageVisitLog3", Ints({2, 2, 2, 1}));
  inputs.Write("pageVisitLog4", Ints({7, 7, 1, 2}));
  lang::Program program = workloads::VisitCountProgram({.days = 4});
  for (int machines : {1, 2, 5}) {
    ExpectMitosMatchesReference(program, inputs, machines);
  }
}

TEST(MitosExecutorTest, LoopInvariantJoinInsideLoop) {
  // The pageTypes pattern (paper Sec. 2): a static dataset read before the
  // loop, joined inside the loop.
  sim::SimFileSystem inputs;
  inputs.Write("pageTypes", {Datum::Pair(Datum::Int64(1), Datum::Int64(0)),
                             Datum::Pair(Datum::Int64(2), Datum::Int64(1)),
                             Datum::Pair(Datum::Int64(3), Datum::Int64(0))});
  inputs.Write("log1", Ints({1, 2, 3, 1}));
  inputs.Write("log2", Ints({2, 2, 3}));

  ProgramBuilder pb;
  pb.Assign("types", lang::ReadFile(lang::LitString("pageTypes")));
  pb.Assign("day", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("visits", lang::ReadFile(lang::Concat(lang::LitString("log"),
                                                        lang::Var("day"))));
        pb.Assign("tagged",
                  lang::Join(lang::Var("types"),
                             lang::Map(lang::Var("visits"),
                                       lang::fns::PairWithOne())));
        pb.Assign("interesting",
                  lang::Filter(lang::Var("tagged"),
                               lang::fns::FieldEquals(1, 0)));
        pb.WriteFile(lang::Var("interesting"),
                     lang::Concat(lang::LitString("out"), lang::Var("day")));
        pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
      },
      lang::Le(lang::Var("day"), lang::LitInt(2)));
  for (int machines : {1, 4}) {
    ExpectMitosMatchesReference(pb.Build(), inputs, machines);
  }
}

TEST(MitosExecutorTest, NestedLoops) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("acc", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("j", lang::LitInt(0));
    pb.While(lang::Lt(lang::Var("j"), lang::LitInt(4)), [&] {
      pb.Assign("acc", lang::Add(lang::Var("acc"), lang::LitInt(1)));
      pb.Assign("j", lang::Add(lang::Var("j"), lang::LitInt(1)));
    });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::FromScalar(lang::Var("acc")), lang::LitString("out"));
  ExpectMitosMatchesReference(pb.Build(), {}, 2);
}

TEST(MitosExecutorTest, NestedLoopWithInvariantOuterJoinInput) {
  // Figure 4a: x computed in the outer loop, joined against y in the inner
  // loop — the x bag must be reused across inner iterations (Challenge 2).
  sim::SimFileSystem inputs;
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.Assign("total", lang::BagLit({}));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(3)), [&] {
    pb.Assign("x", lang::BagLit({Datum::Pair(Datum::Int64(0),
                                             Datum::Int64(100))}));
    pb.Assign("x", lang::Map(lang::Var("x"), {"shift", [](const Datum& p) {
                               return Datum::Pair(p.field(0),
                                                  p.field(1));
                             }}));
    pb.Assign("j", lang::LitInt(0));
    pb.While(lang::Lt(lang::Var("j"), lang::LitInt(3)), [&] {
      pb.Assign("y", lang::FromScalar(lang::Mul(lang::Var("j"),
                                                lang::LitInt(10))));
      pb.Assign("ypairs",
                lang::Map(lang::Var("y"), {"pair0", [](const Datum& v) {
                            return Datum::Pair(Datum::Int64(0), v);
                          }}));
      pb.Assign("joined", lang::Join(lang::Var("x"), lang::Var("ypairs")));
      pb.Assign("total", lang::Union(lang::Var("total"), lang::Var("joined")));
      pb.Assign("j", lang::Add(lang::Var("j"), lang::LitInt(1)));
    });
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("total"), lang::LitString("out"));
  for (int machines : {1, 3}) {
    ExpectMitosMatchesReference(pb.Build(), inputs, machines);
  }
}

TEST(MitosExecutorTest, PipeliningOffMatchesReferenceToo) {
  sim::SimFileSystem inputs;
  inputs.Write("pageVisitLog1", Ints({1, 1, 2}));
  inputs.Write("pageVisitLog2", Ints({1, 2, 2}));
  inputs.Write("pageVisitLog3", Ints({3, 3}));
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  ExecutorOptions options;
  options.pipelining = false;
  ExpectMitosMatchesReference(program, inputs, 3, options);
}

TEST(MitosExecutorTest, HoistingOffMatchesReferenceToo) {
  sim::SimFileSystem inputs;
  inputs.Write("pageVisitLog1", Ints({1, 1, 2}));
  inputs.Write("pageVisitLog2", Ints({1, 2, 2}));
  lang::Program program = workloads::VisitCountProgram({.days = 2});
  ExecutorOptions options;
  options.hoisting = false;
  ExpectMitosMatchesReference(program, inputs, 2, options);
}

TEST(MitosExecutorTest, MissingInputFileFailsCleanly) {
  ProgramBuilder pb;
  pb.Assign("b", lang::ReadFile(lang::LitString("missing")));
  pb.WriteFile(lang::Var("b"), lang::LitString("out"));
  sim::SimFileSystem fs;
  sim::Simulator sim;
  sim::Cluster cluster(&sim, {});
  MitosExecutor executor(&sim, &cluster, &fs);
  StatusOr<RunStats> stats = executor.Run(pb.Build());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST(MitosExecutorTest, RunawayLoopGuard) {
  ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(1'000'000)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  sim::SimFileSystem fs;
  sim::Simulator sim;
  sim::Cluster cluster(&sim, {});
  ExecutorOptions options;
  options.max_path_len = 50;
  MitosExecutor executor(&sim, &cluster, &fs, options);
  StatusOr<RunStats> stats = executor.Run(pb.Build());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace mitos::runtime
