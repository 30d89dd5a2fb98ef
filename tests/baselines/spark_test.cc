#include "baselines/spark.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "lang/builder.h"
#include "runtime/spark_cache.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::baselines {
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

class SparkDriverTest : public ::testing::Test {
 protected:
  StatusOr<runtime::RunStats> RunProgram(const lang::Program& program) {
    sim::Simulator sim;
    sim::ClusterConfig config;
    config.num_machines = 2;
    sim::Cluster cluster(&sim, config);
    runtime::DesBackend backend(&sim, &cluster);
    return RunSpark(&backend, &fs_, program, options_);
  }

  sim::SimFileSystem fs_;
  SparkOptions options_;
};

TEST_F(SparkDriverTest, OneJobPerAction) {
  fs_.Write("in", Ints({1, 2, 3}));
  lang::ProgramBuilder pb;
  pb.Assign("a", lang::ReadFile(lang::LitString("in")));
  pb.WriteFile(lang::Var("a"), lang::LitString("out1"));
  pb.WriteFile(lang::Map(lang::Var("a"), lang::fns::AddInt64(1)),
               lang::LitString("out2"));
  auto stats = RunProgram(pb.Build());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->jobs, 2);
  // Partitions land in completion order: compare as multisets.
  EXPECT_EQ(Sorted(*fs_.Read("out1")), Ints({1, 2, 3}));
  EXPECT_EQ(Sorted(*fs_.Read("out2")), Ints({2, 3, 4}));
}

TEST_F(SparkDriverTest, CachedBagIsNotRecomputed) {
  fs_.Write("in", Ints({1, 2, 3, 4, 5, 6}));
  // An "expensive" chain assigned to a named variable and consumed by two
  // actions: the second job must read the cache, not re-run the chain.
  lang::ProgramBuilder pb;
  pb.Assign("raw", lang::ReadFile(lang::LitString("in")));
  pb.Assign("expensive",
            lang::ReduceByKey(lang::Map(lang::Var("raw"),
                                        lang::fns::PairWithOne()),
                              lang::fns::SumInt64()));
  pb.WriteFile(lang::Var("expensive"), lang::LitString("out1"));
  pb.WriteFile(lang::Var("expensive"), lang::LitString("out2"));
  auto stats = RunProgram(pb.Build());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->jobs, 2);
  // Outputs identical.
  EXPECT_EQ(Sorted(*fs_.Read("out1")), Sorted(*fs_.Read("out2")));
  // Only the first job reads the raw input from disk (6 elements + the
  // second job's cache read of 6 pairs): well under two full recomputes of
  // the map+reduce chain.
  // 1st job: read 6, map 6, rbk 6 (+cache write). 2nd: cache read 6.
  EXPECT_LE(stats->elements, 44);
}

TEST_F(SparkDriverTest, CacheFilesAreRemovedAfterRun) {
  fs_.Write("in", Ints({1}));
  lang::ProgramBuilder pb;
  pb.Assign("a", lang::Map(lang::ReadFile(lang::LitString("in")),
                           lang::fns::AddInt64(1)));
  pb.WriteFile(lang::Var("a"), lang::LitString("out"));
  pb.WriteFile(lang::Var("a"), lang::LitString("out_b"));
  auto stats = RunProgram(pb.Build());
  ASSERT_TRUE(stats.ok());
  for (const std::string& name : fs_.ListFiles()) {
    EXPECT_FALSE(runtime::IsCacheFile(name)) << name;
  }
}

TEST_F(SparkDriverTest, ScalarConditionsRunInDriverForFree) {
  // A loop whose condition is a plain driver scalar: no job per test.
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit(Ints({5})));
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("i"), lang::LitInt(100)), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  pb.WriteFile(lang::Var("b"), lang::LitString("out"));
  auto stats = RunProgram(pb.Build());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->jobs, 1);  // only the final writeFile
}

TEST_F(SparkDriverTest, BagConditionCollectsPerEvaluation) {
  lang::Program program = workloads::StepOverheadProgram(4);
  auto stats = RunProgram(program);
  ASSERT_TRUE(stats.ok());
  // Condition evaluated 5 times (4 true + 1 false) -> 5 collect jobs,
  // plus the final writeFile.
  EXPECT_EQ(stats->jobs, 6);
}

TEST_F(SparkDriverTest, PerJobLaunchOverheadAccumulates) {
  fs_.Write("in", Ints({1}));
  lang::ProgramBuilder pb;
  pb.Assign("a", lang::ReadFile(lang::LitString("in")));
  pb.Assign("day", lang::LitInt(0));
  pb.While(lang::Lt(lang::Var("day"), lang::LitInt(5)), [&] {
    pb.WriteFile(lang::Var("a"),
                 lang::Concat(lang::LitString("out"), lang::Var("day")));
    pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
  });
  auto stats = RunProgram(pb.Build());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->jobs, 5);
  double per_job = options_.launch_base + options_.launch_per_machine * 2;
  EXPECT_GE(stats->total_seconds, 5 * per_job);
}

TEST_F(SparkDriverTest, NoHoistingAcrossJobs) {
  // Joins rebuild per job: the hoisted-reuse counter stays zero even
  // though the build side is loop-invariant.
  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&fs_, {.days = 3, .entries_per_day = 50,
                                      .num_pages = 10});
  workloads::GeneratePageTypes(&fs_, {.num_pages = 10, .num_types = 2});
  lang::Program program = workloads::VisitCountProgram(
      {.days = 3, .with_page_types = true});
  auto stats = RunProgram(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hoisted_reuses, 0);
}

TEST_F(SparkDriverTest, MissingInputFailsCleanly) {
  lang::ProgramBuilder pb;
  pb.Assign("a", lang::ReadFile(lang::LitString("missing")));
  pb.WriteFile(lang::Var("a"), lang::LitString("out"));
  auto stats = RunProgram(pb.Build());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(SparkDriverTest, DriverLoopGuard) {
  options_.max_driver_iterations = 10;
  lang::ProgramBuilder pb;
  pb.Assign("i", lang::LitInt(0));
  pb.While(lang::LitBool(true), [&] {
    pb.Assign("i", lang::Add(lang::Var("i"), lang::LitInt(1)));
  });
  auto stats = RunProgram(pb.Build());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace mitos::baselines
