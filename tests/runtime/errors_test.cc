// Failure injection: runtime error paths must fail with a descriptive
// Status and a drained simulation — never a hang or a crash.
#include <gtest/gtest.h>

#include "lang/builder.h"
#include "run_on_des.h"
#include "workloads/generators.h"

namespace mitos::runtime {
namespace {

StatusOr<RunStats> RunMitos(const lang::Program& program,
                            sim::SimFileSystem* fs, int machines = 3) {
  return RunOnDes(program, fs, machines);
}

TEST(RuntimeErrorsTest, MissingFileInsideLoopReportsNotFound) {
  sim::SimFileSystem fs;
  fs.Write("in1", {Datum::Int64(1)});
  // in2 missing: day 2 fails.
  lang::ProgramBuilder pb;
  pb.Assign("day", lang::LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("d", lang::ReadFile(lang::Concat(lang::LitString("in"),
                                                   lang::Var("day"))));
        pb.WriteFile(lang::Var("d"),
                     lang::Concat(lang::LitString("out"), lang::Var("day")));
        pb.Assign("day", lang::Add(lang::Var("day"), lang::LitInt(1)));
      },
      lang::Le(lang::Var("day"), lang::LitInt(3)));
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
  EXPECT_NE(stats.status().message().find("in2"), std::string::npos);
}

TEST(RuntimeErrorsTest, MultiElementConditionBagFails) {
  // A user bag condition must hold exactly one element at decision time.
  lang::ProgramBuilder pb;
  pb.Assign("flags", lang::BagLit({Datum::Bool(true), Datum::Bool(false)}));
  pb.While(lang::Var("flags"), [&] {
    pb.Assign("flags", lang::Map(lang::Var("flags"), lang::fns::Identity()));
  });
  sim::SimFileSystem fs;
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("one-element"),
            std::string::npos);
}

TEST(RuntimeErrorsTest, NonBooleanConditionFails) {
  lang::ProgramBuilder pb;
  pb.Assign("n", lang::BagLit({Datum::Int64(7)}));
  pb.While(lang::Var("n"), [&] {
    pb.Assign("n", lang::Map(lang::Var("n"), lang::fns::AddInt64(-1)));
  });
  sim::SimFileSystem fs;
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuntimeErrorsTest, NonStringFilenameFails) {
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.Assign("name", lang::BagLit({Datum::Int64(42)}));  // not a string
  pb.WriteFile(lang::Var("b"), lang::Var("name"));
  sim::SimFileSystem fs;
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuntimeErrorsTest, MultiElementFilenameBagFails) {
  lang::ProgramBuilder pb;
  pb.Assign("b", lang::BagLit({Datum::Int64(1)}));
  pb.Assign("names", lang::BagLit({Datum::String("a"), Datum::String("b")}));
  pb.WriteFile(lang::Var("b"), lang::Var("names"));
  sim::SimFileSystem fs;
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuntimeErrorsTest, MultiElementReadFilenameFails) {
  sim::SimFileSystem fs;
  fs.Write("f", {Datum::Int64(1)});
  lang::ProgramBuilder pb;
  pb.Assign("names", lang::BagLit({Datum::String("f"), Datum::String("f")}));
  pb.Assign("d", lang::ReadFile(lang::ScalarFromBag(lang::Var("names"))));
  pb.WriteFile(lang::Var("d"), lang::LitString("out"));
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
}

TEST(RuntimeErrorsTest, FailureDoesNotCorruptLaterRuns) {
  // After a failed job, a fresh executor on the same cluster-less setup
  // succeeds (no global state).
  sim::SimFileSystem fs;
  lang::ProgramBuilder bad;
  bad.Assign("d", lang::ReadFile(lang::LitString("missing")));
  bad.WriteFile(lang::Var("d"), lang::LitString("out"));
  auto failed = RunMitos(bad.Build(), &fs);
  ASSERT_FALSE(failed.ok());

  fs.Write("present", {Datum::Int64(5)});
  lang::ProgramBuilder good;
  good.Assign("d", lang::ReadFile(lang::LitString("present")));
  good.WriteFile(lang::Var("d"), lang::LitString("out"));
  auto ok = RunMitos(good.Build(), &fs);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*fs.Read("out"))[0].int64(), 5);
}

TEST(RuntimeErrorsTest, TypeErrorsAreCaughtBeforeExecution) {
  // Compile-time rejection: no simulation happens for ill-typed programs.
  lang::ProgramBuilder pb;
  pb.Assign("x", lang::LitInt(1));
  pb.Assign("y", lang::Map(lang::Var("x"), lang::fns::Identity()));
  sim::SimFileSystem fs;
  auto stats = RunMitos(pb.Build(), &fs);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mitos::runtime
