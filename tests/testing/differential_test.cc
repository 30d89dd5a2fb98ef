// Tests for the cross-engine differential harness (testing/differential.h):
// agreement on generated programs, verdict classification, and — via the
// tamper hook — proof that the harness actually detects injected
// divergences in plain, reordered, rerun, and faulted outputs.
#include "testing/differential.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "lang/parser.h"
#include "testing/generator.h"

namespace mitos::testing {
namespace {

lang::Program MustParse(const std::string& source) {
  auto program = lang::Parse(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return *program;
}

TEST(DifferentialTest, GeneratedProgramsAgreeAcrossTheMatrix) {
  // Runs per case, from the matrix itself: the reference, one run per
  // variant, a rerun per run_twice variant, and one replay per fault plan
  // per fault_replay variant.
  int reruns = 0;
  int fault_replayers = 0;
  for (const EngineVariant& v : DefaultMatrix()) {
    reruns += v.run_twice ? 1 : 0;
    fault_replayers += v.fault_replay ? 1 : 0;
  }
  const int variants = static_cast<int>(DefaultMatrix().size());
  GeneratorOptions gen_options;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    gen_options.seed = seed;
    GeneratedCase generated = GenerateCase(gen_options);
    DiffOptions options;
    options.fault_plans = generated.fault_plans;
    DiffReport report = RunDifferential(generated.program, options);
    EXPECT_EQ(report.verdict, Verdict::kOk)
        << "seed " << seed << ": " << report.ToString() << "\n"
        << generated.source;
    const int fault_plans = static_cast<int>(generated.fault_plans.size());
    EXPECT_EQ(report.runs,
              1 + variants + reruns + fault_replayers * fault_plans);
  }
}

TEST(DifferentialTest, TamperedOutputIsAMismatch) {
  lang::Program program = MustParse(R"(
    b = bagOf(1, 2, 3);
    write(b.map(addInt64(1)), "o0");
  )");
  DiffOptions options;
  options.tamper = [](const std::string& label, sim::SimFileSystem* fs) {
    if (label != "spark@3") return;
    DatumVector data = *fs->Read("o0");
    data.push_back(Datum::Int64(99));
    fs->Write("o0", data);
  };
  DiffReport report = RunDifferential(program, options);
  ASSERT_EQ(report.verdict, Verdict::kMismatch) << report.ToString();
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_EQ(report.mismatches[0].label, "spark@3");
  EXPECT_EQ(report.mismatches[0].file, "o0");
  EXPECT_NE(report.mismatches[0].detail.find("extra 1"), std::string::npos)
      << report.mismatches[0].detail;
}

TEST(DifferentialTest, TamperedElementOrderTripsOnlyExactChecks) {
  // Reordering elements is legal for the multiset cross-engine check but
  // must trip the byte-identical rerun check.
  lang::Program program = MustParse(R"(
    b = bagOf(5, 1, 4, 2);
    write(b, "o0");
  )");
  DiffOptions options;
  int tampered = 0;
  options.tamper = [&](const std::string& label, sim::SimFileSystem* fs) {
    if (label != "mitos-threads@3" || tampered++ > 0) return;
    // Only the first (baseline) run is reordered; the rerun is pristine.
    DatumVector data = *fs->Read("o0");
    std::reverse(data.begin(), data.end());
    fs->Write("o0", data);
  };
  DiffReport report = RunDifferential(program, options);
  ASSERT_EQ(report.verdict, Verdict::kMismatch) << report.ToString();
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_EQ(report.mismatches[0].label, "mitos-threads@3:rerun");
  EXPECT_NE(report.mismatches[0].detail.find("different order"),
            std::string::npos)
      << report.mismatches[0].detail;
}

TEST(DifferentialTest, ReferenceFailureIsInfraError) {
  // readFile of a missing file fails on every engine, reference included:
  // the program (not an engine) is broken, so the verdict is infra.
  lang::Program program = MustParse(R"(
    b = readFile("no_such_input");
    write(b, "o0");
  )");
  DiffReport report = RunDifferential(program, {});
  EXPECT_EQ(report.verdict, Verdict::kInfraError) << report.ToString();
  EXPECT_EQ(report.infra_context, "reference run");
  EXPECT_FALSE(report.infra_status.ok());
}

TEST(DifferentialTest, FilterMatrixSelectsBySubstring) {
  auto all = DefaultMatrix();
  EXPECT_EQ(FilterMatrix(all, "").size(), all.size());
  auto mitos_only = FilterMatrix(all, "mitos-des");
  ASSERT_EQ(mitos_only.size(), 3u);  // @3, @1, boxed@3
  for (const auto& v : mitos_only) {
    EXPECT_NE(v.label.find("mitos-des"), std::string::npos);
  }
  auto two = FilterMatrix(all, "flink,spark");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_TRUE(FilterMatrix(all, "zzz").empty());
}

TEST(DifferentialTest, FaultReplayRunsPerPlan) {
  lang::Program program = MustParse(R"(
    b = bagOf((1, 10), (2, 20), (1, 30));
    r = b.reduceByKey(sumInt64);
    write(r, "o0");
  )");
  DiffOptions options;
  options.variants = FilterMatrix(DefaultMatrix(), "mitos-des@3");
  ASSERT_EQ(options.variants.size(), 1u);
  auto plan = sim::FaultPlan::Parse("crash=1@0.2+0.3; ckpt=1");
  ASSERT_TRUE(plan.ok());
  options.fault_plans = {*plan, *plan};
  DiffReport report = RunDifferential(program, options);
  EXPECT_EQ(report.verdict, Verdict::kOk) << report.ToString();
  // reference + base + rerun + two fault replays.
  EXPECT_EQ(report.runs, 5);
}

}  // namespace
}  // namespace mitos::testing
