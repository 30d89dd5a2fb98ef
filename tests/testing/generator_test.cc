// Tests for the seeded program generator (testing/generator.h): determinism
// (including cross-platform golden hashes of the seed -> source mapping),
// parser round-tripping, termination, and size bounds.
#include "testing/generator.h"

#include <set>

#include "api/engine.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "sim/filesystem.h"

namespace mitos::testing {
namespace {

// FNV-1a over the source text: stable across platforms, so these goldens
// pin the full seed -> program mapping (any change to the generator, the
// Rng, or ToSource shows up here first — bump deliberately).
uint64_t SourceHash(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(GeneratorTest, SameSeedSameProgram) {
  GeneratorOptions options;
  options.seed = 42;
  GeneratedCase a = GenerateCase(options);
  GeneratedCase b = GenerateCase(options);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.fault_specs, b.fault_specs);
  EXPECT_EQ(a.op_histogram, b.op_histogram);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions options;
  options.seed = 1;
  GeneratedCase a = GenerateCase(options);
  options.seed = 2;
  GeneratedCase b = GenerateCase(options);
  EXPECT_NE(a.source, b.source);
}

TEST(GeneratorTest, RoundTripsThroughParser) {
  GeneratorOptions options;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    options.seed = seed;
    GeneratedCase generated = GenerateCase(options);
    auto reparsed = lang::Parse(generated.source);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status().ToString() << "\n"
        << generated.source;
    // Printing the reparsed program reproduces the source exactly — the
    // fixpoint that makes repro files authoritative.
    EXPECT_EQ(lang::ToSource(*reparsed), generated.source)
        << "seed " << seed;
  }
  // Deep/wide configs reach rarer vocabulary (e.g. the join→absDiff arm,
  // whose parser spelling once diverged from its factory's) — the whole
  // op surface must stay within the builtin table.
  GeneratorOptions deep;
  deep.max_depth = 6;
  deep.budget = 26;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    deep.seed = CaseSeed(seed, 17);
    GeneratedCase generated = GenerateCase(deep);
    auto reparsed = lang::Parse(generated.source);
    ASSERT_TRUE(reparsed.ok())
        << "deep seed " << deep.seed << ": " << reparsed.status().ToString()
        << "\n"
        << generated.source;
    EXPECT_EQ(lang::ToSource(*reparsed), generated.source)
        << "deep seed " << deep.seed;
  }
}

TEST(GeneratorTest, EveryProgramTerminatesOnTheReference) {
  GeneratorOptions options;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    options.seed = seed;
    GeneratedCase generated = GenerateCase(options);
    sim::SimFileSystem fs;
    auto run =
        api::Run(api::EngineKind::kReference, generated.program, &fs, {});
    EXPECT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.status().ToString() << "\n"
                          << generated.source;
  }
}

TEST(GeneratorTest, CaseSeedIsInjectiveOverSmallRuns) {
  std::set<uint64_t> seen;
  for (int base = 1; base <= 5; ++base) {
    for (int i = 0; i < 200; ++i) {
      seen.insert(CaseSeed(static_cast<uint64_t>(base), i));
    }
  }
  EXPECT_EQ(seen.size(), 5u * 200u);
}

TEST(GeneratorTest, CaseSeedIndependentOfCount) {
  // Case i's seed must not depend on how many cases the run asks for.
  EXPECT_EQ(CaseSeed(7, 3), CaseSeed(7, 3));
  EXPECT_NE(CaseSeed(7, 3), CaseSeed(7, 4));
  EXPECT_NE(CaseSeed(7, 3), CaseSeed(8, 3));
}

TEST(GeneratorTest, FaultPlansAreRoundTrippedSpecs) {
  GeneratorOptions options;
  options.seed = 9;
  options.fault_plans = 3;
  GeneratedCase generated = GenerateCase(options);
  ASSERT_EQ(generated.fault_plans.size(), 3u);
  ASSERT_EQ(generated.fault_specs.size(), 3u);
  for (size_t i = 0; i < generated.fault_specs.size(); ++i) {
    auto plan = sim::FaultPlan::Parse(generated.fault_specs[i]);
    ASSERT_TRUE(plan.ok()) << generated.fault_specs[i];
    EXPECT_EQ(plan->ToString(), generated.fault_plans[i].ToString());
    // Workers only: machine 0 hosts the coordinator.
    for (const auto& crash : plan->crashes) {
      EXPECT_GE(crash.machine, 1);
      EXPECT_LT(crash.machine, options.machines);
    }
  }
}

TEST(GeneratorTest, BudgetBoundsProgramSize) {
  GeneratorOptions options;
  options.budget = 4;
  options.max_depth = 1;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    options.seed = seed;
    GeneratedCase small = GenerateCase(options);
    // Budget + seed bags + conversions + writes + loop scaffolding stays
    // well under a small multiple of the budget.
    EXPECT_LE(small.source.size(), 4096u) << small.source;
  }
}

// Golden hashes: the platform-independence contract. If this test fails
// after an intentional generator change, re-pin with the values from the
// failure message; if it fails on only one platform, the generator or Rng
// has platform-dependent behavior — a real bug.
TEST(GeneratorTest, GoldenSourceHashes) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
  };
  const Golden kGoldens[] = {
      {1, 0x45e1064e9bdebaa4ULL},
      {2, 0xab42f7361dd34f1cULL},
      {3, 0xc903c2fc4a1354f3ULL},
  };
  GeneratorOptions options;
  for (const Golden& golden : kGoldens) {
    options.seed = golden.seed;
    GeneratedCase generated = GenerateCase(options);
    // Failure output is copy-pasteable for deliberate re-pinning.
    EXPECT_EQ(SourceHash(generated.source), golden.hash)
        << "seed " << golden.seed << ": re-pin with {" << golden.seed
        << ", 0x" << std::hex << SourceHash(generated.source)
        << "ULL},\nsource:\n"
        << generated.source;
  }
}

}  // namespace
}  // namespace mitos::testing
