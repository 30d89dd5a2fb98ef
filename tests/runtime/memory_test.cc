// The discard rule (Sec. 5.2.4) in action: with it, the runtime's buffered
// memory stays bounded regardless of the iteration count; without it,
// spent bags accumulate forever.
#include <gtest/gtest.h>

#include "run_on_des.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::runtime {
namespace {

RunStats RunVisitCount(int days, bool discard) {
  sim::SimFileSystem fs;
  workloads::GenerateVisitLogs(&fs, {.days = days, .entries_per_day = 400,
                                     .num_pages = 50});
  lang::Program program = workloads::VisitCountProgram({.days = days});
  ExecutorOptions options;
  options.discard_spent_bags = discard;
  auto stats = RunOnDes(program, &fs, 3, options);
  MITOS_CHECK(stats.ok()) << stats.status().ToString();
  return *stats;
}

TEST(MemoryTest, DiscardRuleBoundsBufferedMemory) {
  RunStats short_run = RunVisitCount(4, /*discard=*/true);
  RunStats long_run = RunVisitCount(24, /*discard=*/true);
  ASSERT_GT(short_run.peak_buffered_bytes, 0);
  // 6x the steps must not mean 6x the memory: steady-state peak is bounded
  // by a few in-flight steps, not the loop length.
  EXPECT_LT(long_run.peak_buffered_bytes,
            short_run.peak_buffered_bytes * 3);
}

TEST(MemoryTest, WithoutDiscardMemoryGrowsWithIterationCount) {
  RunStats short_run = RunVisitCount(4, /*discard=*/false);
  RunStats long_run = RunVisitCount(24, /*discard=*/false);
  // Spent bags accumulate: 6x the steps is roughly 6x the buffered data.
  EXPECT_GT(long_run.peak_buffered_bytes,
            short_run.peak_buffered_bytes * 3);
}

TEST(MemoryTest, DiscardDoesNotChangeResults) {
  sim::SimFileSystem fs_a, fs_b;
  workloads::GenerateVisitLogs(&fs_a, {.days = 6, .entries_per_day = 300,
                                       .num_pages = 30});
  workloads::GenerateVisitLogs(&fs_b, {.days = 6, .entries_per_day = 300,
                                       .num_pages = 30});
  lang::Program program = workloads::VisitCountProgram({.days = 6});
  for (bool discard : {true, false}) {
    sim::SimFileSystem* fs = discard ? &fs_a : &fs_b;
    ExecutorOptions options;
    options.discard_spent_bags = discard;
    auto stats = RunOnDes(program, fs, 3, options);
    ASSERT_TRUE(stats.ok());
  }
  for (const std::string& name : fs_a.ListFiles()) {
    EXPECT_EQ(*fs_a.Read(name), *fs_b.Read(name)) << name;
  }
}

TEST(MemoryTest, HoistingKeepsInvariantBagCachedButBounded) {
  sim::SimFileSystem fs;
  workloads::GenerateVisitLogs(&fs, {.days = 10, .entries_per_day = 200,
                                     .num_pages = 500});
  workloads::GeneratePageTypes(&fs, {.num_pages = 500, .num_types = 2});
  lang::Program program = workloads::VisitCountProgram(
      {.days = 10, .with_diffs = false, .with_page_types = true});
  auto stats = RunOnDes(program, &fs, 2);
  ASSERT_TRUE(stats.ok());
  // The invariant dataset (~500 pairs * 20 B = ~10 KB) is cached once at
  // the join; total peak stays within a small multiple of the inputs.
  EXPECT_GT(stats->peak_buffered_bytes, 5'000);
  EXPECT_LT(stats->peak_buffered_bytes, 2'000'000);
}

}  // namespace
}  // namespace mitos::runtime
