// Pins the DES schedule of a few small jobs to recorded constants: the run
// statistics (virtual time bit for bit, bags, chunks, cluster traffic) and
// an FNV-1a hash of the virtual-time Chrome trace. The DES is the oracle
// every other check leans on, so a refactor of the host, path or backend
// layers must leave these exactly unchanged. A deliberate schedule change
// re-records them (the failure message prints the new values).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::api {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Everything pinned for one run.
struct Pin {
  uint64_t total_seconds_bits;
  int64_t bags;
  int64_t chunks;
  int64_t messages;
  int64_t network_bytes;
  uint64_t trace_hash;
};

Pin Measure(const lang::Program& program, sim::SimFileSystem* fs,
            RunConfig config, runtime::RunStats* stats_out = nullptr) {
  obs::TraceRecorder trace;
  config.trace = &trace;
  auto result = Run(EngineKind::kMitos, program, fs, config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  const runtime::RunStats& stats = result->stats;
  if (stats_out != nullptr) *stats_out = stats;
  return Pin{BitsOf(stats.total_seconds), stats.bags,
             stats.chunks,                stats.cluster.messages,
             stats.cluster.network_bytes, Fnv1a(trace.ToJson())};
}

void ExpectPinned(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.total_seconds_bits, want.total_seconds_bits);
  EXPECT_EQ(got.bags, want.bags);
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.network_bytes, want.network_bytes);
  EXPECT_EQ(got.trace_hash, want.trace_hash);
  if (::testing::Test::HasFailure()) {
    std::printf("measured: {0x%016llxULL, %lld, %lld, %lld, %lld, "
                "0x%016llxULL}\n",
                static_cast<unsigned long long>(got.total_seconds_bits),
                static_cast<long long>(got.bags),
                static_cast<long long>(got.chunks),
                static_cast<long long>(got.messages),
                static_cast<long long>(got.network_bytes),
                static_cast<unsigned long long>(got.trace_hash));
  }
}

TEST(SchedulePinTest, StepOverheadWithoutTemplates) {
  sim::SimFileSystem fs;
  RunConfig config{.machines = 3};
  ExpectPinned(Measure(workloads::StepOverheadProgram(50), &fs, config),
               {0x3fd45fdd65dfb97bULL,
                257, 256, 614, 40628, 0x4f38c448bb517346ULL});
}

TEST(SchedulePinTest, VisitCountWithPageTypes) {
  sim::SimFileSystem fs;
  workloads::GenerateVisitLogs(
      &fs, {.days = 6, .entries_per_day = 400, .num_pages = 60});
  workloads::GeneratePageTypes(&fs, {.num_pages = 60, .num_types = 3});
  ExpectPinned(
      Measure(workloads::VisitCountProgram(
                  {.days = 6, .with_page_types = true}),
              &fs, {.machines = 3}),
      {0x3fcd6a55c2e68318ULL, 252, 429, 325, 54471, 0x3a4a3ca1836d15b4ULL});
}

TEST(SchedulePinTest, PageRank) {
  sim::SimFileSystem fs;
  workloads::GenerateGraph(&fs, {.num_vertices = 80, .num_edges = 500});
  ExpectPinned(Measure(workloads::PageRankProgram(
                           {.iterations = 4, .num_vertices = 80}),
                       &fs, {.machines = 3}),
               {0x3fcdc1bc5c649051ULL,
                142, 270, 194, 59621, 0x874f1fa3729c109aULL});
}

TEST(SchedulePinTest, KMeansUnderCrashAndDrop) {
  auto plan = sim::FaultPlan::Parse("crash=1@0.2+0.1; drop=0.02; ckpt=5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  sim::SimFileSystem fs;
  workloads::GeneratePoints(&fs, {.num_points = 120, .num_clusters = 3});
  RunConfig config{.machines = 3};
  config.faults = &*plan;
  runtime::RunStats stats;
  ExpectPinned(Measure(workloads::KMeansProgram({.iterations = 6}), &fs,
                       config, &stats),
               {0x4005657999b2daf4ULL,
                197, 210, 262, 109824, 0xf1b4b2e1c561d5c7ULL});
  // The plan must actually bite: a recovery and at least one lost message.
  EXPECT_GT(stats.attempts, 1);
  EXPECT_GT(stats.cluster.dropped_messages, 0);
}

}  // namespace
}  // namespace mitos::api
