// Allocation budget of the control step: the Fig. 7 loop
// (StepOverheadProgram) must coordinate a step with a small, constant
// number of heap allocations on both backends. The marginal cost per step
// is measured as (allocs(300 steps) - allocs(100 steps)) / 200, so compile,
// executor set-up and thread start-up cancel out.
//
// A separate executable: it replaces the global operator new with a
// counter, which must not leak into the main test binary. Skipped under
// ASan/TSan, whose allocators (and instrumentation) change the counts.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "workloads/programs.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MITOS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MITOS_SANITIZED 1
#endif
#endif

namespace {

std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocNoThrow(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mitos::api {
namespace {

constexpr int kMachines = 3;
constexpr double kDesBudget = 20;
constexpr double kThreadsBudget = 25;

// Heap allocations of one StepOverheadProgram(steps) job.
int64_t AllocsFor(int steps, BackendKind backend) {
  const lang::Program program = workloads::StepOverheadProgram(steps);
  sim::SimFileSystem fs;
  RunConfig config{.machines = kMachines};
  config.backend = backend;
  const int64_t before = g_allocs.load();
  auto result = Run(EngineKind::kMitos, program, &fs, config);
  const int64_t after = g_allocs.load();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return after - before;
}

double AllocsPerStep(BackendKind backend) {
  AllocsFor(20, backend);  // warm-up: lazy statics, logging, thread pools
  const int64_t short_run = AllocsFor(100, backend);
  const int64_t long_run = AllocsFor(300, backend);
  return static_cast<double>(long_run - short_run) / 200.0;
}

TEST(AllocBudgetTest, DesStep) {
#ifdef MITOS_SANITIZED
  GTEST_SKIP() << "allocation counts differ under sanitizers";
#endif
  const double per_step = AllocsPerStep(BackendKind::kDes);
  std::printf("des: %.2f allocations per step\n", per_step);
  EXPECT_LE(per_step, kDesBudget);
}

TEST(AllocBudgetTest, ThreadsStep) {
#ifdef MITOS_SANITIZED
  GTEST_SKIP() << "allocation counts differ under sanitizers";
#endif
  const double per_step = AllocsPerStep(BackendKind::kThreads);
  std::printf("threads: %.2f allocations per step\n", per_step);
  EXPECT_LE(per_step, kThreadsBudget);
}

}  // namespace
}  // namespace mitos::api
