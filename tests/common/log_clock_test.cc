// The log clock is per thread: a run stamps the log lines of the thread
// that drives it, concurrent runs never see (or clear) each other's clock,
// and ThreadsBackend workers stamp theirs with their own backend's clock.
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "common/logging.h"
#include "runtime/threads_backend.h"
#include "workloads/programs.h"

namespace mitos {
namespace {

using internal_logging::AttachLogClock;
using internal_logging::DetachLogClock;
using internal_logging::VirtualNow;

TEST(LogClockTest, AttachIsPerThread) {
  // Both threads attach before either reads: with one process-wide clock
  // the thread that attached first would read the other's.
  std::atomic<int> attached{0};
  double seen[2] = {0, 0};
  bool had[2] = {false, false};
  auto body = [&](int i, double (*clock)(const void*)) {
    AttachLogClock(&seen[i], clock);
    attached.fetch_add(1);
    while (attached.load() < 2) std::this_thread::yield();
    had[i] = VirtualNow(&seen[i]);
    DetachLogClock(&seen[i]);
  };
  std::thread a(body, 0, +[](const void*) { return 1.0; });
  std::thread b(body, 1, +[](const void*) { return 2.0; });
  a.join();
  b.join();
  EXPECT_TRUE(had[0]);
  EXPECT_TRUE(had[1]);
  EXPECT_EQ(seen[0], 1.0);
  EXPECT_EQ(seen[1], 2.0);
  double unused = 0;
  EXPECT_FALSE(VirtualNow(&unused));  // nothing attached on this thread
}

// Two api::Run calls at once, one per backend. Under TSan a process-wide
// clock is a data race between the runs' attach and detach.
TEST(LogClockTest, ConcurrentRunsKeepTheirOwnClocks) {
  const lang::Program program = workloads::StepOverheadProgram(200);
  auto run = [&](api::BackendKind backend, bool* ok) {
    sim::SimFileSystem fs;
    api::RunConfig config{.machines = 2};
    config.backend = backend;
    *ok = api::Run(api::EngineKind::kMitos, program, &fs, config).ok();
  };
  bool des_ok = false;
  bool threads_ok = false;
  std::thread des(run, api::BackendKind::kDes, &des_ok);
  std::thread threads(run, api::BackendKind::kThreads, &threads_ok);
  des.join();
  threads.join();
  EXPECT_TRUE(des_ok);
  EXPECT_TRUE(threads_ok);
  double unused = 0;
  EXPECT_FALSE(VirtualNow(&unused));
}

TEST(LogClockTest, ThreadsWorkersStampWithTheirBackend) {
  sim::ClusterConfig config;
  config.num_machines = 2;
  runtime::ThreadsBackend backend(config);
  bool had = false;
  double stamp = -1;
  backend.ExecCpu(1, 0, [&] { had = VirtualNow(&stamp); });
  backend.Run();
  EXPECT_TRUE(had);
  EXPECT_GE(stamp, 0);
  EXPECT_LE(stamp, backend.now());
}

}  // namespace
}  // namespace mitos
