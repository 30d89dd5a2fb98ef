// ThreadsBackend driven directly: the per-(src,dst) FIFO guarantee across
// the owner-local and shared queues, quiescence with self-post chains and
// work-posting idle callbacks, wake-ups that must never be lost whether
// workers spin or park, destruction right after a run, the usable-CPU
// count behind the spin gate, and the per-machine ClusterMetrics tallies.
#include "runtime/threads_backend.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "backend_diff.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::runtime {
namespace {

sim::ClusterConfig Machines(int n) {
  sim::ClusterConfig config;
  config.num_machines = n;
  return config;
}

// Every machine runs bursts of sends to pseudo-randomly chosen machines
// (itself included, so self-sends ride the local queue while the other
// sources' sends to the same machine ride its shared queue), and
// self-schedules each next burst through ExecCpu. Each message carries its
// per-(src,dst) sequence number; every destination must see 0, 1, 2, ...
// from every source.
TEST(ThreadsBackendTest, PerPairFifoAcrossLocalAndSharedQueues) {
  constexpr int kMachines = 4;
  constexpr int kRounds = 50;
  constexpr int kBurst = 50;  // 4 x 50 x 50 = 10,000 sends
  ThreadsBackend backend(Machines(kMachines));
  // sent[src][dst]: written on src's worker; received[dst][src]: on dst's.
  std::array<std::array<int, kMachines>, kMachines> sent{};
  std::array<std::array<std::vector<int>, kMachines>, kMachines> received;
  std::function<void(int, int, uint32_t)> burst = [&](int src, int round,
                                                      uint32_t rng) {
    for (int i = 0; i < kBurst; ++i) {
      rng = rng * 1664525u + 1013904223u;
      const int dst = static_cast<int>((rng >> 16) % kMachines);
      const int seq = sent[src][dst]++;
      backend.Send(src, dst, 8, [&received, src, dst, seq] {
        received[dst][src].push_back(seq);
      });
    }
    if (round + 1 < kRounds) {
      backend.ExecCpu(src, 0, [&burst, src, round, rng] {
        burst(src, round + 1, rng);
      });
    }
  };
  for (int m = 0; m < kMachines; ++m) {
    backend.ExecCpu(m, 0, [&burst, m] {
      burst(m, 0, static_cast<uint32_t>(m) * 2654435761u + 1);
    });
  }
  backend.Run();

  int total = 0;
  for (int src = 0; src < kMachines; ++src) {
    for (int dst = 0; dst < kMachines; ++dst) {
      const std::vector<int>& got = received[dst][src];
      ASSERT_EQ(static_cast<int>(got.size()), sent[src][dst])
          << src << "->" << dst;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<int>(i)) << src << "->" << dst;
      }
      total += static_cast<int>(got.size());
    }
  }
  EXPECT_EQ(total, kMachines * kRounds * kBurst);
}

// Run() reaches quiescence only when every self-post chain has run to its
// end, and runs idle callbacks one at a time: each sees exactly the work
// of all earlier rounds, including the round the previous callback posted.
TEST(ThreadsBackendTest, QuiescenceCoversSelfPostChainsAndIdlePosts) {
  constexpr int kMachines = 3;
  constexpr int kDepth = 2000;
  constexpr int kRounds = 4;
  constexpr int64_t kPerRound = kMachines * (kDepth + 1);
  ThreadsBackend backend(Machines(kMachines));
  std::atomic<int64_t> done{0};
  std::function<void(int, int)> chain = [&](int m, int left) {
    done.fetch_add(1, std::memory_order_relaxed);
    if (left > 0) {
      backend.ExecCpu(m, 0, [&chain, m, left] { chain(m, left - 1); });
    }
  };
  auto post_round = [&] {
    for (int m = 0; m < kMachines; ++m) {
      backend.ExecCpu(m, 0, [&chain, m] { chain(m, kDepth); });
    }
  };
  // Driver-only state: idle callbacks run on the Run() caller's thread.
  int rounds_posted = 1;
  std::vector<int64_t> seen;
  std::function<void()> on_idle = [&] {
    seen.push_back(done.load(std::memory_order_relaxed));
    if (rounds_posted < kRounds) {
      post_round();
      ++rounds_posted;
      backend.ScheduleWhenIdle(on_idle);
    }
  };
  post_round();
  backend.ScheduleWhenIdle(on_idle);
  // Queued behind on_idle: must wait for the round on_idle posts.
  backend.ScheduleWhenIdle(
      [&] { seen.push_back(done.load(std::memory_order_relaxed)); });
  backend.Run();

  EXPECT_EQ(done.load(), kRounds * kPerRound);
  const std::vector<int64_t> want = {kPerRound, 2 * kPerRound, 2 * kPerRound,
                                     3 * kPerRound, 4 * kPerRound};
  EXPECT_EQ(seen, want);
}

// A token passed around a ring hops machines on every step, so each hop
// needs the receiver awake: with 2 machines the workers spin between
// hops; with 16, more than most hosts have cores, they park at once. A
// lost wake-up hangs the run.
TEST(ThreadsBackendTest, TokenRingNeverLosesAWakeup) {
  for (int machines : {2, 16}) {
    constexpr int kHops = 20000;
    ThreadsBackend backend(Machines(machines));
    int hops = 0;  // handed from worker to worker along the token
    std::function<void(int)> pass = [&](int at) {
      if (++hops == kHops) return;
      const int next = (at + 1) % machines;
      backend.Send(at, next, 16, [&pass, next] { pass(next); });
    };
    backend.ExecCpu(0, 0, [&pass] { pass(0); });
    backend.Run();
    EXPECT_EQ(hops, kHops) << machines;
  }
}

// Destroying the backend right after Run() returns finds the workers in
// their spin window (or parked, when oversubscribed); the destructor must
// stop and join them promptly either way.
TEST(ThreadsBackendTest, DestroyWhileWorkersSpin) {
  double slowest = 0;
  for (int i = 0; i < 200; ++i) {
    std::atomic<int> ran{0};
    auto backend = std::make_unique<ThreadsBackend>(Machines(2));
    backend->ExecCpu(0, 0, [&] {
      ran.fetch_add(1);
      backend->Send(0, 1, 8, [&ran] { ran.fetch_add(1); });
    });
    backend->Run();
    EXPECT_EQ(ran.load(), 2);
    const auto t0 = std::chrono::steady_clock::now();
    backend.reset();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    slowest = std::max(slowest, took.count());
  }
  EXPECT_LT(slowest, 1.0);
}

// The spin gate counts the CPUs this process may run on, not the host's:
// pinned to one CPU (as under `taskset -c 0`), the count is 1.
TEST(ThreadsBackendTest, UsableCpusCountsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned pinned = UsableCpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(UsableCpus(), static_cast<unsigned>(CPU_COUNT(&saved)));
}

// More workers than this host has cores (on any host under 16 cores): the
// park-at-once path must still produce exactly the DES's results.
TEST(ThreadsBackendTest, OversubscribedSixteenMachinesMatchesDes) {
  sim::SimFileSystem none;
  api::ExpectBackendsAgree(api::EngineKind::kMitos,
                           workloads::StepOverheadProgram(40), none, 16);
  sim::SimFileSystem visits;
  workloads::GenerateVisitLogs(&visits, {.days = 4, .entries_per_day = 600,
                                         .num_pages = 40});
  api::ExpectBackendsAgree(api::EngineKind::kMitos,
                           workloads::VisitCountProgram({.days = 4}), visits,
                           16);
}

// The per-machine tallies sum to the cluster accounting rule: src == dst
// bytes are local; every other send is one message of network bytes; disk
// bytes count unless the dataset is in memory. Sends come from the workers
// and from the driver at quiescence.
TEST(ThreadsBackendTest, MetricsSnapshotSumsPerMachineTallies) {
  constexpr int kMachines = 3;
  ThreadsBackend backend(Machines(kMachines));
  sim::ClusterMetrics want;
  for (int src = 0; src < kMachines; ++src) {
    for (int dst = 0; dst < kMachines; ++dst) {
      for (int k = 0; k < 10; ++k) {
        const int64_t bytes = 100 * src + 10 * dst + k;
        if (src == dst) {
          want.local_bytes += bytes;
        } else {
          ++want.messages;
          want.network_bytes += bytes;
        }
      }
    }
  }
  want.local_bytes += 7;
  ++want.messages;
  want.network_bytes += 11;
  want.disk_bytes = kMachines * (1000 + 300);

  for (int src = 0; src < kMachines; ++src) {
    backend.ExecCpu(src, 0, [&backend, src] {
      for (int dst = 0; dst < kMachines; ++dst) {
        for (int k = 0; k < 10; ++k) {
          backend.Send(src, dst,
                       static_cast<size_t>(100 * src + 10 * dst + k), [] {});
        }
      }
      backend.DiskIo(src, 1000, [] {});
      backend.DiskIo(src, 500, [] {}, /*memory=*/true);
      backend.DiskRead(src, 300, 3, [](int) {});
    });
  }
  backend.ScheduleWhenIdle([&backend] {
    backend.Send(1, 1, 7, [] {});
    backend.Send(2, 0, 11, [] {});
  });
  backend.Run();

  const sim::ClusterMetrics got = backend.MetricsSnapshot();
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.network_bytes, want.network_bytes);
  EXPECT_EQ(got.local_bytes, want.local_bytes);
  EXPECT_EQ(got.disk_bytes, want.disk_bytes);
  EXPECT_GT(got.cpu_seconds, 0);
}

}  // namespace
}  // namespace mitos::runtime
