#include "runtime/path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ir/ssa.h"
#include "lang/builder.h"

namespace mitos::runtime {
namespace {

TEST(ExecutionPathTest, AppendAndQuery) {
  ExecutionPath path;
  EXPECT_EQ(path.size(), 0);
  path.Append(1);
  path.Append(2);
  path.Append(1);
  EXPECT_EQ(path.size(), 3);
  EXPECT_EQ(path.at(0), 1);
  EXPECT_EQ(path.at(2), 1);
  EXPECT_FALSE(path.complete());
  path.MarkComplete();
  EXPECT_TRUE(path.complete());
}

TEST(ExecutionPathTest, LongestPrefixEndingWith) {
  // The paper's Fig. 4a walk: path ABBABBB -> for a bag computed with path
  // length 7, the x-input (block A) chooses the prefix ending at the
  // *latest* A, i.e. length 4 (ABBA).
  ExecutionPath path;
  const ir::BlockId A = 0, B = 1;
  for (ir::BlockId b : {A, B, B, A, B, B, B}) path.Append(b);
  EXPECT_EQ(path.LongestPrefixEndingWith(A, 7), 4);
  EXPECT_EQ(path.LongestPrefixEndingWith(B, 7), 7);
  EXPECT_EQ(path.LongestPrefixEndingWith(B, 4), 3);
  EXPECT_EQ(path.LongestPrefixEndingWith(A, 3), 1);
  EXPECT_EQ(path.LongestPrefixEndingWith(99, 7), 0);  // never occurred
  // max_len caps the search even past the real size.
  EXPECT_EQ(path.LongestPrefixEndingWith(B, 100), 7);
}

// The definition the occurrence index must reproduce: a backwards scan.
int BruteForceLongestPrefix(const std::vector<ir::BlockId>& blocks,
                            ir::BlockId block, int max_len) {
  const int limit = std::min(max_len, static_cast<int>(blocks.size()));
  for (int l = limit; l >= 1; --l) {
    if (blocks[static_cast<size_t>(l - 1)] == block) return l;
  }
  return 0;
}

TEST(ExecutionPathTest, LongestPrefixMatchesBackwardScan) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    ExecutionPath path;
    std::vector<ir::BlockId> blocks;
    // Few blocks, one rare (long gaps), grown across several segments.
    const int alphabet = static_cast<int>(rng.NextInRange(2, 9));
    for (int step = 0; step < 3000; ++step) {
      const ir::BlockId block =
          rng.NextBelow(50) == 0 ? alphabet
                                 : static_cast<ir::BlockId>(
                                       rng.NextBelow(
                                           static_cast<uint64_t>(alphabet)));
      path.Append(block);
      blocks.push_back(block);
      for (int q = 0; q < 3; ++q) {
        const auto probe = static_cast<ir::BlockId>(
            rng.NextInRange(-1, alphabet + 2));
        const int max_len = static_cast<int>(rng.NextInRange(
            -1, static_cast<int64_t>(blocks.size()) + 3));
        ASSERT_EQ(path.LongestPrefixEndingWith(probe, max_len),
                  BruteForceLongestPrefix(blocks, probe, max_len))
            << "seed " << seed << " block " << probe << " max_len "
            << max_len << " size " << blocks.size();
      }
    }
    ASSERT_EQ(path.size(), 3000);
    for (int pos = 0; pos < path.size(); ++pos) {
      ASSERT_EQ(path.at(pos), blocks[static_cast<size_t>(pos)]);
    }
  }
}

TEST(ExecutionPathTest, ConcurrentReadersSeePublishedPrefix) {
  // One writer appends across many segment boundaries while readers query
  // every position below the length they acquired. Run under TSan this
  // checks the single-writer publication rule; the values check that a
  // published position is never read torn or stale.
  constexpr int kLen = 5000;
  constexpr int kBlocks = 5;
  auto block_at = [](int pos) {
    return static_cast<ir::BlockId>((pos * 7 + pos / 13) % kBlocks);
  };
  ExecutionPath path;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 1);
      while (true) {
        const bool complete = path.complete();
        const int len = path.size();
        if (complete && len != kLen) failed = true;
        if (len > 0) {
          const int pos = static_cast<int>(
              rng.NextBelow(static_cast<uint64_t>(len)));
          if (path.at(pos) != block_at(pos)) failed = true;
          // The latest occurrence of a block at or before `pos`.
          const ir::BlockId block = block_at(pos);
          int want = pos + 1;
          if (path.LongestPrefixEndingWith(block, want) != want) {
            failed = true;
          }
          for (int l = len; l >= 1; --l) {
            if (block_at(l - 1) == block) {
              want = l;
              break;
            }
          }
          if (path.LongestPrefixEndingWith(block, len) != want) {
            failed = true;
          }
        }
        if (complete || failed) return;
      }
    });
  }
  for (int pos = 0; pos < kLen; ++pos) {
    path.Append(block_at(pos));
  }
  path.MarkComplete();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(path.size(), kLen);
}

TEST(ControlFlowManagerTest, AdvancesInOrderAndNotifiesOncePerPosition) {
  ExecutionPath path;
  path.Append(5);
  path.Append(6);
  path.Append(7);
  ControlFlowManager cfm(&path);
  std::vector<std::pair<int, ir::BlockId>> seen;
  cfm.AddListener([&](int pos, ir::BlockId b) { seen.emplace_back(pos, b); });
  cfm.AdvanceTo(2, false);
  EXPECT_EQ(cfm.known_len(), 2);
  cfm.AdvanceTo(3, false);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int, ir::BlockId>{0, 5}));
  EXPECT_EQ(seen[2], (std::pair<int, ir::BlockId>{2, 7}));
}

TEST(ControlFlowManagerTest, OutOfOrderDeliveriesAreIdempotent) {
  ExecutionPath path;
  path.Append(1);
  path.Append(2);
  ControlFlowManager cfm(&path);
  int notifications = 0;
  cfm.AddListener([&](int, ir::BlockId) { ++notifications; });
  cfm.AdvanceTo(2, false);
  cfm.AdvanceTo(1, false);  // late, shorter message: no-op
  cfm.AdvanceTo(2, false);  // duplicate: no-op
  EXPECT_EQ(notifications, 2);
}

TEST(ControlFlowManagerTest, ListenerMayReenterAdvanceTo) {
  // Regression: a listener reacting to position p can synchronously learn
  // the next decision (zero intervening simulated work) and call AdvanceTo
  // again. This used to abort on a re-entrancy CHECK; now the nested call
  // queues and the outermost invocation drains it, in order.
  ExecutionPath path;
  path.Append(1);
  path.Append(2);
  path.Append(3);
  ControlFlowManager cfm(&path);
  std::vector<int> seen;
  cfm.AddListener([&](int pos, ir::BlockId) {
    seen.push_back(pos);
    if (pos == 0) cfm.AdvanceTo(3, false);  // nested, from inside a callback
  });
  cfm.AdvanceTo(1, false);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(cfm.known_len(), 3);
}

TEST(ControlFlowManagerTest, ReentrantCompletionDelivers) {
  ExecutionPath path;
  path.Append(1);
  path.Append(2);
  path.MarkComplete();
  ControlFlowManager cfm(&path);
  int completions = 0;
  cfm.AddListener([&](int pos, ir::BlockId) {
    if (pos == 0) cfm.AdvanceTo(2, true);
  });
  cfm.AddCompletionListener([&] { ++completions; });
  cfm.AdvanceTo(1, false);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(cfm.known_complete());
}

TEST(ControlFlowManagerTest, CompletionFiresOnceAtFullLength) {
  ExecutionPath path;
  path.Append(1);
  path.MarkComplete();
  ControlFlowManager cfm(&path);
  int completions = 0;
  cfm.AddCompletionListener([&] { ++completions; });
  cfm.AdvanceTo(1, true);
  cfm.AdvanceTo(1, true);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(cfm.known_complete());
}

// ----- PathAuthority over a real compiled program -----

class PathAuthorityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // do { x = x+1 } while (x < 3): entry -> body(+branch) -> after.
    lang::ProgramBuilder pb;
    pb.Assign("x", lang::LitInt(0));
    pb.DoWhile(
        [&] { pb.Assign("x", lang::Add(lang::Var("x"), lang::LitInt(1))); },
        lang::Lt(lang::Var("x"), lang::LitInt(3)));
    auto ir = ir::CompileToIr(pb.Build());
    MITOS_CHECK(ir.ok());
    program_ = std::make_unique<ir::Program>(std::move(ir).value());

    sim::ClusterConfig config;
    config.num_machines = 3;
    cluster_ = std::make_unique<sim::Cluster>(&sim_, config);
    backend_ = std::make_unique<DesBackend>(&sim_, cluster_.get());
    for (int m = 0; m < 3; ++m) {
      managers_.push_back(std::make_unique<ControlFlowManager>(&path_));
    }
  }

  PathAuthority MakeAuthority(PathAuthority::Options options) {
    std::vector<ControlFlowManager*> ptrs;
    for (auto& m : managers_) ptrs.push_back(m.get());
    return PathAuthority(program_.get(), backend_.get(), &path_, ptrs,
                         options, [this](Status s) { error_ = s; });
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<DesBackend> backend_;
  std::unique_ptr<ir::Program> program_;
  ExecutionPath path_;
  std::vector<std::unique_ptr<ControlFlowManager>> managers_;
  Status error_;
};

TEST_F(PathAuthorityTest, StartAppendsEntryChain) {
  PathAuthority authority = MakeAuthority({});
  authority.Start(0);
  sim_.Run();
  // Entry (block 0) jumps unconditionally into the loop body (block 1):
  // both appear immediately.
  EXPECT_EQ(path_.size(), 2);
  EXPECT_EQ(path_.at(0), 0);
  EXPECT_EQ(path_.at(1), 1);
  // All managers catch up after the broadcast drains.
  for (auto& m : managers_) EXPECT_EQ(m->known_len(), 2);
}

TEST_F(PathAuthorityTest, DecisionsExtendThePath) {
  PathAuthority authority = MakeAuthority({});
  authority.Start(0);
  sim_.Run();
  authority.OnDecision(/*block=*/1, /*at_len=*/2, /*value=*/true, 1);
  sim_.Run();
  EXPECT_EQ(path_.size(), 3);
  EXPECT_EQ(path_.at(2), 1);  // looped back into the body
  authority.OnDecision(1, 3, false, 2);
  sim_.Run();
  EXPECT_TRUE(path_.complete());
  EXPECT_EQ(authority.decisions(), 2);
  for (auto& m : managers_) EXPECT_TRUE(m->known_complete());
}

TEST_F(PathAuthorityTest, RemoteManagersLagByNetworkLatency) {
  PathAuthority authority = MakeAuthority({});
  authority.Start(/*machine=*/1);
  // Before the simulator runs, only the authority's local manager knows.
  EXPECT_EQ(managers_[1]->known_len(), 2);
  EXPECT_EQ(managers_[0]->known_len(), 0);
  EXPECT_EQ(managers_[2]->known_len(), 0);
  sim_.Run();
  EXPECT_EQ(managers_[0]->known_len(), 2);
  EXPECT_GT(sim_.now(), 0.0);  // broadcast took network time
}

TEST_F(PathAuthorityTest, OutOfOrderDecisionFails) {
  PathAuthority authority = MakeAuthority({});
  authority.Start(0);
  sim_.Run();
  authority.OnDecision(1, 5, true, 0);  // path is only 2 long
  EXPECT_FALSE(error_.ok());
}

TEST_F(PathAuthorityTest, MaxPathLenGuard) {
  PathAuthority::Options options;
  options.max_path_len = 3;
  PathAuthority authority = MakeAuthority(options);
  authority.Start(0);
  sim_.Run();
  authority.OnDecision(1, 2, true, 0);
  sim_.Run();
  authority.OnDecision(1, 3, true, 0);  // would exceed 3
  EXPECT_FALSE(error_.ok());
  EXPECT_EQ(error_.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PathAuthorityTest, BarrierModeDefersDecisionBroadcastUntilIdle) {
  PathAuthority::Options options;
  options.pipelining = false;
  PathAuthority authority = MakeAuthority(options);
  authority.Start(0);
  sim_.Run();
  // A decision while other work is still queued: the broadcast must wait
  // for global quiescence (the superstep barrier). The initial Start
  // broadcast, by contrast, is not barriered.
  double decision_seen_at = -1;
  managers_[0]->AddListener([this, &decision_seen_at](int pos, ir::BlockId) {
    if (pos >= 2) decision_seen_at = sim_.now();
  });
  double t0 = sim_.now();
  bool other_ran = false;
  sim_.Schedule(t0 + 0.5, [&] { other_ran = true; });
  authority.OnDecision(1, 2, true, 0);
  sim_.Run();
  EXPECT_TRUE(other_ran);
  EXPECT_GE(decision_seen_at, t0 + 0.5);
}

TEST_F(PathAuthorityTest, DecisionOverheadDelaysBroadcast) {
  PathAuthority::Options options;
  options.decision_overhead = 0.25;
  PathAuthority authority = MakeAuthority(options);
  authority.Start(0);
  sim_.Run();
  double t0 = sim_.now();
  double decision_seen_at = -1;
  managers_[0]->AddListener([this, &decision_seen_at](int pos, ir::BlockId) {
    if (pos >= 2) decision_seen_at = sim_.now();
  });
  authority.OnDecision(1, 2, true, 0);
  sim_.Run();
  EXPECT_GE(decision_seen_at, t0 + 0.25);
}

TEST_F(PathAuthorityTest, DecisionInNonBranchBlockReportsErrorNotAbort) {
  // Regression: a decision arriving for a block whose terminator is not a
  // conditional branch used to hit a MITOS_CHECK (process abort). It is a
  // runtime-reachable inconsistency, so it must surface as a Status.
  PathAuthority authority = MakeAuthority({});
  authority.Start(0);
  sim_.Run();
  // Block 0 is the entry block: its terminator is an unconditional jump.
  authority.OnDecision(/*block=*/0, /*at_len=*/path_.size(), true, 0);
  EXPECT_FALSE(error_.ok());
  EXPECT_EQ(error_.code(), StatusCode::kInternal);
}

TEST_F(PathAuthorityTest, UnackedBroadcastToDeadMachineFailsUnavailable) {
  // With a fault plan active the authority requires acks: a machine that is
  // down for the whole retry window makes the broadcast fail with
  // kUnavailable (the heartbeat/attempt loop above then handles recovery).
  sim::FaultPlan plan;
  plan.crashes.push_back({.machine = 2, .at = 0.0});  // down from t=0 on
  plan.retry_backoff = 0.01;
  plan.max_broadcast_retries = 3;
  cluster_->InstallFaultPlan(&plan);
  PathAuthority::Options options;
  options.faults = &plan;
  PathAuthority authority = MakeAuthority(options);
  authority.Start(0);
  sim_.Run();
  EXPECT_FALSE(error_.ok());
  EXPECT_EQ(error_.code(), StatusCode::kUnavailable);
  // The up machines still learned the path.
  EXPECT_EQ(managers_[0]->known_len(), 2);
  EXPECT_EQ(managers_[1]->known_len(), 2);
  EXPECT_EQ(managers_[2]->known_len(), 0);
}

TEST_F(PathAuthorityTest, AckedBroadcastsDoNotRetryOrError) {
  sim::FaultPlan plan;
  plan.drop_probability = 1e-12;  // non-empty plan, but nothing drops
  plan.retry_backoff = 0.01;
  cluster_->InstallFaultPlan(&plan);
  PathAuthority::Options options;
  options.faults = &plan;
  PathAuthority authority = MakeAuthority(options);
  authority.Start(0);
  sim_.Run();
  EXPECT_TRUE(error_.ok()) << error_.ToString();
  for (auto& m : managers_) EXPECT_EQ(m->known_len(), 2);
}

TEST_F(PathAuthorityTest, InitialBroadcastIsNotBarriered) {
  PathAuthority::Options options;
  options.pipelining = false;
  options.decision_overhead = 10.0;
  PathAuthority authority = MakeAuthority(options);
  authority.Start(0);
  // Local manager knows immediately, without barrier or overhead.
  EXPECT_EQ(managers_[0]->known_len(), 2);
}

}  // namespace
}  // namespace mitos::runtime
