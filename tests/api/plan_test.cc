// Compile once, run many: one immutable runtime::Plan executed repeatedly,
// on both backends and by concurrent jobs, must behave exactly like a fresh
// api::Run each time.
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "dataflow/graph.h"
#include "ir/ir.h"
#include "runtime/threads_backend.h"
#include "testing/generator.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::api {
namespace {

constexpr int kMachines = 3;

struct Outcome {
  runtime::RunStats stats;
  std::map<std::string, DatumVector> files;
};

Outcome Collect(const StatusOr<RunResult>& result,
                const sim::SimFileSystem& fs) {
  MITOS_CHECK(result.ok()) << result.status().ToString();
  Outcome outcome;
  outcome.stats = result->stats;
  for (const std::string& name : fs.ListFiles()) {
    outcome.files[name] = *fs.Read(name);
  }
  return outcome;
}

Outcome ExecuteOnce(const runtime::Plan& plan,
                    const sim::SimFileSystem& inputs,
                    BackendKind backend = BackendKind::kDes) {
  sim::SimFileSystem fs = inputs;
  RunConfig config{.machines = kMachines};
  config.backend = backend;
  return Collect(Execute(EngineKind::kMitos, plan, &fs, config), fs);
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameFiles(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.files.size(), b.files.size());
  for (const auto& [name, data] : a.files) {
    auto it = b.files.find(name);
    ASSERT_TRUE(it != b.files.end()) << name;
    EXPECT_EQ(data, it->second) << name;  // element order included
  }
}

// Every RunStats field, doubles compared bit for bit.
void ExpectBitIdentical(const Outcome& a, const Outcome& b) {
  const runtime::RunStats& x = a.stats;
  const runtime::RunStats& y = b.stats;
  EXPECT_EQ(Bits(x.total_seconds), Bits(y.total_seconds));
  EXPECT_EQ(Bits(x.launch_seconds), Bits(y.launch_seconds));
  EXPECT_EQ(x.jobs, y.jobs);
  EXPECT_EQ(x.decisions, y.decisions);
  EXPECT_EQ(x.bags, y.bags);
  EXPECT_EQ(x.elements, y.elements);
  EXPECT_EQ(x.chunks, y.chunks);
  EXPECT_EQ(x.chunk_fallbacks, y.chunk_fallbacks);
  EXPECT_EQ(x.hoisted_reuses, y.hoisted_reuses);
  EXPECT_EQ(x.peak_buffered_bytes, y.peak_buffered_bytes);
  EXPECT_EQ(x.attempts, y.attempts);
  ASSERT_EQ(x.operator_cpu.size(), y.operator_cpu.size());
  for (const auto& [name, cpu] : x.operator_cpu) {
    auto it = y.operator_cpu.find(name);
    ASSERT_TRUE(it != y.operator_cpu.end()) << name;
    EXPECT_EQ(Bits(cpu), Bits(it->second)) << name;
  }
  EXPECT_EQ(x.cluster.messages, y.cluster.messages);
  EXPECT_EQ(x.cluster.network_bytes, y.cluster.network_bytes);
  EXPECT_EQ(x.cluster.local_bytes, y.cluster.local_bytes);
  EXPECT_EQ(x.cluster.disk_bytes, y.cluster.disk_bytes);
  EXPECT_EQ(Bits(x.cluster.cpu_seconds), Bits(y.cluster.cpu_seconds));
  EXPECT_EQ(x.cluster.dropped_messages, y.cluster.dropped_messages);
  ExpectSameFiles(a, b);
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workloads::GenerateVisitLogs(
        &inputs_, {.days = 4, .entries_per_day = 300, .num_pages = 40});
    program_ = workloads::VisitCountProgram({.days = 4});
  }

  sim::SimFileSystem inputs_;
  lang::Program program_;
};

TEST_F(PlanTest, ReusedPlanMatchesRunExactlyOnTheDes) {
  sim::SimFileSystem fs = inputs_;
  const Outcome fresh = Collect(
      api::Run(EngineKind::kMitos, program_, &fs, {.machines = kMachines}),
      fs);
  StatusOr<runtime::Plan> plan = Compile(program_, {.machines = kMachines});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("execution " + std::to_string(i));
    ExpectBitIdentical(fresh, ExecuteOnce(*plan, inputs_));
  }
}

TEST_F(PlanTest, OnePlanOnBothBackendsGivesIdenticalOutputs) {
  StatusOr<runtime::Plan> plan = Compile(program_, {.machines = kMachines});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const Outcome des = ExecuteOnce(*plan, inputs_);
  const Outcome threads = ExecuteOnce(*plan, inputs_, BackendKind::kThreads);
  EXPECT_EQ(des.stats.decisions, threads.stats.decisions);
  EXPECT_EQ(des.stats.bags, threads.stats.bags);
  ExpectSameFiles(des, threads);
}

TEST_F(PlanTest, MachineCountOtherThanThePlansIsInvalidArgument) {
  StatusOr<runtime::Plan> plan = Compile(program_, {.machines = kMachines});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->machines(), kMachines);
  for (BackendKind backend : {BackendKind::kDes, BackendKind::kThreads}) {
    sim::SimFileSystem fs = inputs_;
    RunConfig config{.machines = kMachines + 1};
    config.backend = backend;
    StatusOr<RunResult> run =
        Execute(EngineKind::kMitos, *plan, &fs, config);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << run.status().ToString();
  }
}

TEST_F(PlanTest, EnginesThatNeedTheSourceRejectAPlan) {
  StatusOr<runtime::Plan> plan = Compile(program_, {.machines = kMachines});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (EngineKind engine : {EngineKind::kReference, EngineKind::kSpark,
                            EngineKind::kFlinkSeparateJobs}) {
    sim::SimFileSystem fs = inputs_;
    StatusOr<RunResult> run =
        Execute(engine, *plan, &fs, {.machines = kMachines});
    ASSERT_FALSE(run.ok()) << EngineKindName(engine);
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
  // The native-iteration baselines run from the same plan, unless strict
  // Flink checking asks for the source.
  sim::SimFileSystem fs = inputs_;
  RunConfig config{.machines = kMachines};
  EXPECT_TRUE(Execute(EngineKind::kFlink, *plan, &fs, config).ok());
  config.flink_strict = true;
  EXPECT_EQ(Execute(EngineKind::kFlink, *plan, &fs, config).status().code(),
            StatusCode::kInvalidArgument);
}

// Every run of a differential case now shares one compile, so the compile
// itself must be a pure function of the program.
TEST_F(PlanTest, CompileIsDeterministic) {
  for (int i = 0; i < 200; ++i) {
    testing::GeneratorOptions options;
    options.seed = testing::CaseSeed(1, i);
    const testing::GeneratedCase generated = testing::GenerateCase(options);
    const RunConfig config{.machines = kMachines};
    StatusOr<runtime::Plan> first = Compile(generated.program, config);
    StatusOr<runtime::Plan> second = Compile(generated.program, config);
    ASSERT_EQ(first.ok(), second.ok()) << generated.source;
    if (!first.ok()) continue;
    EXPECT_EQ(ir::ToString(first->program()),
              ir::ToString(second->program()))
        << generated.source;
    EXPECT_EQ(dataflow::ToString(first->graph()),
              dataflow::ToString(second->graph()))
        << generated.source;
  }
}

// Two threads-backend jobs read one freshly compiled plan at the same time.
// The plan must be immutable: anything filled lazily on first use (as the
// routing table once was) is a data race here, which TSan reports. The jobs
// run through runtime::ExecutePlan: api::Execute attaches the process-wide
// log clock, which is not meant for concurrent runs.
TEST_F(PlanTest, ConcurrentExecutionsShareOnePlan) {
  StatusOr<runtime::Plan> plan = Compile(program_, {.machines = kMachines});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  sim::ClusterConfig cluster;
  cluster.num_machines = kMachines;
  sim::SimFileSystem fs_a = inputs_, fs_b = inputs_;
  StatusOr<runtime::RunStats> run_a = Status::Internal("not run");
  StatusOr<runtime::RunStats> run_b = Status::Internal("not run");
  auto job = [&](sim::SimFileSystem* fs, StatusOr<runtime::RunStats>* out) {
    runtime::ThreadsBackend backend(cluster);
    *out = runtime::ExecutePlan(&backend, fs, *plan, {});
  };
  std::thread a(job, &fs_a, &run_a);
  std::thread b(job, &fs_b, &run_b);
  a.join();
  b.join();
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();
  const Outcome des = ExecuteOnce(*plan, inputs_);
  ExpectSameFiles(des, Collect(RunResult{EngineKind::kMitos, *run_a}, fs_a));
  ExpectSameFiles(des, Collect(RunResult{EngineKind::kMitos, *run_b}, fs_b));
}

}  // namespace
}  // namespace mitos::api
