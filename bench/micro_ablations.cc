// Ablations of Mitos design choices beyond the paper's figures (DESIGN.md
// calls these out):
//   * dead code elimination of unused loop Φs (compiler pass);
//   * the Sec. 5.2.4 discard rule (bounded memory over long loops);
//   * pipeline chunk granularity (latency/overhead trade-off).
#include <cstdio>

#include "bench_util.h"
#include "lang/builder.h"
#include "runtime/executor.h"
#include "sim/simulator.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::bench {
namespace {

runtime::RunStats RunWith(const lang::Program& program,
                          const sim::SimFileSystem& inputs,
                          const sim::ClusterConfig& cluster_config,
                          const runtime::ExecutorOptions& options,
                          runtime::PlanOptions plan_options = {}) {
  plan_options.machines = cluster_config.num_machines;
  auto plan = runtime::CompilePlan(program, plan_options);
  MITOS_CHECK(plan.ok()) << plan.status().ToString();
  sim::SimFileSystem fs = inputs;
  sim::Simulator sim;
  sim::Cluster cluster(&sim, cluster_config);
  runtime::DesBackend backend(&sim, &cluster);
  auto stats = runtime::ExecutePlan(&backend, &fs, *plan, options);
  MITOS_CHECK(stats.ok()) << stats.status().ToString();
  return *stats;
}

void DeadCodeAblation() {
  std::printf("--- ablation: dead code elimination ---\n");
  // A loop carrying a bag nobody reads, next to the observed one.
  lang::ProgramBuilder pb;
  pb.Assign("noise", lang::BagLit({Datum::Int64(0)}));
  pb.Assign("state", lang::BagLit({Datum::Int64(0)}));
  pb.While(lang::Lt(lang::ScalarFromBag(lang::Var("state")),
                    lang::LitInt(100)),
           [&] {
             pb.Assign("noise", lang::Map(lang::Var("noise"),
                                          lang::fns::AddInt64(1)));
             pb.Assign("state", lang::Map(lang::Var("state"),
                                          lang::fns::AddInt64(1)));
           });
  pb.WriteFile(lang::Var("state"), lang::LitString("out"));
  lang::Program program = pb.Build();

  sim::ClusterConfig cluster;
  cluster.num_machines = 8;
  auto a = RunWith(program, {}, cluster, {});
  auto b = RunWith(program, {}, cluster, {},
                   {.dead_code_elimination = false});
  std::printf("with DCE:    %8.4fs  bags=%lld\n", a.total_seconds,
              static_cast<long long>(a.bags));
  std::printf("without DCE: %8.4fs  bags=%lld\n", b.total_seconds,
              static_cast<long long>(b.bags));
  std::printf("dead loop state costs %.1f%% more coordinated bags\n\n",
              100.0 * (static_cast<double>(b.bags) / a.bags - 1.0));
}

void DiscardRuleAblation() {
  std::printf("--- ablation: Sec. 5.2.4 discard rule (peak memory) ---\n");
  sim::ClusterConfig cluster;
  cluster.num_machines = 4;
  std::printf("%8s %22s %22s\n", "days", "discard ON", "discard OFF");
  for (int days : {10, 40, 160}) {
    sim::SimFileSystem inputs;
    workloads::GenerateVisitLogs(&inputs, {.days = days,
                                           .entries_per_day = 2'000,
                                           .num_pages = 200});
    lang::Program program = workloads::VisitCountProgram({.days = days});
    runtime::ExecutorOptions on;
    runtime::ExecutorOptions off;
    off.discard_spent_bags = false;
    auto a = RunWith(program, inputs, cluster, on);
    auto b = RunWith(program, inputs, cluster, off);
    std::printf("%8d %20s %20s\n", days,
                HumanBytes(static_cast<double>(a.peak_buffered_bytes))
                    .c_str(),
                HumanBytes(static_cast<double>(b.peak_buffered_bytes))
                    .c_str());
  }
  std::printf("(bounded vs growing linearly with the iteration count)\n\n");
}

void ChunkSizeAblation() {
  std::printf("--- ablation: pipeline chunk granularity ---\n");
  sim::SimFileSystem inputs;
  workloads::GenerateVisitLogs(&inputs, {.days = 20,
                                         .entries_per_day = 20'000,
                                         .num_pages = 2'000});
  lang::Program program = workloads::VisitCountProgram({.days = 20});
  std::printf("%14s %12s %14s\n", "chunk elems", "time", "messages");
  for (size_t chunk : {128u, 512u, 2048u, 8192u, 65536u}) {
    sim::ClusterConfig cluster;
    cluster.num_machines = 8;
    cluster.chunk_elements = chunk;
    auto stats = RunWith(program, inputs, cluster, {});
    std::printf("%14zu %10.3fs %14lld\n", chunk, stats.total_seconds,
                static_cast<long long>(stats.cluster.messages));
  }
  std::printf("(small chunks pay per-message overhead; huge chunks lose\n"
              "pipelining granularity)\n");
}

}  // namespace
}  // namespace mitos::bench

int main(int argc, char** argv) {
  mitos::bench::ParseBenchArgs(argc, argv, "micro_ablations");
  mitos::bench::DeadCodeAblation();
  mitos::bench::DiscardRuleAblation();
  mitos::bench::ChunkSizeAblation();
  return 0;
}
