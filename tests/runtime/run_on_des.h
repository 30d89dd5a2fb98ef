// Compile once, then run: runs a program as one Mitos job on a fresh DES
// cluster through runtime::CompilePlan and runtime::ExecutePlan over a
// DesBackend, the path every engine takes, without the api layer's engine
// selection. Shared by the runtime, fusion and error-path suites.
#ifndef MITOS_TESTS_RUNTIME_RUN_ON_DES_H_
#define MITOS_TESTS_RUNTIME_RUN_ON_DES_H_

#include "runtime/executor.h"
#include "runtime/plan.h"
#include "sim/cluster.h"
#include "sim/simulator.h"

namespace mitos::runtime {

// `plan_options.machines` is overridden by `machines`, the cluster size.
inline StatusOr<RunStats> RunOnDes(const lang::Program& program,
                                   sim::SimFileSystem* fs, int machines,
                                   const ExecutorOptions& options = {},
                                   PlanOptions plan_options = {}) {
  plan_options.machines = machines;
  StatusOr<Plan> plan = CompilePlan(program, plan_options);
  if (!plan.ok()) return plan.status();
  sim::Simulator sim;
  sim::ClusterConfig config;
  config.num_machines = machines;
  sim::Cluster cluster(&sim, config);
  DesBackend backend(&sim, &cluster);
  return ExecutePlan(&backend, fs, *plan, options);
}

}  // namespace mitos::runtime

#endif  // MITOS_TESTS_RUNTIME_RUN_ON_DES_H_
