// Spark-style baseline: imperative control flow in the driver, one dataflow
// job per action (paper Sec. 1/6: "Spark launches a new dataflow job for
// every iteration step, incurring a high overhead").
//
// The driver interprets control flow sequentially in "driver code" (plain
// C++, free in virtual time). Bag assignments are lazy and build RDD-style
// lineage; an *action* (writeFile, or collecting a bag value into a driver
// scalar/condition) compiles the required lineage into a straight-line
// dataflow job and runs it on the backend, paying the per-job
// launch overhead (base + per-machine, hence linear in the machine count —
// Fig. 7). Named bags computed by a job are materialized into the in-memory
// RDD cache so later jobs re-read instead of recomputing — but operators
// (and their join hash tables) die with each job, so there is no
// loop-invariant hoisting (Fig. 8) and no pipelining across steps.
//
// The same driver with different launch constants models "Flink (separate
// jobs)" from Fig. 7.
#ifndef MITOS_BASELINES_SPARK_H_
#define MITOS_BASELINES_SPARK_H_

#include <cstdint>

#include "common/status.h"
#include "lang/ast.h"
#include "runtime/executor.h"
#include "sim/filesystem.h"

namespace mitos::baselines {

struct SparkOptions {
  // Per-job launch overhead: base + per_machine * machines.
  double launch_base = 0.10;
  double launch_per_machine = 0.115;
  // Guard against runaway driver loops.
  int64_t max_driver_iterations = 10'000'000;
  // Optional metrics registry (src/obs/); tracing rides on the recorder
  // attached to the backend.
  obs::MetricsRegistry* metrics = nullptr;
};

// Interprets `program` in the driver on `backend`; outputs land in the file
// system. Each action compiles its lineage with runtime::CompilePlan and
// runs it with runtime::ExecutePlan, paying the modelled launch overhead;
// RunStats::total_seconds is the backend's clock from start to finish.
// Cache files ("mem:*") are removed afterwards. The driver keeps no state
// across calls. api::Run runs it on the DES only.
StatusOr<runtime::RunStats> RunSpark(runtime::Backend* backend,
                                     sim::SimFileSystem* fs,
                                     const lang::Program& program,
                                     const SparkOptions& options = {});

}  // namespace mitos::baselines

#endif  // MITOS_BASELINES_SPARK_H_
