// Flink-style native iterations and other native-iteration baselines
// (Naiad, TensorFlow) for the paper's comparisons.
//
// Flink's native (bulk) iterations execute the whole loop inside a single
// dataflow job with a synchronization barrier between supersteps — no loop
// pipelining — and a well-documented per-superstep overhead (FLINK-3322,
// paper footnote 4). They support loop-invariant hoisting. Their
// *expressiveness* is restricted (paper Sec. 2): no nested loops, no if
// inside the loop body, no reading/writing files inside the iteration.
//
// This module reproduces that behaviour on top of the Mitos machinery: the
// superstep barrier is the runtime with pipelining disabled plus a
// per-decision overhead; the expressiveness restrictions are enforced by a
// static check. Programs that fail the check must fall back to launching a
// job per step ("Flink (separate jobs)" in Fig. 7), which is the Spark
// driver with Flink launch constants.
//
// Like every engine, it runs a Plan from runtime::CompilePlan through
// runtime::ExecutePlan; api::Run compiles it and applies the check when
// RunConfig::flink_strict asks for it.
#ifndef MITOS_BASELINES_FLINK_H_
#define MITOS_BASELINES_FLINK_H_

#include "common/status.h"
#include "lang/ast.h"
#include "runtime/executor.h"
#include "sim/filesystem.h"

namespace mitos::baselines {

// Returns OK when `program` fits Flink's native-iteration model; otherwise
// Unimplemented with the first offending construct.
Status CheckNativeIterationExpressible(const lang::Program& program);

struct FlinkOptions {
  // Per-superstep synchronization overhead (FLINK-3322-style).
  double step_overhead = 0.030;
  // Optional metrics registry (src/obs/); tracing rides on the recorder
  // attached to the backend.
  obs::MetricsRegistry* metrics = nullptr;
};

// Runs a plan (runtime/plan.h) as one barriered native-iteration
// job on `backend`. Programs outside the native-iteration fragment run
// anyway — this mirrors the paper's own evaluation, which reports "Flink"
// numbers for Visit Count despite the restrictions, and keeps the
// comparison about *performance* (barrier vs pipelining); callers that
// want the restriction check CheckNativeIterationExpressible first.
StatusOr<runtime::RunStats> RunFlinkSim(runtime::Backend* backend,
                                        sim::SimFileSystem* fs,
                                        const runtime::Plan& plan,
                                        const FlinkOptions& options = {});

}  // namespace mitos::baselines

#endif  // MITOS_BASELINES_FLINK_H_
