// Job execution: assembles hosts, control flow managers, and the path
// authority on a runtime::Backend, runs a single (possibly cyclic) dataflow
// job to completion, and reports statistics.
//
// The paper's pipeline is compile once, then run: runtime::CompilePlan
// (runtime/plan.h) turns the imperative program into one immutable Plan,
// and ExecutePlan below runs it on a backend. That pair is the one way to
// start a job; every engine takes it, including the straight-line
// per-action jobs of the Spark driver (baselines/spark.h).
#ifndef MITOS_RUNTIME_EXECUTOR_H_
#define MITOS_RUNTIME_EXECUTOR_H_

#include <map>
#include <string>

#include "common/status.h"
#include "dataflow/graph.h"
#include "ir/ir.h"
#include "lang/ast.h"
#include "obs/live/live.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/backend.h"
#include "runtime/path.h"
#include "runtime/plan.h"
#include "sim/cluster.h"
#include "sim/filesystem.h"
#include "sim/simulator.h"

namespace mitos::runtime {

struct ExecutorOptions {
  // Loop pipelining (paper Sec. 5.2 / 6.6). Off = superstep barriers.
  bool pipelining = true;
  // Loop-invariant hoisting (paper Sec. 5.3 / 6.5).
  bool hoisting = true;
  // Extra latency per control-flow decision (models e.g. Flink's per-step
  // native-iteration overhead, FLINK-3322).
  double decision_overhead = 0.0;
  // Job deployment cost: base + per-machine (tasks deploy serially from the
  // coordinator, which is why per-step job launch scales linearly with the
  // machine count — paper Sec. 6.4).
  double launch_base = 0.08;
  double launch_per_machine = 0.045;
  // Materialize shuffle outputs before transmitting (Spark-style stage
  // execution). Streaming engines (Flink, Mitos) pipeline shuffles instead.
  bool blocking_shuffles = false;
  // Discard cached input bags and gated output partitions the execution
  // path proves dead (Sec. 5.2.4). Off = ablation (memory grows with the
  // iteration count).
  bool discard_spent_bags = true;
  // Ignored; kept only for bench/ledger/mitos_bench_traced.cc:209.
  bool step_templates = false;
  // Ignored; kept only for bench/ledger/mitos_bench_traced.cc:208.
  bool operator_fusion = false;
  // Columnar chunk plane (common/chunk.h): homogeneous batches travel as
  // typed columns and kernels vectorize over them. Off = every chunk stays
  // a boxed DatumVector end to end (the pre-batching plane; ablation and
  // wall-clock-speedup baseline). Outputs are element-identical either way.
  bool columnar = true;
  // Runaway-loop guard.
  int max_path_len = 1'000'000;
  // Observability (src/obs/): execution-trace recorder and metrics
  // registry. Both nullable; null (the default) disables the layer
  // entirely — no events, no extra allocations, no simulated cost.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Live observability plane (obs/live/): streaming event log, periodic
  // metrics snapshots, step-level stall watchdog, and progress callback.
  // All default-off; when enabled, everything runs on background timers
  // and observational hooks only, so the virtual-time schedule of the run
  // is byte-identical to a run with the plane disabled.
  obs::live::LiveOptions live;
  // Fault plan (caller-owned, already installed on the cluster; nullptr =
  // fault handling off). With a plan, ExecutePlan runs an attempt loop:
  // failed attempts (machine lost, stalled) are discarded and the job
  // re-executes from the last completed control-flow step, replaying
  // surviving bags (lineage over bag identifiers) at zero cost.
  const sim::FaultPlan* faults = nullptr;
};

struct RunStats {
  double total_seconds = 0;   // virtual time from submission to completion
  double launch_seconds = 0;  // of which job deployment
  int jobs = 1;               // dataflow jobs launched (baselines launch many)
  int decisions = 0;          // control flow decisions taken
  int64_t bags = 0;           // output bags computed across all instances
  int64_t elements = 0;       // elements fed into operators
  int64_t chunks = 0;         // chunks delivered to hosts
  int64_t chunk_fallbacks = 0;  // of which boxed-DatumVector fallbacks
  int64_t hoisted_reuses = 0; // build-side states kept across steps (5.3)
  int64_t peak_buffered_bytes = 0;  // max bytes cached across all hosts
  // Fault recovery (all zero/one for fault-free runs; see sim/fault.h).
  int attempts = 1;             // execution attempts (>1 after failures)
  double recovery_seconds = 0;  // failed-attempt + restart-wait time
  int64_t recomputed_bags = 0;  // lost bags recomputed during recovery
  int64_t replayed_bags = 0;    // surviving bags replayed at zero cost
  int checkpoints = 0;          // durable checkpoints taken
  // Always 0; kept only for bench/ledger/mitos_bench_traced.cc:585-586.
  int64_t template_hits = 0;
  int64_t template_misses = 0;
  // Busy-CPU seconds per logical operator (summed over instances), by the
  // operator's SSA variable name. A cheap profiler for finding the
  // bottleneck stage of a pipeline.
  std::map<std::string, double> operator_cpu;
  sim::ClusterMetrics cluster;  // deltas over this run

  std::string ToString() const;
};

// Runs `plan` as one dataflow job on `backend`, starting at the backend's
// current time and blocking until the job drains. InvalidArgument when the
// backend's machine count differs from the one the plan was compiled for.
// The plan is only read, so several executions may share it, concurrently
// included. Fault handling (options.faults) requires a DES backend
// (backend->simulator() != nullptr).
StatusOr<RunStats> ExecutePlan(Backend* backend, sim::SimFileSystem* fs,
                               const Plan& plan,
                               const ExecutorOptions& options);

// ExecutePlan over a bare IR program and graph, without the machine-count
// check. Kept only for bench/ledger/mitos_bench_traced.cc, which times the
// compile stages one by one; everything else runs a Plan.
StatusOr<RunStats> ExecuteJob(Backend* backend, sim::SimFileSystem* fs,
                              const ir::Program& program,
                              const dataflow::LogicalGraph& graph,
                              const ExecutorOptions& options);

}  // namespace mitos::runtime

#endif  // MITOS_RUNTIME_EXECUTOR_H_
