// The Mitos public entry point: run an imperative data-analysis program
// under any of the engines the paper evaluates, on a configurable simulated
// cluster.
//
//   sim::SimFileSystem fs;
//   workloads::GenerateVisitLogs(&fs, {.days = 365});
//   lang::Program program = workloads::VisitCountProgram({.days = 365});
//   auto result = api::Run(api::EngineKind::kMitos, program, &fs,
//                          {.machines = 24});
//   std::cout << result->stats.total_seconds << "s\n";
#ifndef MITOS_API_ENGINE_H_
#define MITOS_API_ENGINE_H_

#include <map>
#include <string>
#include <utility>

#include "common/status.h"
#include "lang/ast.h"
#include "obs/analysis/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "sim/cluster.h"
#include "sim/filesystem.h"

namespace mitos::api {

enum class EngineKind {
  // Sequential reference interpreter (no cluster; stats report zero time).
  kReference,
  // The paper's system: single cyclic dataflow job, pipelining + hoisting.
  kMitos,
  // Ablations (paper Sec. 6.5 / 6.6).
  kMitosNoPipelining,
  kMitosNoHoisting,
  // Flink-style native iterations: superstep barrier + per-step overhead.
  kFlink,
  // Per-step job launching with Flink constants (Fig. 7 "separate jobs").
  kFlinkSeparateJobs,
  // Spark-style driver loop: one job per action.
  kSpark,
  // Native-iteration systems for the Fig. 7 microbenchmark.
  kNaiad,
  kTensorFlow,
};

const char* EngineKindName(EngineKind kind);

// Execution substrate (runtime/backend.h). kDes is the deterministic
// discrete-event oracle (virtual time, byte-reproducible). kThreads is the
// real-parallel thread-pool backend: thread-per-machine, wall-clock time,
// element-identical results to the DES (differential-tested in
// tests/runtime/backend_diff_test.cc). kThreads supports the Mitos engines
// only and rejects fault plans; the watchdog and snapshot cadence (which
// need background virtual-time timers) are silently inert under it.
enum class BackendKind {
  kDes,
  kThreads,
};

struct RunConfig {
  int machines = 4;
  // Full cluster override; `machines` wins for num_machines.
  sim::ClusterConfig cluster;

  // Execution backend; see BackendKind.
  BackendKind backend = BackendKind::kDes;

  // Engine tuning (defaults reproduce the paper's regimes).
  // Fig. 7 calibration: Spark's measured per-step overhead in the paper is
  // ~0.5s at 3 machines and ~3s at 25 (log-log Figure 7), i.e. roughly
  // 0.1 + 0.115*machines per job; native-iteration engines sit at a flat
  // 5-50 ms per step.
  double flink_step_overhead = 0.040;
  double naiad_step_overhead = 0.008;
  double tensorflow_step_overhead = 0.015;
  double mitos_launch_base = 0.08;
  double mitos_launch_per_machine = 0.045;
  double spark_launch_base = 0.10;
  double spark_launch_per_machine = 0.115;
  double flink_jobs_launch_base = 0.09;
  double flink_jobs_launch_per_machine = 0.100;
  // Strict Flink expressiveness checking: api::Run rejects a kFlink program
  // that fails baselines::CheckNativeIterationExpressible.
  bool flink_strict = false;
  // Elementwise operator fusion for the Mitos engines (ir/fusion.h).
  bool mitos_operator_fusion = false;
  // Ignored; kept only for bench/ledger/mitos_bench_traced.cc:209.
  bool step_templates = true;
  // Columnar chunk plane for the Mitos engines (common/chunk.h). Off keeps
  // every chunk a boxed DatumVector end to end — the pre-batching data
  // plane, used as the ablation / wall-clock-speedup baseline
  // (`mitos_run --columnar=off`). Results are element-identical either way.
  bool columnar = true;
  int max_path_len = 1'000'000;

  // Observability (src/obs/). Both optional and caller-owned: attach a
  // TraceRecorder to capture per-operator/per-resource spans and
  // control-flow instants in virtual time (export with
  // TraceRecorder::ToJson — Chrome trace-event format), and a
  // MetricsRegistry for counters/gauges/histograms plus the per-step
  // timeline. Null (default) keeps the whole layer disabled at zero cost:
  // the run's virtual time and RunStats are identical either way.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // Live observability plane (obs/live/): a streaming event log (JSONL
  // records for steps, decisions, faults, recovery,
  // checkpoints), periodic in-run metrics snapshots, a step-level stall
  // watchdog, and a progress callback. All default-off and observational:
  // the run's virtual-time behavior (trace, stats, outputs) is
  // byte-identical with the plane on or off. The event log also receives
  // cluster-level fault records for every engine; snapshots, the watchdog,
  // and progress are wired for the Mitos engines.
  obs::live::LiveOptions live;

  // Deterministic fault injection (sim/fault.h). Caller-owned; null or an
  // empty plan leaves fault handling disabled and the run byte-identical
  // to one without fault support. Only the Mitos engines recover from
  // injected faults; other engines reject a non-empty plan with
  // kUnimplemented. Parse specs with sim::FaultPlan::Parse, e.g.
  // "crash=1@2.5+0.5; drop=0.01".
  const sim::FaultPlan* faults = nullptr;
};

struct RunResult {
  EngineKind engine;
  runtime::RunStats stats;
};

// Runs `program` against the datasets in `fs` (outputs are written there
// too). Each call uses a fresh simulator/cluster; virtual time starts at 0.
// For the engines that run one dataflow job this is Compile + Execute.
StatusOr<RunResult> Run(EngineKind engine, const lang::Program& program,
                        sim::SimFileSystem* fs, const RunConfig& config = {});

// Compile once, run many (runtime/plan.h). Compile runs the compile
// pipeline once, for config.machines and config.mitos_operator_fusion;
// Execute runs the resulting immutable plan exactly as Run would, as often
// as needed and on either backend:
//
//   auto plan = api::Compile(program, {.machines = 3});
//   auto des = api::Execute(api::EngineKind::kMitos, *plan, &fs1,
//                           {.machines = 3});
//   auto thr = api::Execute(api::EngineKind::kMitos, *plan, &fs2,
//                           {.machines = 3,
//                            .backend = api::BackendKind::kThreads});
//
// The plan fixes the IR, so config.mitos_operator_fusion matters to Compile
// only. config.machines must equal plan.machines() (InvalidArgument
// otherwise). Execute supports the engines RunsFromPlan names; the others
// (the reference interpreter and the per-action job launchers) and strict
// Flink checking need the source program, so they return InvalidArgument.
StatusOr<runtime::Plan> Compile(const lang::Program& program,
                                const RunConfig& config = {});
StatusOr<RunResult> Execute(EngineKind engine, const runtime::Plan& plan,
                            sim::SimFileSystem* fs,
                            const RunConfig& config = {});
// True for the engines that run one dataflow job from a plan: the Mitos
// engines and the native-iteration baselines (Flink, Naiad, TensorFlow).
bool RunsFromPlan(EngineKind engine);

// Stateful engine handle: the same Run() entry point, plus plan EXPLAIN.
// Remembers the per-operator CPU profile of the most recent successful
// Run(), which Explain() back-fills into the exported plan — so
//
//   api::Engine engine(api::EngineKind::kMitos, {.machines = 8});
//   engine.Run(program, &fs);
//   std::cout << engine.Explain(program)->ToDot();
//
// prints the AST → SSA → dataflow plan with measured operator costs.
class Engine {
 public:
  explicit Engine(EngineKind kind, RunConfig config = {})
      : kind_(kind), config_(std::move(config)) {}

  EngineKind kind() const { return kind_; }
  const RunConfig& config() const { return config_; }

  StatusOr<RunResult> Run(const lang::Program& program,
                          sim::SimFileSystem* fs);
  // api::Execute with this engine's kind and config; profiles like Run().
  StatusOr<RunResult> Execute(const runtime::Plan& plan,
                              sim::SimFileSystem* fs);

  // Compile-only: exports the plan this engine would execute, compiled
  // with the options Run uses for this kind (DCE, translation, and fusion
  // for the Mitos engines only: the baselines always run unfused). Never
  // advances virtual time. Costs are annotated when a prior Run() profiled
  // the program.
  StatusOr<obs::analysis::ExplainPlan> Explain(
      const lang::Program& program) const;

 private:
  // Remembers the operator profile of a successful run.
  StatusOr<RunResult> Profiled(StatusOr<RunResult> result);

  EngineKind kind_;
  RunConfig config_;
  bool has_profile_ = false;
  std::map<std::string, double> last_operator_cpu_;
};

}  // namespace mitos::api

#endif  // MITOS_API_ENGINE_H_
