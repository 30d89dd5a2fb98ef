#include "api/engine.h"

#include "baselines/flink.h"
#include "baselines/spark.h"
#include "common/logging.h"
#include "lang/interpreter.h"
#include "runtime/threads_backend.h"
#include "sim/simulator.h"

namespace mitos::api {

namespace {

// Stamps MITOS_LOG / MITOS_VLOG lines with this run's clock — virtual time
// under the DES, wall-clock seconds under the threads backend.
class ScopedLogClock {
 public:
  using ClockFn = double (*)(const void*);
  ScopedLogClock(const void* ctx, ClockFn fn) : ctx_(ctx) {
    internal_logging::AttachLogClock(ctx, fn);
  }
  ~ScopedLogClock() { internal_logging::DetachLogClock(ctx_); }
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  const void* ctx_;
};

bool IsMitosEngine(EngineKind engine) {
  return engine == EngineKind::kMitos ||
         engine == EngineKind::kMitosNoPipelining ||
         engine == EngineKind::kMitosNoHoisting;
}

// Executor options shared by the DES and threads paths — the whole point of
// the backend seam is that the Mitos engine configuration is identical.
// Fusion is not among them: it is a compile option (CompileOptions).
runtime::ExecutorOptions MitosOptions(EngineKind engine,
                                      const RunConfig& config,
                                      const sim::FaultPlan* faults) {
  runtime::ExecutorOptions options;
  options.pipelining = engine != EngineKind::kMitosNoPipelining;
  options.hoisting = engine != EngineKind::kMitosNoHoisting;
  options.launch_base = config.mitos_launch_base;
  options.launch_per_machine = config.mitos_launch_per_machine;
  options.max_path_len = config.max_path_len;
  options.columnar = config.columnar;
  options.trace = config.trace;
  options.metrics = config.metrics;
  options.live = config.live;
  options.faults = faults;
  return options;
}

// Run-level observability epilogue shared by every engine: the run span
// plus summary gauges mirroring RunStats.
void RecordRunSummary(const RunConfig& config, EngineKind engine,
                      double end_time, const runtime::RunStats& stats) {
  if (config.trace != nullptr) {
    config.trace->Span(obs::kEnginePid,
                       config.trace->Lane(obs::kEnginePid, "run"),
                       EngineKindName(engine), "run", 0.0, end_time,
                       {{"engine", EngineKindName(engine)},
                        {"machines", config.machines},
                        {"jobs", stats.jobs},
                        {"decisions", stats.decisions}});
  }
  if (config.metrics != nullptr) {
    obs::MetricsRegistry* mr = config.metrics;
    mr->Set("total_seconds", stats.total_seconds);
    mr->Set("launch_seconds", stats.launch_seconds);
    mr->Set("peak_buffered_bytes",
            static_cast<double>(stats.peak_buffered_bytes));
    mr->Set("network_bytes", static_cast<double>(stats.cluster.network_bytes));
    mr->Set("local_bytes", static_cast<double>(stats.cluster.local_bytes));
    mr->Set("disk_bytes", static_cast<double>(stats.cluster.disk_bytes));
    mr->Set("messages", static_cast<double>(stats.cluster.messages));
    mr->Set("cpu_seconds", stats.cluster.cpu_seconds);
    for (const auto& [name, cpu] : stats.operator_cpu) {
      mr->Set("operator_cpu/" + name, cpu);
    }
  }
}

// The plan a run of `engine` executes; the baselines run unfused whatever
// the config says.
runtime::PlanOptions CompileOptions(EngineKind engine,
                                    const RunConfig& config) {
  runtime::PlanOptions options;
  options.machines = config.machines;
  options.operator_fusion =
      IsMitosEngine(engine) && config.mitos_operator_fusion;
  return options;
}

// The fault plan a run installs: null unless one with events is attached.
const sim::FaultPlan* ActiveFaults(const RunConfig& config) {
  return config.faults != nullptr && !config.faults->empty() ? config.faults
                                                             : nullptr;
}

// Rejects engine/backend/fault-plan combinations no engine can run.
Status CheckRun(EngineKind engine, const RunConfig& config) {
  // Fault handling: only the Mitos engines implement recovery.
  if (const sim::FaultPlan* faults = ActiveFaults(config)) {
    if (!IsMitosEngine(engine)) {
      return Status::Unimplemented(
          std::string("fault injection requires a Mitos engine, got ") +
          EngineKindName(engine));
    }
    for (const sim::FaultPlan::Crash& crash : faults->crashes) {
      if (crash.machine < 0 || crash.machine >= config.machines) {
        return Status::InvalidArgument(
            "fault plan crashes machine " + std::to_string(crash.machine) +
            " but the cluster has " + std::to_string(config.machines));
      }
    }
    for (const sim::FaultPlan::Slowdown& slow : faults->slowdowns) {
      if (slow.machine < 0 || slow.machine >= config.machines) {
        return Status::InvalidArgument(
            "fault plan slows machine " + std::to_string(slow.machine) +
            " but the cluster has " + std::to_string(config.machines));
      }
    }
  }
  if (config.backend == BackendKind::kThreads) {
    // The engine configuration and operator kernels are exactly the DES
    // ones — only the substrate differs (see runtime/threads_backend.h).
    if (!IsMitosEngine(engine)) {
      return Status::Unimplemented(
          std::string("the threads backend supports the Mitos engines "
                      "only, got ") +
          EngineKindName(engine));
    }
    if (ActiveFaults(config) != nullptr) {
      return Status::Unimplemented(
          "fault injection requires the DES backend: fault plans are "
          "virtual-time schedules");
    }
  }
  return Status::Ok();
}

// One run on `backend`, shared by every engine and both backends: the
// event-log begin/end records, the log clock and the run summary around
// `body`, which executes the engine's job(s).
template <typename Body>
StatusOr<RunResult> RunOn(runtime::Backend* backend, EngineKind engine,
                          const RunConfig& config, Body body) {
  const bool threads = backend->simulator() == nullptr;
  // Resource spans are recorded by the backend itself, so attaching here
  // covers every engine (including the multi-job baselines). On threads
  // this flips the recorder to wall clock.
  backend->set_trace(config.trace);
  obs::live::EventLog* elog = config.live.event_log;
  if (elog != nullptr) {
    // Attach before the fault plan is installed so its crash/restart/
    // slowdown timeline lands in the log as "fault" records.
    backend->set_event_log(elog);
    obs::TraceArgs fields = {{"engine", EngineKindName(engine)},
                             {"machines", config.machines}};
    if (threads) fields.emplace_back("backend", "threads");
    elog->Append(backend->now(), "run_begin", fields);
  }
  if (sim::Cluster* cluster = backend->cluster()) {
    cluster->InstallFaultPlan(ActiveFaults(config));
  }
  ScopedLogClock log_clock(backend, [](const void* ctx) {
    return static_cast<const runtime::Backend*>(ctx)->now();
  });
  MITOS_VLOG(1) << "run: engine=" << EngineKindName(engine)
                << " machines=" << config.machines
                << (threads ? " backend=threads" : "");

  StatusOr<runtime::RunStats> stats = body(backend);
  if (!stats.ok()) return stats.status();
  RunResult result;
  result.engine = engine;
  result.stats = std::move(stats).value();
  // busy_until() is when real work finished; with live observability or
  // fault handling on, trailing DES background timers may have pushed
  // now() past it (they are equal otherwise).
  RecordRunSummary(config, engine, backend->busy_until(), result.stats);
  if (elog != nullptr) {
    elog->Append(backend->busy_until(), "run_end",
                 {{"engine", EngineKindName(engine)},
                  {"total_seconds", result.stats.total_seconds},
                  {"decisions", result.stats.decisions},
                  {"attempts", result.stats.attempts}});
    elog->Flush();
  }
  return result;
}

// Builds the backend config.backend names and runs `body` on it.
template <typename Body>
StatusOr<RunResult> OnBackend(EngineKind engine, const RunConfig& config,
                              Body body) {
  sim::ClusterConfig cluster_config = config.cluster;
  cluster_config.num_machines = config.machines;
  if (config.backend == BackendKind::kThreads) {
    runtime::ThreadsBackend backend(cluster_config);
    backend.set_metrics(config.metrics);
    return RunOn(&backend, engine, config, [&](runtime::Backend* b) {
      StatusOr<runtime::RunStats> stats = body(b);
      // Per-machine queue-depth peaks and task counts land in the
      // registry now that the workers are quiescent.
      if (stats.ok()) backend.FlushMetrics();
      return stats;
    });
  }
  sim::Simulator sim;
  sim::Cluster cluster(&sim, cluster_config);
  runtime::DesBackend backend(&sim, &cluster);
  return RunOn(&backend, engine, config, body);
}

// Executes `plan` under a RunsFromPlan engine; `config` is already checked.
StatusOr<RunResult> ExecuteChecked(EngineKind engine, const runtime::Plan& plan,
                                   sim::SimFileSystem* fs,
                                   const RunConfig& config) {
  if (IsMitosEngine(engine)) {
    const runtime::ExecutorOptions options =
        MitosOptions(engine, config, ActiveFaults(config));
    return OnBackend(engine, config, [&](runtime::Backend* backend) {
      return runtime::ExecutePlan(backend, fs, plan, options);
    });
  }
  baselines::FlinkOptions options;
  options.step_overhead =
      engine == EngineKind::kFlink   ? config.flink_step_overhead
      : engine == EngineKind::kNaiad ? config.naiad_step_overhead
                                     : config.tensorflow_step_overhead;
  options.metrics = config.metrics;
  return OnBackend(engine, config, [&](runtime::Backend* backend) {
    return baselines::RunFlinkSim(backend, fs, plan, options);
  });
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kReference: return "Reference";
    case EngineKind::kMitos: return "Mitos";
    case EngineKind::kMitosNoPipelining: return "Mitos (not pipelined)";
    case EngineKind::kMitosNoHoisting: return "Mitos (wo. hoisting)";
    case EngineKind::kFlink: return "Flink";
    case EngineKind::kFlinkSeparateJobs: return "Flink (separate jobs)";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kNaiad: return "Naiad";
    case EngineKind::kTensorFlow: return "TensorFlow";
  }
  return "?";
}

bool RunsFromPlan(EngineKind engine) {
  return IsMitosEngine(engine) || engine == EngineKind::kFlink ||
         engine == EngineKind::kNaiad || engine == EngineKind::kTensorFlow;
}

StatusOr<runtime::Plan> Compile(const lang::Program& program,
                                const RunConfig& config) {
  return runtime::CompilePlan(program,
                              CompileOptions(EngineKind::kMitos, config));
}

StatusOr<RunResult> Execute(EngineKind engine, const runtime::Plan& plan,
                            sim::SimFileSystem* fs, const RunConfig& config) {
  if (!RunsFromPlan(engine)) {
    return Status::InvalidArgument(
        std::string(EngineKindName(engine)) +
        " does not run from a plan; use api::Run with the source program");
  }
  if (engine == EngineKind::kFlink && config.flink_strict) {
    return Status::InvalidArgument(
        "strict Flink checking needs the source program; use api::Run");
  }
  MITOS_RETURN_IF_ERROR(CheckRun(engine, config));
  return ExecuteChecked(engine, plan, fs, config);
}

StatusOr<RunResult> Run(EngineKind engine, const lang::Program& program,
                        sim::SimFileSystem* fs, const RunConfig& config) {
  if (engine == EngineKind::kReference) {
    lang::Interpreter interpreter(fs);
    MITOS_RETURN_IF_ERROR(interpreter.Run(program));
    RunResult result;
    result.engine = engine;
    result.stats = runtime::RunStats{};
    result.stats.jobs = 0;
    return result;
  }
  MITOS_RETURN_IF_ERROR(CheckRun(engine, config));
  if (!RunsFromPlan(engine)) {
    // Spark-style drivers compile one job per action themselves.
    baselines::SparkOptions options;
    if (engine == EngineKind::kSpark) {
      options.launch_base = config.spark_launch_base;
      options.launch_per_machine = config.spark_launch_per_machine;
    } else {
      options.launch_base = config.flink_jobs_launch_base;
      options.launch_per_machine = config.flink_jobs_launch_per_machine;
    }
    options.metrics = config.metrics;
    return OnBackend(engine, config, [&](runtime::Backend* backend) {
      return baselines::RunSpark(backend, fs, program, options);
    });
  }
  if (engine == EngineKind::kFlink && config.flink_strict) {
    MITOS_RETURN_IF_ERROR(baselines::CheckNativeIterationExpressible(program));
  }
  StatusOr<runtime::Plan> plan =
      runtime::CompilePlan(program, CompileOptions(engine, config));
  if (!plan.ok()) return plan.status();
  return ExecuteChecked(engine, *plan, fs, config);
}

StatusOr<RunResult> Engine::Run(const lang::Program& program,
                                sim::SimFileSystem* fs) {
  return Profiled(api::Run(kind_, program, fs, config_));
}

StatusOr<RunResult> Engine::Execute(const runtime::Plan& plan,
                                    sim::SimFileSystem* fs) {
  return Profiled(api::Execute(kind_, plan, fs, config_));
}

StatusOr<RunResult> Engine::Profiled(StatusOr<RunResult> result) {
  if (result.ok()) {
    last_operator_cpu_ = result->stats.operator_cpu;
    has_profile_ = true;
  }
  return result;
}

StatusOr<obs::analysis::ExplainPlan> Engine::Explain(
    const lang::Program& program) const {
  obs::analysis::ExplainOptions options;
  options.plan = CompileOptions(kind_, config_);
  if (has_profile_) options.operator_cpu = last_operator_cpu_;
  return obs::analysis::BuildExplain(program, options);
}

}  // namespace mitos::api
