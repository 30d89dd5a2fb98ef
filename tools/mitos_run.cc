// mitos_run: run a textual Mitos program from the command line.
//
//   mitos_run examples/scripts/visit_count.mitos
//       --engine=mitos --machines=8 --gen-visits=10,5000,100
//
// Flags:
//   --engine=<reference|mitos|mitos-nopipe|mitos-nohoist|flink|
//             flink-jobs|spark|naiad|tensorflow>   (default mitos)
//   --machines=N                                   (default 4)
//   --backend=<des|threads>  execution substrate (default des): the
//                       deterministic discrete-event simulator, or a real
//                       thread-per-machine pool running the same operator
//                       kernels under wall-clock time (Mitos engines only;
//                       differential-tested against the DES — see
//                       DESIGN.md §11)
//   --gen-visits=days,entriesPerDay,numPages       synthesize visit logs
//   --gen-types=numPages,numTypes                  synthesize pageTypes
//   --gen-graph=vertices,edges                     synthesize a graph
//   --gen-points=points,clusters                   synthesize k-means input
//   --dump-ir           print the optimized SSA IR of the plan that runs
//                       (after dead-code elimination)
//   --dump-dot          print that plan's dataflow graph (dot)
//   --explain[=dot|json]  plan EXPLAIN: print the AST → SSA → dataflow
//                       plan (Graphviz DOT by default, or one JSON object)
//                       with per-operator cost annotations back-filled from
//                       the profiled run (api::Engine::Explain)
//   --report            print the post-run performance diagnosis: critical
//                       path with per-step compute/comms/barrier/broadcast
//                       breakdown, plus skew & straggler attribution
//   --report-out=FILE   write the same diagnosis as deterministic JSON
//   --drift-report      run the program on BOTH backends (a fresh DES run
//                       and a fresh threads run, each from the pristine
//                       input files) and print per-operator and per-step
//                       virtual-vs-wall drift ratios (Mitos engines only;
//                       see DESIGN.md §12 and tools/drift_diff for the
//                       two-files offline variant)
//   --drift-out=FILE    write the same drift report as deterministic JSON
//   --show-files                                   print produced files
//   --trace-out=FILE    write a Chrome trace-event JSON of the run; open it
//                       at https://ui.perfetto.dev or chrome://tracing
//   --metrics-out=FILE  write counters/gauges/histograms + the per-step
//                       timeline as JSON
//   --metrics-format=json|prom  format for --metrics-out: schema-versioned
//                       JSON (default) or Prometheus text exposition
//                       (mitos_-prefixed families; counters, gauges, and
//                       summary quantiles — see DESIGN.md §10)
//   --event-log=FILE    stream structured JSONL events (steps, decisions,
//                       faults, recovery, checkpoints, snapshots,
//                       watchdog stalls) to FILE as the run
//                       executes; each record carries virtual time and a
//                       wall-clock timestamp
//   --snapshot-every=K  with --event-log: also emit a metrics snapshot
//                       record every K virtual seconds (snapshots at every
//                       control-flow step boundary are always on)
//   --watchdog=on|off   step-level stall watchdog (default on with
//                       --event-log): flags a stall when no step completes
//                       within an 8x rolling-median window and emits a
//                       watchdog_stall record naming the operators behind
//   --progress          render a one-line live status on stderr (current
//                       step, path length, attempt, faults seen)
//   --profile           print the per-operator CPU table and the per-step
//                       timeline (step index, path, barrier wait, data moved)
//   --columnar=on|off   columnar chunk plane (Mitos engines; default on):
//                       off boxes every chunk as a DatumVector end to end
//                       (the pre-batching data plane; ablation baseline).
//                       Outputs are element-identical either way
//   --faults=SPEC       deterministic fault injection (Mitos engines only):
//                       "crash=M@T[+R]; drop=P[@SEED]; slow=MxF; ckpt=K"
//                       e.g. --faults="crash=1@2.5+0.5" crashes machine 1 at
//                       t=2.5s and restarts it 0.5s later (see sim/fault.h)
//   --check-against=<engine>  after the main run, run the program a second
//                       time on the named engine from the pristine inputs
//                       and require both runs to produce the same output
//                       files with the same elements (multiset equality).
//                       `--check-against=reference` turns any script into a
//                       correctness assertion.
//
// Exit codes (also documented in README.md):
//   0  run succeeded (and --check-against, if given, agreed)
//   1  engine-result mismatch: the --check-against run diverged
//   2  infrastructure error: bad flags, unreadable script, parse/compile/
//      run error — anything that is not an engine-vs-engine divergence
//
// Logging: MITOS_LOG_LEVEL=info|warning|error and MITOS_VLOG=N environment
// variables control diagnostic output on stderr (see src/common/logging.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "lang/parser.h"
#include "mitos.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/drift.h"
#include "obs/live/event_log.h"
#include "obs/live/prom.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"

namespace {

using namespace mitos;

bool ParseInts(const std::string& value, std::vector<int64_t>* out) {
  std::stringstream stream(value);
  std::string piece;
  while (std::getline(stream, piece, ',')) {
    try {
      out->push_back(std::stoll(piece));
    } catch (...) {
      return false;
    }
  }
  return !out->empty();
}

// Infrastructure failure (exit 2): flags, files, parse, compile, or run —
// distinct from exit 1, which is reserved for an engine-result mismatch
// found by --check-against.
int Fail(const std::string& message) {
  std::fprintf(stderr, "mitos_run: %s\n", message.c_str());
  return 2;
}

int FailMismatch(const std::string& message) {
  std::fprintf(stderr, "mitos_run: engine mismatch: %s\n", message.c_str());
  return 1;
}

bool ParseEngineName(const std::string& name, api::EngineKind* out) {
  if (name == "reference") *out = api::EngineKind::kReference;
  else if (name == "mitos") *out = api::EngineKind::kMitos;
  else if (name == "mitos-nopipe") *out = api::EngineKind::kMitosNoPipelining;
  else if (name == "mitos-nohoist") *out = api::EngineKind::kMitosNoHoisting;
  else if (name == "flink") *out = api::EngineKind::kFlink;
  else if (name == "flink-jobs") *out = api::EngineKind::kFlinkSeparateJobs;
  else if (name == "spark") *out = api::EngineKind::kSpark;
  else if (name == "naiad") *out = api::EngineKind::kNaiad;
  else if (name == "tensorflow") *out = api::EngineKind::kTensorFlow;
  else return false;
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << contents;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string script_path;
  std::string engine_name = "mitos";
  std::string backend_name = "des";
  int machines = 4;
  bool dump_ir = false, dump_dot = false, show_files = false;
  bool profile = false, report = false, drift = false;
  std::string explain_format;  // "", "dot", or "json"
  std::string trace_out, metrics_out, report_out, drift_out, faults_spec;
  std::string metrics_format = "json";
  std::string event_log_out;
  std::string check_against;
  double snapshot_every = 0;
  bool progress = false;
  std::string watchdog_flag = "auto";  // on with --event-log by default
  bool have_faults = false;
  bool columnar = true;
  sim::SimFileSystem fs;
  std::vector<std::string> input_files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--engine=", 0) == 0) {
      engine_name = value_of("--engine=");
    } else if (arg.rfind("--machines=", 0) == 0) {
      machines = std::atoi(value_of("--machines=").c_str());
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend_name = value_of("--backend=");
      if (backend_name != "des" && backend_name != "threads") {
        return Fail("--backend expects des or threads, got " + backend_name);
      }
    } else if (arg.rfind("--gen-visits=", 0) == 0) {
      std::vector<int64_t> v;
      if (!ParseInts(value_of("--gen-visits="), &v) || v.size() != 3) {
        return Fail("--gen-visits expects days,entriesPerDay,numPages");
      }
      workloads::GenerateVisitLogs(&fs, {.days = static_cast<int>(v[0]),
                                         .entries_per_day = v[1],
                                         .num_pages = v[2]});
    } else if (arg.rfind("--gen-types=", 0) == 0) {
      std::vector<int64_t> v;
      if (!ParseInts(value_of("--gen-types="), &v) || v.size() != 2) {
        return Fail("--gen-types expects numPages,numTypes");
      }
      workloads::GeneratePageTypes(&fs, {.num_pages = v[0],
                                         .num_types = v[1]});
    } else if (arg.rfind("--gen-graph=", 0) == 0) {
      std::vector<int64_t> v;
      if (!ParseInts(value_of("--gen-graph="), &v) || v.size() != 2) {
        return Fail("--gen-graph expects vertices,edges");
      }
      workloads::GenerateGraph(&fs, {.num_vertices = v[0],
                                     .num_edges = v[1]});
    } else if (arg.rfind("--gen-points=", 0) == 0) {
      std::vector<int64_t> v;
      if (!ParseInts(value_of("--gen-points="), &v) || v.size() != 2) {
        return Fail("--gen-points expects points,clusters");
      }
      workloads::GeneratePoints(&fs, {.num_points = v[0],
                                      .num_clusters = v[1]});
    } else if (arg == "--dump-ir") {
      dump_ir = true;
    } else if (arg == "--dump-dot") {
      dump_dot = true;
    } else if (arg == "--explain") {
      explain_format = "dot";
    } else if (arg.rfind("--explain=", 0) == 0) {
      explain_format = value_of("--explain=");
      if (explain_format != "dot" && explain_format != "json") {
        return Fail("--explain expects dot or json, got " + explain_format);
      }
    } else if (arg == "--show-files") {
      show_files = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg.rfind("--report-out=", 0) == 0) {
      report_out = value_of("--report-out=");
    } else if (arg == "--drift-report") {
      drift = true;
    } else if (arg.rfind("--drift-out=", 0) == 0) {
      drift_out = value_of("--drift-out=");
      if (drift_out.empty()) return Fail("--drift-out expects a file");
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = value_of("--trace-out=");
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = value_of("--metrics-out=");
    } else if (arg.rfind("--metrics-format=", 0) == 0) {
      metrics_format = value_of("--metrics-format=");
      if (metrics_format != "json" && metrics_format != "prom") {
        return Fail("--metrics-format expects json or prom, got " +
                    metrics_format);
      }
    } else if (arg.rfind("--event-log=", 0) == 0) {
      event_log_out = value_of("--event-log=");
      if (event_log_out.empty()) return Fail("--event-log expects a file");
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      snapshot_every = std::atof(value_of("--snapshot-every=").c_str());
      if (snapshot_every <= 0) {
        return Fail("--snapshot-every expects a positive virtual-second "
                    "interval");
      }
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      watchdog_flag = value_of("--watchdog=");
      if (watchdog_flag != "on" && watchdog_flag != "off") {
        return Fail("--watchdog expects on or off, got " + watchdog_flag);
      }
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg.rfind("--columnar=", 0) == 0) {
      const std::string value = value_of("--columnar=");
      if (value != "on" && value != "off") {
        return Fail("--columnar expects on or off, got " + value);
      }
      columnar = value == "on";
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_spec = value_of("--faults=");
      have_faults = true;
    } else if (arg.rfind("--check-against=", 0) == 0) {
      check_against = value_of("--check-against=");
      if (check_against.empty()) {
        return Fail("--check-against expects an engine name");
      }
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown flag: " + arg);
    } else {
      script_path = arg;
    }
  }
  if (script_path.empty()) {
    return Fail("usage: mitos_run <script.mitos> [flags]  (see header)");
  }
  input_files = fs.ListFiles();

  std::ifstream file(script_path);
  if (!file) return Fail("cannot open " + script_path);
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto program = lang::Parse(buffer.str());
  if (!program.ok()) {
    return Fail("parse error: " + program.status().ToString());
  }

  if (dump_ir || dump_dot) {
    // The optimized plan: the IR and graph that actually run.
    auto plan = api::Compile(*program, {.machines = machines});
    if (!plan.ok()) return Fail("compile error: " + plan.status().ToString());
    if (dump_ir) std::printf("%s\n", ir::ToString(plan->program()).c_str());
    if (dump_dot) {
      std::printf("%s\n", dataflow::ToDot(plan->graph()).c_str());
    }
  }

  api::EngineKind engine;
  if (!ParseEngineName(engine_name, &engine)) {
    return Fail("unknown engine: " + engine_name);
  }
  api::EngineKind check_engine = api::EngineKind::kReference;
  if (!check_against.empty() &&
      !ParseEngineName(check_against, &check_engine)) {
    return Fail("unknown --check-against engine: " + check_against);
  }

  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  sim::FaultPlan fault_plan;
  const bool want_report = report || !report_out.empty();
  const bool want_drift = drift || !drift_out.empty();
  if (want_drift) {
    if (engine != api::EngineKind::kMitos &&
        engine != api::EngineKind::kMitosNoPipelining &&
        engine != api::EngineKind::kMitosNoHoisting) {
      return Fail(
          "--drift-report compares the DES against the threads backend, "
          "which runs Mitos engines only (got --engine=" +
          engine_name + ")");
    }
    if (have_faults) {
      return Fail(
          "--drift-report cannot run with --faults: fault plans are "
          "virtual-time schedules the threads backend rejects");
    }
  }
  api::RunConfig config{.machines = machines};
  config.backend = backend_name == "threads" ? api::BackendKind::kThreads
                                             : api::BackendKind::kDes;
  config.columnar = columnar;
  // The analyzer consumes the same recorder the trace export does; both are
  // purely observational, so enabling them never changes virtual time.
  if (!trace_out.empty() || want_report) config.trace = &trace;
  if (!metrics_out.empty() || profile || want_report) {
    config.metrics = &metrics;
  }
  std::unique_ptr<obs::live::EventLog> event_log;
  if (!event_log_out.empty()) {
    auto sink_file =
        std::make_shared<std::ofstream>(event_log_out, std::ios::binary);
    if (!*sink_file) return Fail("cannot write " + event_log_out);
    obs::live::EventLog::Options log_options;
    // Flush per batch so the file can be tailed while the run executes.
    log_options.sink = [sink_file](const std::string& text) {
      (*sink_file) << text;
      sink_file->flush();
    };
    log_options.wall_clock_ms = [] {
      return static_cast<int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
    };
    event_log =
        std::make_unique<obs::live::EventLog>(std::move(log_options));
    config.live.event_log = event_log.get();
    // Snapshot records read the metrics registry, so the log pulls it in.
    config.metrics = &metrics;
    config.live.snapshots.enabled = true;
    config.live.snapshots.every_virtual_seconds = snapshot_every;
    config.live.watchdog.enabled = watchdog_flag != "off";
  } else if (snapshot_every > 0) {
    return Fail("--snapshot-every requires --event-log");
  } else if (watchdog_flag == "on") {
    return Fail("--watchdog=on requires --event-log");
  }
  if (progress) {
    config.live.progress = [](const obs::live::Progress& p) {
      std::fprintf(stderr,
                   "\r[t=%8.3fs] step %d  path %d  attempt %d  "
                   "faults %lld%s",
                   p.virtual_time, p.step + 1, p.path_len, p.attempt,
                   static_cast<long long>(p.faults_seen),
                   p.complete ? "  done\n" : "");
      std::fflush(stderr);
    };
  }
  if (have_faults) {
    auto parsed = sim::FaultPlan::Parse(faults_spec);
    if (!parsed.ok()) {
      return Fail("bad --faults spec: " + parsed.status().ToString());
    }
    fault_plan = *parsed;
    config.faults = &fault_plan;
  }

  // Drift comparison and --check-against both re-run the program from the
  // pristine inputs (the main run appends its outputs to `fs`).
  sim::SimFileSystem pristine_fs;
  if (want_drift || !check_against.empty()) pristine_fs = fs;

  api::Engine engine_handle(engine, config);
  // --drift-report runs the same Mitos engine twice more, once per backend:
  // all three runs execute one plan.
  std::optional<runtime::Plan> plan;
  if (want_drift) {
    auto compiled = api::Compile(*program, config);
    if (!compiled.ok()) {
      return Fail("run error: " + compiled.status().ToString());
    }
    plan = std::move(compiled).value();
  }
  auto result = plan ? engine_handle.Execute(*plan, &fs)
                     : engine_handle.Run(*program, &fs);
  if (!result.ok()) {
    return Fail("run error: " + result.status().ToString());
  }
  std::printf("engine:   %s (%d machines%s)\n", api::EngineKindName(engine),
              machines,
              config.backend == api::BackendKind::kThreads
                  ? ", threads backend"
                  : "");
  std::printf("stats:    %s\n", result->stats.ToString().c_str());
  if (!trace_out.empty()) {
    if (!WriteTextFile(trace_out, trace.ToJson())) {
      return Fail("cannot write " + trace_out);
    }
    std::printf("trace:    %s (%zu events; open at https://ui.perfetto.dev)\n",
                trace_out.c_str(), trace.events().size());
  }
  if (!metrics_out.empty()) {
    obs::live::PromRunInfo prom_info;
    prom_info.backend = backend_name;
    // total_seconds lives in the backend's own clock domain: virtual under
    // the DES, wall seconds under the thread pool.
    if (config.backend == api::BackendKind::kThreads) {
      prom_info.wall_seconds = result->stats.total_seconds;
    } else {
      prom_info.virtual_seconds = result->stats.total_seconds;
    }
    const std::string text =
        metrics_format == "prom"
            ? obs::live::ToPrometheusText(metrics, prom_info)
            : metrics.ToJson();
    if (!WriteTextFile(metrics_out, text)) {
      return Fail("cannot write " + metrics_out);
    }
    std::printf("metrics:  %s (%s)\n", metrics_out.c_str(),
                metrics_format.c_str());
  }
  if (event_log != nullptr) {
    event_log->Flush();
    std::printf("events:   %s (%lld records", event_log_out.c_str(),
                static_cast<long long>(event_log->appended()));
    if (event_log->CountKind("watchdog_stall") > 0) {
      std::printf(", %lld stall warnings",
                  static_cast<long long>(
                      event_log->CountKind("watchdog_stall")));
    }
    std::printf(")\n");
  }
  if (profile) {
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, cpu] : result->stats.operator_cpu) {
      rows.emplace_back(cpu, name);
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("operator CPU profile (top 12):\n");
    for (size_t i = 0; i < rows.size() && i < 12; ++i) {
      std::printf("  %10.4fs  %s\n", rows[i].first, rows[i].second.c_str());
    }
    if (!metrics.steps().empty()) {
      std::printf("%s", metrics.StepTableToString().c_str());
    }
  }
  if (want_report) {
    obs::analysis::RunAnalysis analysis =
        obs::analysis::Analyze(trace, &metrics);
    if (report) std::printf("%s", analysis.ToString().c_str());
    if (!report_out.empty()) {
      if (!WriteTextFile(report_out, analysis.ToJson())) {
        return Fail("cannot write " + report_out);
      }
      std::printf("report:   %s\n", report_out.c_str());
    }
  }
  if (want_drift) {
    // One fresh run per backend, each fully instrumented and each from the
    // pristine inputs — the main run above is left untouched.
    auto run_side = [&](api::BackendKind side_backend,
                        obs::TraceRecorder* side_trace,
                        obs::MetricsRegistry* side_metrics) {
      sim::SimFileSystem side_fs = pristine_fs;
      api::RunConfig side_config{.machines = machines};
      side_config.backend = side_backend;
      side_config.columnar = columnar;
      side_config.trace = side_trace;
      side_config.metrics = side_metrics;
      return api::Execute(engine, *plan, &side_fs, side_config);
    };
    obs::TraceRecorder des_trace, threads_trace;
    obs::MetricsRegistry des_metrics, threads_metrics;
    auto des_run = run_side(api::BackendKind::kDes, &des_trace, &des_metrics);
    if (!des_run.ok()) {
      return Fail("drift DES run error: " + des_run.status().ToString());
    }
    auto threads_run =
        run_side(api::BackendKind::kThreads, &threads_trace,
                 &threads_metrics);
    if (!threads_run.ok()) {
      return Fail("drift threads run error: " +
                  threads_run.status().ToString());
    }
    auto drift_report = obs::analysis::BuildDriftReport(
        obs::analysis::DriftSide::FromAnalysis(
            obs::analysis::Analyze(des_trace, &des_metrics), "des"),
        obs::analysis::DriftSide::FromAnalysis(
            obs::analysis::Analyze(threads_trace, &threads_metrics),
            "threads"));
    if (!drift_report.ok()) {
      return Fail("drift error: " + drift_report.status().ToString());
    }
    if (drift) std::printf("%s", drift_report->ToString().c_str());
    if (!drift_out.empty()) {
      if (!WriteTextFile(drift_out, drift_report->ToJson())) {
        return Fail("cannot write " + drift_out);
      }
      std::printf("drift:    %s\n", drift_out.c_str());
    }
  }
  if (!check_against.empty()) {
    // Second run on the check engine, from pristine inputs, fault-free and
    // on the DES (the check engine need not support the main run's backend
    // or fault plan); outputs must match as multisets per file.
    sim::SimFileSystem check_fs = pristine_fs;
    api::RunConfig check_config{.machines = machines};
    check_config.columnar = columnar;
    auto check_run = api::Run(check_engine, *program, &check_fs, check_config);
    if (!check_run.ok()) {
      return Fail("--check-against run error: " +
                  check_run.status().ToString());
    }
    auto outputs_of = [&](const sim::SimFileSystem& side) {
      std::vector<std::string> names;
      for (const std::string& name : side.ListFiles()) {
        if (std::find(input_files.begin(), input_files.end(), name) ==
            input_files.end()) {
          names.push_back(name);
        }
      }
      return names;
    };
    const std::vector<std::string> main_outputs = outputs_of(fs);
    const std::vector<std::string> check_outputs = outputs_of(check_fs);
    if (main_outputs != check_outputs) {
      return FailMismatch(engine_name + " and " + check_against +
                          " produced different output file sets");
    }
    for (const std::string& name : main_outputs) {
      DatumVector got = *fs.Read(name);
      DatumVector want = *check_fs.Read(name);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        return FailMismatch(
            name + ": " + engine_name + " wrote " +
            std::to_string(got.size()) + " element(s) " +
            mitos::ToString(got, 6) + ", " + check_against + " wrote " +
            std::to_string(want.size()) + " " + mitos::ToString(want, 6));
      }
    }
    std::printf("check:    %s agrees with %s (%zu output file(s))\n",
                engine_name.c_str(), check_against.c_str(),
                main_outputs.size());
  }
  if (!explain_format.empty()) {
    // After the run, so Explain() back-fills measured operator costs.
    auto explained = engine_handle.Explain(*program);
    if (!explained.ok()) {
      return Fail("explain error: " + explained.status().ToString());
    }
    std::printf("%s\n", (explain_format == "json" ? explained->ToJson()
                                                   : explained->ToDot())
                            .c_str());
  }
  if (show_files) {
    std::printf("files:\n");
    for (const std::string& name : fs.ListFiles()) {
      bool is_input = false;
      for (const std::string& in : input_files) {
        if (in == name) is_input = true;
      }
      if (is_input) continue;
      auto data = fs.Read(name);
      std::printf("  %s (%zu elements): %s\n", name.c_str(), data->size(),
                  mitos::ToString(*data, 8).c_str());
    }
  }
  return 0;
}
