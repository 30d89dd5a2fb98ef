// Shared harness utilities for the per-figure benchmark binaries.
//
// Scaling: the simulator processes real elements, so paper-sized inputs
// (gigabytes) are represented by `element_scale`: each simulated element
// stands for `element_scale` real elements. Per-element CPU cost is scaled
// up and bandwidths scaled down by the same factor, so virtual time behaves
// as if the full-size data were processed while the harness stays fast.
// Reported dataset sizes are the modelled (scaled) sizes.
#ifndef MITOS_BENCH_BENCH_UTIL_H_
#define MITOS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/logging.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/baseline.h"
#include "obs/live/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/filesystem.h"

namespace mitos::bench {

// Per-process harness state set by ParseBenchArgs.
struct BenchContext {
  std::string figure;        // e.g. "fig9"; names baseline entries
  std::string metrics_out;   // --metrics-out=FILE (JSON Lines), "" = off
  std::string baseline_out;  // --baseline-out=FILE (BENCH_*.json), "" = off
  std::string event_log_out;  // --event-log=FILE (JSONL), "" = off
  obs::analysis::BaselineFile baseline;
  int run_index = 0;
};

inline BenchContext& Context() {
  static BenchContext context;
  return context;
}

// Destination for per-run metrics dumps; empty means disabled.
inline std::string& MetricsOutPath() { return Context().metrics_out; }

// Benchmarks accept three optional flags:
//   --metrics-out=FILE   append one JSON line {"run","engine","metrics"}
//                        per RunOrDie invocation (JSON Lines)
//   --baseline-out=FILE  write a bench-regression baseline (the committed
//                        BENCH_<figure>.json files): per run, the
//                        virtual-time total plus the critical-path
//                        decomposition from the post-run analyzer. Compare
//                        two baselines with tools/bench_diff.
//   --event-log=FILE     append every run's live event stream (obs/live/,
//                        JSONL; steps, decisions, snapshots) to FILE. Observational only — the
//                        watchdog stays off and virtual time is untouched,
//                        so baselines match unlogged runs byte for byte.
//                        CI's perf-smoke job uploads the result as an
//                        artifact.
// `figure` is the benchmark's stable name ("fig9"); it keys baseline
// entries so bench_diff can match runs across builds.
inline void ParseBenchArgs(int argc, char** argv, const char* figure) {
  BenchContext& context = Context();
  context.figure = figure;
  context.baseline.figure = figure;
  constexpr const char kMetricsPrefix[] = "--metrics-out=";
  constexpr const char kBaselinePrefix[] = "--baseline-out=";
  constexpr const char kEventLogPrefix[] = "--event-log=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(kMetricsPrefix, 0) == 0) {
      context.metrics_out = arg.substr(sizeof(kMetricsPrefix) - 1);
      std::ofstream(context.metrics_out, std::ios::trunc);  // start fresh
    } else if (arg.rfind(kBaselinePrefix, 0) == 0) {
      context.baseline_out = arg.substr(sizeof(kBaselinePrefix) - 1);
    } else if (arg.rfind(kEventLogPrefix, 0) == 0) {
      context.event_log_out = arg.substr(sizeof(kEventLogPrefix) - 1);
      std::ofstream(context.event_log_out, std::ios::trunc);  // start fresh
    } else {
      std::fprintf(stderr, "ignoring unknown flag: %s\n", arg.c_str());
    }
  }
}

// Cluster configured like the paper's testbed, with element scaling.
inline api::RunConfig MakeConfig(int machines, double element_scale) {
  api::RunConfig config;
  config.machines = machines;
  config.cluster.cpu_per_element *= element_scale;
  // Chunk payload cost scales with the modelled element size (each
  // simulated byte stands for element_scale real bytes); the per-chunk
  // dispatch charge is bookkeeping and does not.
  config.cluster.cpu_per_byte *= element_scale;
  config.cluster.net_bandwidth /= element_scale;
  config.cluster.disk_bandwidth /= element_scale;
  config.cluster.memory_bandwidth /= element_scale;
  config.cluster.local_bandwidth /= element_scale;
  // Headers/control messages do not grow with the modelled element size.
  config.cluster.control_message_bytes = static_cast<size_t>(
      std::max(8.0, 64.0 / element_scale));
  // Chunks keep their modelled byte granularity.
  config.cluster.chunk_elements = static_cast<size_t>(
      std::max(64.0, 2048.0 / element_scale));
  return config;
}

// Runs `program` on a private copy of `inputs`; aborts the benchmark on
// engine errors (misconfiguration should be loud).
inline runtime::RunStats RunOrDie(api::EngineKind engine,
                                  const lang::Program& program,
                                  const sim::SimFileSystem& inputs,
                                  const api::RunConfig& config) {
  BenchContext& context = Context();
  sim::SimFileSystem fs = inputs;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  api::RunConfig run_config = config;
  const bool want_baseline = !context.baseline_out.empty();
  if (!context.metrics_out.empty() || want_baseline) {
    run_config.metrics = &metrics;
  }
  // Purely observational (regression-tested): attaching the recorder never
  // changes virtual time, so baselines match unobserved runs byte for byte.
  if (want_baseline) run_config.trace = &trace;
  // Ditto for the live event log: snapshots and step records ride on
  // observational hooks, and the watchdog stays off, so a logged run's
  // baseline is byte-identical to an unlogged one.
  obs::live::EventLog::Options log_options;
  if (!context.event_log_out.empty()) {
    log_options.sink = [&context](const std::string& text) {
      std::ofstream(context.event_log_out, std::ios::app) << text;
    };
    // Same wall clock the CLI wires: unix milliseconds, stamped under the
    // log's lock so wall_ms is monotone in record order even when machine
    // threads append concurrently (threads backend).
    log_options.wall_clock_ms = [] {
      return static_cast<int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
    };
  }
  obs::live::EventLog event_log(std::move(log_options));
  if (!context.event_log_out.empty()) {
    run_config.live.event_log = &event_log;
    run_config.metrics = &metrics;
    run_config.live.snapshots.enabled = true;
  }
  auto result = api::Run(engine, program, &fs, run_config);
  MITOS_CHECK(result.ok()) << api::EngineKindName(engine) << ": "
                           << result.status().ToString();
  const int run_index = context.run_index++;
  if (!context.metrics_out.empty()) {
    std::string json = metrics.ToJson();
    while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) {
      json.pop_back();
    }
    std::ofstream out(context.metrics_out, std::ios::app);
    out << "{\"run\": " << run_index << ", \"engine\": \""
        << api::EngineKindName(engine) << "\", \"metrics\": " << json
        << "}\n";
  }
  if (want_baseline) {
    obs::analysis::RunAnalysis analysis =
        obs::analysis::Analyze(trace, &metrics);
    obs::analysis::BaselineEntry entry;
    entry.engine = api::EngineKindName(engine);
    entry.machines = config.machines;
    entry.key = context.figure + "/" + std::to_string(run_index) + "/" +
                entry.engine + "/" + std::to_string(config.machines) + "m";
    entry.total_seconds = result->stats.total_seconds;
    entry.decomposition = analysis.decomposition;
    context.baseline.entries.push_back(std::move(entry));
    // Rewritten after every run so a partial bench still leaves a valid
    // (prefix) baseline on disk.
    std::ofstream(context.baseline_out, std::ios::trunc)
        << context.baseline.ToJson();
  }
  return result->stats;
}

// Markdown-ish series table: one row per x value, one column per engine.
class SeriesTable {
 public:
  SeriesTable(std::string x_label, std::vector<std::string> columns)
      : x_label_(std::move(x_label)), columns_(std::move(columns)) {}

  void AddRow(const std::string& x, const std::vector<double>& values) {
    MITOS_CHECK_EQ(values.size(), columns_.size());
    rows_.push_back({x, values});
  }

  void Print(const char* unit = "s") const {
    std::printf("| %-18s |", x_label_.c_str());
    for (const std::string& c : columns_) std::printf(" %16s |", c.c_str());
    std::printf("\n|%s|", std::string(20, '-').c_str());
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%s|", std::string(18, '-').c_str());
    }
    std::printf("\n");
    for (const Row& row : rows_) {
      std::printf("| %-18s |", row.x.c_str());
      for (double v : row.values) std::printf(" %14.3f%s |", v, unit);
      std::printf("\n");
    }
  }

 private:
  struct Row {
    std::string x;
    std::vector<double> values;
  };
  std::string x_label_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

inline std::string HumanBytes(double bytes) {
  char buf[64];
  if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f KB", bytes / 1e3);
  }
  return buf;
}

}  // namespace mitos::bench

#endif  // MITOS_BENCH_BENCH_UTIL_H_
