// Post-run performance diagnosis over recorded observability data.
//
// PR 1 captures *what happened* (TraceRecorder spans in virtual time, the
// MetricsRegistry step timeline); this layer answers *why the run took as
// long as it did*:
//
//   * Critical path — the chain of CPU/NIC/disk spans that bounds virtual
//     completion time, found by a deterministic backward "last finisher"
//     sweep: from the end of the run, repeatedly jump to the latest-ending
//     resource span, attribute it, and continue from its start. Gaps
//     between spans are classified against the control-flow timeline into
//     barrier-wait, decision-broadcast, job-launch, or straggler slack.
//     Each compute segment is attributed to the operator (span label
//     "<op>.<phase>") and, where an enclosing operator-bag span exists, to
//     the paper's bag identifier "<op>@<path_len>" (operator ×
//     execution-path prefix).
//   * Per-step breakdown — the same decomposition sliced by control-flow
//     step windows (previous broadcast -> this broadcast), which is what
//     shows barrier/decision time collapsing when loop pipelining is on.
//   * Skew & straggler attribution — per-machine busy-CPU seconds per step,
//     the imbalance factor (max/mean), and the operator instance
//     responsible for the slowest machine's load.
//
// The same decomposition works over wall-clock traces from the threads
// backend (TraceClock::kWall): "core" spans are compute, per-task "queue"
// spans classify idle gaps as queue-wait, and the driver's "quiesce" spans
// are barrier waits. RunAnalysis::wall_clock labels which domain the
// numbers live in; obs/analysis/drift.h correlates one of each.
//
// The analyzer is purely observational: it only reads recorded data after
// the run, so virtual time is byte-identical with and without it (the same
// invariant the recorder itself upholds; regression-tested in
// tests/obs/analysis_test.cc).
#ifndef MITOS_OBS_ANALYSIS_ANALYSIS_H_
#define MITOS_OBS_ANALYSIS_ANALYSIS_H_

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mitos::obs::analysis {

// Segment kinds used in CriticalSegment::kind and the decomposition map.
inline constexpr const char kCompute[] = "compute";
inline constexpr const char kNetwork[] = "network";
inline constexpr const char kDisk[] = "disk";
inline constexpr const char kBarrierWait[] = "barrier-wait";
inline constexpr const char kDecisionBroadcast[] = "decision-broadcast";
inline constexpr const char kLaunch[] = "launch";
// Wall-clock only (threads backend): critical time a task spent between
// enqueue and dequeue on some machine's MPSC queue ("queue" spans).
inline constexpr const char kQueueWait[] = "queue-wait";
inline constexpr const char kSlack[] = "slack";

// One contiguous piece of the critical path, in virtual time.
struct CriticalSegment {
  double t_start = 0;
  double t_end = 0;
  std::string kind;    // one of the constants above
  int machine = -1;    // -1 for engine-level segments (barrier, launch, …)
  std::string detail;  // span name: "<op>.<phase>", "send→m3", "disk read"…
  std::string bag;     // "<op>@<path_len>" when attributable, else empty

  double seconds() const { return t_end - t_start; }
};

// Critical-path decomposition of one control-flow step window.
struct StepBreakdown {
  int index = 0;
  double t_start = 0;
  double t_end = 0;
  // Seconds of critical path inside the window, by kind.
  double compute = 0;
  double network = 0;
  double disk = 0;
  double barrier_wait = 0;
  double broadcast = 0;
  double launch = 0;
  double queue_wait = 0;  // wall-clock traces only
  double slack = 0;
};

// Load-imbalance diagnosis of one control-flow step window.
struct StepSkew {
  int index = 0;
  double t_start = 0;
  double t_end = 0;
  std::vector<double> busy;  // busy-CPU seconds per machine in the window
  double mean_busy = 0;
  double max_busy = 0;
  int straggler = -1;     // machine with max busy (-1: window had no work)
  double imbalance = 1;   // max/mean (1.0 = perfectly balanced)
  double slack = 0;       // max - mean: time the stragglers cost the step
  std::string op;         // dominant operator on the straggler
  int instance = -1;      // its partition (instance index), -1 if unknown
};

struct RunAnalysis {
  double total_seconds = 0;
  int num_machines = 0;
  // True when the trace was recorded in wall-clock mode (threads backend);
  // every quantity below is then wall seconds instead of virtual seconds.
  bool wall_clock = false;

  // The critical path in time order; contiguous from 0 to total_seconds.
  std::vector<CriticalSegment> critical_path;
  // Seconds per segment kind; sums to total_seconds.
  std::map<std::string, double> decomposition;
  // Critical-path seconds attributed per operator and per bag identifier.
  std::map<std::string, double> by_operator;
  std::map<std::string, double> by_bag;
  // TOTAL busy seconds per operator across ALL compute spans on every
  // machine (not just the critical path). This is the calibration quantity
  // the drift report correlates across backends: the DES side is modelled
  // operator cost, the threads side is measured kernel wall time.
  std::map<std::string, double> operator_busy;

  // Present only when a MetricsRegistry with a step timeline was supplied.
  std::vector<StepBreakdown> steps;
  std::vector<StepSkew> skew;

  // Whole-run per-machine busy-CPU seconds and the overall imbalance.
  std::vector<double> machine_busy;
  double busy_imbalance = 1;
  int busiest_machine = -1;

  double DecompositionSeconds(const std::string& kind) const;

  // Human-readable report (mitos_run --report).
  std::string ToString() const;
  // Deterministic JSON (sorted keys, fixed number formatting).
  std::string ToJson() const;
};

// Analyzes a completed run from its recorded trace (and, optionally, its
// metrics registry — required for the per-step breakdown and skew tables).
// Purely a function of the recorded data; never touches the simulator.
RunAnalysis Analyze(const TraceRecorder& trace,
                    const MetricsRegistry* metrics = nullptr);

}  // namespace mitos::obs::analysis

#endif  // MITOS_OBS_ANALYSIS_ANALYSIS_H_
