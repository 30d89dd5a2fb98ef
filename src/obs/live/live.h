// LiveOptions: the plain-data bundle that carries every live-observability
// feature through api::RunConfig and runtime::ExecutorOptions
// (DESIGN.md §10).
//
// The simulator and cluster are constructed inside api::Run, so callers
// cannot bind timers themselves; they describe what they want here and the
// executor instantiates the SnapshotWriter / StepWatchdog per job attempt,
// binding them to the run's simulator. Everything is observational: with
// any combination of these features enabled, the virtual-time event stream
// stays byte-identical to a run with them all off.
#ifndef MITOS_OBS_LIVE_LIVE_H_
#define MITOS_OBS_LIVE_LIVE_H_

#include <cstdint>
#include <functional>

#include "obs/live/event_log.h"
#include "obs/live/snapshot.h"
#include "obs/live/watchdog.h"

namespace mitos::obs::live {

// One live-status sample, pushed at every control-flow step boundary and
// once at job completion (`mitos_run --progress` renders it as a one-line
// ticker). All values are cumulative for the current attempt.
struct Progress {
  double virtual_time = 0;
  int step = 0;      // completed control-flow decisions
  int path_len = 0;  // execution-path length
  int attempt = 1;   // execution attempt (>1 during fault recovery)
  int64_t faults_seen = 0;  // dropped messages + machines currently down
  bool complete = false;
};

using ProgressFn = std::function<void(const Progress&)>;

struct LiveOptions {
  // Streaming event sink (caller-owned; null disables event logging).
  EventLog* event_log = nullptr;
  // In-run metrics snapshots (emitted into event_log; requires both
  // event_log and a MetricsRegistry to be attached).
  SnapshotOptions snapshots;
  // Step-level stall watchdog (stall records land in event_log).
  WatchdogConfig watchdog;
  // Live status callback; null disables progress reporting.
  ProgressFn progress;

  bool any() const {
    return event_log != nullptr || snapshots.enabled || watchdog.enabled ||
           static_cast<bool>(progress);
  }
};

}  // namespace mitos::obs::live

#endif  // MITOS_OBS_LIVE_LIVE_H_
