// EventLog: the bounded, streaming event sink behind `mitos_run
// --event-log=FILE` (DESIGN.md §10).
//
// Runtime components (PathAuthority, hosts, sim::Cluster, the fault
// machinery, the watchdog) append structured records as a run executes;
// each record serializes eagerly to one JSONL line so consumers can tail
// the file while the run is in flight. Like the TraceRecorder the log is
// purely observational: appending never schedules simulator work or
// charges virtual time, so an attached log leaves the virtual-time event
// stream byte-identical to a run without one (regression-tested in
// tests/obs/live_test.cc).
//
// Record shape (all JSON, one object per line):
//   {"vt":<virtual seconds>,"kind":"<kind>"[,"wall_ms":<unix ms>],<fields>}
// `wall_ms` appears only when a wall clock is wired (the CLI wires the
// system clock; tests leave it off for byte-deterministic output). The
// stamp is taken under the log's lock and clamped to never run backwards,
// so wall_ms is monotone non-decreasing in record order even when machine
// worker threads race to append (threads backend). Kinds
// emitted by the runtime: run_begin, run_end, step_begin, step_end,
// decision, fault, recovery, checkpoint, snapshot, watchdog_stall.
//
// The log is internally synchronized: on the real-parallel threads
// backend (runtime/threads_backend.h) machine worker threads append
// concurrently. Serialization happens outside the lock; only the buffer
// push and counters are guarded.
//
// Bounding: the log buffers at most `max_buffered` serialized records.
// With a sink wired, a full buffer flushes incrementally (oldest first);
// without one, the oldest record is dropped and counted, so a forgotten
// log can never grow without bound.
#ifndef MITOS_OBS_LIVE_EVENT_LOG_H_
#define MITOS_OBS_LIVE_EVENT_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace mitos::obs::live {

class EventLog {
 public:
  struct Options {
    // Maximum serialized records held in memory before the log flushes
    // (sink wired) or drops the oldest (no sink).
    size_t max_buffered = 4096;
    // Receives flushed JSONL text (each call carries whole lines). Wired
    // by the CLI to an output stream; null keeps everything buffered.
    std::function<void(const std::string&)> sink;
    // Wall clock in unix milliseconds, stamped into every record as
    // "wall_ms". Null (the default) omits the field, keeping records
    // byte-deterministic functions of virtual time.
    std::function<int64_t()> wall_clock_ms;
  };

  EventLog() = default;
  explicit EventLog(Options options) : options_(std::move(options)) {}
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog() { Flush(); }

  // Appends one record at virtual time `vt`. Fields ride in the same
  // TraceArgs vector the trace recorder uses (int/double/string).
  void Append(double vt, const std::string& kind,
              const TraceArgs& fields = {});

  // Appends a record whose extra fields are pre-serialized JSON object
  // members ("\"a\":1,\"b\":2" — no braces). Used by SnapshotWriter,
  // whose payload nests objects beyond what TraceArgs expresses.
  void AppendRaw(double vt, const std::string& kind,
                 const std::string& body);

  // Pushes all buffered records to the sink (no-op without one).
  void Flush();

  int64_t appended() const;
  int64_t dropped() const;
  // Records of `kind` appended so far (counted even if later dropped).
  int64_t CountKind(const std::string& kind) const;

  size_t buffered() const;
  // Buffered (unflushed) records as JSONL text.
  std::string BufferedToJsonl() const;

 private:
  // `wall_insert_pos` is where a ",\"wall_ms\":N" member splices into
  // `line` (right after the kind); the stamp itself is taken under mu_ so
  // it is monotone in record order.
  void Push(std::string line, const std::string& kind,
            size_t wall_insert_pos);
  void FlushLocked();

  Options options_;
  mutable std::mutex mu_;
  std::deque<std::string> buffered_;
  std::map<std::string, int64_t> kind_counts_;
  int64_t appended_ = 0;
  int64_t dropped_ = 0;
  int64_t last_wall_ms_ = 0;  // clamp: wall_ms never runs backwards
};

}  // namespace mitos::obs::live

#endif  // MITOS_OBS_LIVE_EVENT_LOG_H_
