// ThreadsBackend: real parallelism behind the runtime::Backend seam.
//
// One worker thread per "machine"; any thread may post to any machine,
// only the owner executes. Every Backend operation reduces to
// Post(target, fn):
//
//   * ExecCpu runs `done` on the target machine's thread — the callback IS
//     the real work; the modelled cpu_seconds charge is ignored. The task
//     carries a cpu flag and the trace label, and WorkerLoop meters it in
//     place: the callback's wall time goes into cpu_seconds (and a "core"
//     span when tracing), with no wrapper closure around `done`.
//   * Send posts `done` to the destination. Byte/message tallies use the
//     same local-vs-network split as the simulated cluster (src == dst →
//     local_bytes).
//   * DiskIo/DiskRead post to the target machine; there is no modelled
//     disk occupancy — the data already lives in the in-process
//     SimFileSystem — but disk_bytes accounting is kept.
//   * ScheduleAfter posts to machine 0 without the modelled delay (it is
//     only used for the pre-work job launch; Mitos engines run with
//     decision_overhead == 0 — see the Backend contract).
//
// Task queues. Each machine has two FIFO queues, ring buffers that keep
// their capacity, so a steady-state post allocates nothing (the runtime's
// callbacks fit std::function's inline buffer):
//
//   * the shared queue, guarded by the machine's mutex, which every other
//     thread (other workers, the driver) pushes onto;
//   * the owner-local queue, touched only by the machine's own worker.
//     A post made BY machine m's worker TO machine m (self-scheduled
//     ExecCpu, src == dst sends, PathAuthority::Broadcast's decision
//     self-send) appends here with no lock and no notify.
//
// The worker runs its local queue to empty, then refills it by swapping
// in the whole shared queue under one lock acquisition (O(1): the two
// arrays trade places, each keeping a capacity). Per-(src,dst)
// FIFO holds because every post a given thread makes to one destination
// goes through the same one of the two queues, each FIFO, and a pair's
// sends all come from one thread: the source's worker (the launch and
// every callback run there), except driver posts made at quiescence —
// the only cross-thread posts with src == dst — when no earlier task is
// still queued anywhere.
//
// Wake-ups: spin, then park. A worker with nothing to run first spins for
// a bounded budget (tens of µs, kSpinBudget in the .cc) on the machine's
// atomic pending count, pausing between probes. A cross-machine hop then
// costs the receiver no wake-up latency and the producer no syscall. When
// the budget runs out the worker parks on the condvar, setting `sleeping`
// under the queue mutex first. A producer pushes under the same mutex,
// reads-and-clears `sleeping` there, and calls notify_one after unlocking
// only if it was set. No wake-up is lost: either the push's critical
// section comes first and the worker's under-lock emptiness check sees
// the task, or the worker set `sleeping` and atomically released the
// mutex into the wait before the push, so the producer sees the flag and
// its notify finds the worker waiting. A worker that is awake costs its
// producers nothing beyond the locked push. Spinning is on only when
// num_machines <= UsableCpus(): oversubscribed, a spinning worker would
// steal the core the producer it waits for needs, so workers park at once.
//
// Quiescence (Run / ScheduleWhenIdle): a single atomic counts outstanding
// tasks, incremented BEFORE a task is enqueued and decremented AFTER it
// finishes running, so the count can only reach zero when every posted
// task — and everything it transitively posted — has fully executed. The
// driver thread blocks in Run() until the count hits zero, then runs ONE
// pending idle callback (mirroring sim::Simulator::Run's
// one-idle-callback-at-a-time semantics, which is what superstep barriers
// rely on) and waits again; Run returns when the system is quiescent with
// no idle callbacks left. The driver's wait/wake through done_mu_
// establishes happens-before in both directions, so an idle callback may
// touch any machine's state — exactly like the DES at quiescence — but
// only until it posts work: from the first Post the workers run again,
// and every machine's state re-confines to its own thread (which is why
// PathAuthority::Broadcast self-sends the local decision delivery here
// instead of advancing the local manager inline).
//
// ClusterMetrics tallies live in per-machine relaxed atomics (cpu time on
// the executing machine, bytes and messages on the sending one) and
// MetricsSnapshot() sums them, so no task takes a process-wide lock.
//
// Time is wall-clock seconds since construction; busy_until() == now()
// (no background timers exist here). Each worker attaches this clock to
// its thread's log lines (common/logging.h). Fault plans are rejected upstream
// (PathAuthority checks simulator() != nullptr), and simulator()/cluster()
// return nullptr, which gates off the watchdog, snapshot cadence, and
// heartbeat machinery.
//
// Wall-clock observability (DESIGN.md §12): with a TraceRecorder attached
// the backend flips the recorder to TraceClock::kWall and emits per-worker
// spans — kernel execution ("core", the measured ExecCpu callback), per-task
// enqueue→dequeue waits ("queue"), worker idle time ("idle"), and the
// driver's quiescence-barrier waits ("quiesce" on the engine process). With
// a MetricsRegistry attached (set_metrics) it observes enqueue/dequeue
// latency, producer lock-wait, queue-wait, and quiescence-wait histograms
// during the run and flushes per-machine queue-depth peaks and task counts
// as "threads_*" gauges at FlushMetrics(). All timestamping is gated on an
// instrumentation flag computed when the observers attach, so the
// uninstrumented hot path stays a queue push. Instrumentation only adds
// timestamps on top of the same queues and wake-up protocol, so a traced
// run measures the code an untraced run executes. None of this touches the
// DES: virtual-time traces remain byte-identical with this code compiled
// in.
#ifndef MITOS_RUNTIME_THREADS_BACKEND_H_
#define MITOS_RUNTIME_THREADS_BACKEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/ring_buffer.h"
#include "obs/metrics.h"
#include "runtime/backend.h"

namespace mitos::runtime {

// CPUs this process may run on: the count in its affinity mask (so
// `taskset` and cpusets count), or std::thread::hardware_concurrency()
// when the mask cannot be read (0 if that is unknown too).
unsigned UsableCpus();

class ThreadsBackend : public Backend {
 public:
  explicit ThreadsBackend(const sim::ClusterConfig& config);
  ~ThreadsBackend() override;

  ThreadsBackend(const ThreadsBackend&) = delete;
  ThreadsBackend& operator=(const ThreadsBackend&) = delete;

  int num_machines() const override { return config_.num_machines; }
  const sim::ClusterConfig& config() const override { return config_; }

  double now() const override;
  double busy_until() const override { return now(); }

  void ExecCpu(int machine, double cpu_seconds, std::function<void()> done,
               std::string trace_label = {}) override;
  void Send(int src, int dst, size_t bytes,
            std::function<void()> done) override;
  void DiskIo(int machine, size_t bytes, std::function<void()> done,
              bool memory = false) override;
  void DiskRead(int machine, size_t bytes, int pieces,
                std::function<void(int)> on_progress,
                bool memory = false) override;

  void ScheduleAfter(double delay, std::function<void()> fn) override;
  void ScheduleWhenIdle(std::function<void()> fn) override;
  void Run() override;

  sim::ClusterMetrics MetricsSnapshot() const override;

  // Attaching a recorder switches it to wall-clock mode: every timestamp
  // this backend records is wall seconds since construction.
  void set_trace(obs::TraceRecorder* trace) override;
  obs::TraceRecorder* trace() const override { return trace_; }
  void set_event_log(obs::live::EventLog* log) override {
    event_log_ = log;
  }
  obs::live::EventLog* event_log() const override { return event_log_; }

  // Attaches a registry for the wall-clock queue/contention metrics
  // (threads_enqueue_seconds, threads_dequeue_seconds,
  // threads_queue_wait_seconds, threads_lock_wait_seconds,
  // threads_quiesce_wait_seconds histograms). Call before the run starts.
  void set_metrics(obs::MetricsRegistry* metrics);

  // Writes the end-of-run per-machine gauges (threads_queue_depth_peak/m<i>,
  // threads_tasks/m<i>, threads_tasks_total) into the attached registry.
  // Call after Run() has quiesced; a no-op without set_metrics.
  void FlushMetrics();

 private:
  // One queued task. An ExecCpu task (`cpu`) is metered by WorkerLoop in
  // place: its wall time goes to the machine's cpu_seconds and, when
  // tracing, a "core" span named `label`. `enqueued_at` is stamped when
  // instrumentation is on (0 otherwise — the stamp is never read then).
  struct Task {
    std::function<void()> fn;
    std::string label;
    double enqueued_at = 0;
    bool cpu = false;
  };

  struct Machine {
    // Shared side: any thread, under mu.
    std::mutex mu;
    std::condition_variable cv;
    RingBuffer<Task> queue;
    bool sleeping = false;  // the owner is parked (or about to be) on cv
    bool stop = false;
    // Instrumentation tallies of shared-queue posts.
    size_t peak_depth = 0;
    int64_t tasks_posted = 0;
    // queue.size(), stored under mu; the owner spins on it lock-free.
    std::atomic<size_t> pending{0};

    // Owner side, on its own cache line: touched only by the worker
    // (and by the driver at quiescence, ordered through done_mu_).
    alignas(64) RingBuffer<Task> local;
    size_t local_peak_depth = 0;
    int64_t local_tasks_posted = 0;

    // ClusterMetrics tallies, summed by MetricsSnapshot(). cpu_seconds is
    // written by this machine's worker, the others by the thread posting
    // from this machine (almost always the same worker), so the relaxed
    // increments are uncontended yet race-free from any thread.
    alignas(64) std::atomic<double> cpu_seconds{0};
    std::atomic<int64_t> messages{0};
    std::atomic<int64_t> network_bytes{0};
    std::atomic<int64_t> local_bytes{0};
    std::atomic<int64_t> disk_bytes{0};

    std::thread thread;
  };

  // Checked index into machines_.
  Machine* MachineAt(int machine) const;
  // Enqueues `fn` on `machine`'s worker: onto its local queue when called
  // from that worker, else onto its shared queue (waking it only if it is
  // parked). Increments outstanding_ before the push so the driver can
  // never observe a false quiescence between enqueue and execution.
  void Post(int machine, Task task);
  void WorkerLoop(int machine, Machine* m);
  // Called by m's worker with its local queue empty: spins (when allowed),
  // then parks until the shared queue is non-empty and swaps it into the
  // local queue. Returns false once stop is set and both queues are empty.
  bool Refill(Machine* m);
  // Emits the driver's quiescence-barrier wait [t_start, t_end] as a trace
  // span and a histogram observation.
  void RecordQuiesceWait(double t_start, double t_end);

  sim::ClusterConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Machine>> machines_;
  // Workers spin before parking; false when oversubscribed.
  const bool spin_;

  // Outstanding tasks: posted but not yet finished executing.
  std::atomic<int64_t> outstanding_{0};
  // Guards idle_callbacks_ and backs the driver's quiescence wait.
  mutable std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> idle_callbacks_;

  obs::TraceRecorder* trace_ = nullptr;
  obs::live::EventLog* event_log_ = nullptr;
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  // True once a trace or metrics registry attached: gates every clock read
  // and span/histogram emission, so the uninstrumented hot path is exactly
  // the pre-instrumentation queue push plus one relaxed-ish load. Atomic
  // because the workers already exist when observers attach: they probe the
  // flag on wakeup before any task (and its mutex edge) reaches them. The
  // release store (after the pointer writes) / acquire load pairing also
  // publishes trace_/metrics_registry_ to the workers.
  std::atomic<bool> instrumented_{false};
};

}  // namespace mitos::runtime

#endif  // MITOS_RUNTIME_THREADS_BACKEND_H_
