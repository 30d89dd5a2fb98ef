// The execution-backend seam: everything the runtime (hosts, path
// authority, executor) needs from "the machines" — CPU execution, network
// transfers, disk I/O, a clock, and a quiescence barrier — behind one
// interface, so the same operator kernels, PathAuthority decisions, and
// control plane run on either substrate:
//
//   * DesBackend (this header) delegates to sim::Simulator + sim::Cluster:
//     the deterministic discrete-event oracle. Virtual time is the product;
//     byte-for-byte identical to the pre-seam runtime.
//   * ThreadsBackend (runtime/threads_backend.h) is real parallelism:
//     thread-per-machine with MPSC channels and wall-clock measurement.
//     Results are element-identical to the DES (differential-tested in
//     tests/runtime/backend_diff_test.cc); *time* is real.
//
// Callbacks passed to ExecCpu/Send/DiskIo/DiskRead always run "on the
// target machine": the DES runs everything on the one host thread, the
// threads backend runs them on the target machine's worker thread. Hosts
// are machine-confined, so this rule is what makes the same host code
// correct on both backends without locks in host.cc.
//
// DES-only escape hatches: simulator() and cluster() return nullptr on
// real-parallel backends. Fault handling and background timers (heartbeats,
// watchdog checks, snapshot cadence) require a simulator; callers gate
// those features on simulator() != nullptr.
#ifndef MITOS_RUNTIME_BACKEND_H_
#define MITOS_RUNTIME_BACKEND_H_

#include <functional>
#include <string>

#include "obs/live/event_log.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/simulator.h"

namespace mitos::runtime {

class Backend {
 public:
  virtual ~Backend() = default;

  virtual int num_machines() const = 0;
  // Cost-model constants (chunk sizes, message header bytes, per-element
  // CPU). Real-parallel backends still consult chunk_elements and the
  // message-byte constants for chunking and byte accounting.
  virtual const sim::ClusterConfig& config() const = 0;

  // Current time in seconds: virtual time on the DES, wall-clock seconds
  // since backend construction on real-parallel backends.
  virtual double now() const = 0;
  // Time the last real (foreground) work finished; == now() on backends
  // without background timers.
  virtual double busy_until() const = 0;

  // Occupies one core of `machine` for `cpu_seconds` of *modelled* CPU,
  // then runs `done` on that machine. Real-parallel backends ignore the
  // modelled charge — `done` itself is the real work and its wall time is
  // what gets metered. `trace_label` names the core span when tracing.
  virtual void ExecCpu(int machine, double cpu_seconds,
                       std::function<void()> done,
                       std::string trace_label = {}) = 0;

  // Transfers `bytes` from `src` to `dst`; `done` runs on `dst` at
  // delivery. Per-(src,dst) FIFO: two sends from the same source to the
  // same destination deliver in order (chunks before their end-of-bag
  // marker).
  virtual void Send(int src, int dst, size_t bytes,
                    std::function<void()> done) = 0;

  // Disk write/read of `bytes` on `machine`; `done` runs there when the
  // I/O completes. `memory` models an in-memory dataset (no disk).
  virtual void DiskIo(int machine, size_t bytes, std::function<void()> done,
                      bool memory = false) = 0;

  // Like DiskIo but reports progress: `on_progress(i)` runs on `machine`
  // for each of `pieces` slices, in order — sources emit chunks at I/O
  // pace so downstream operators overlap with reading.
  virtual void DiskRead(int machine, size_t bytes, int pieces,
                        std::function<void(int)> on_progress,
                        bool memory = false) = 0;

  // Coordinator-side delayed call (job launch, modelled decision
  // overhead). Real-parallel backends run `fn` on machine 0 without the
  // modelled delay — callers that need a real delay (none today) must gate
  // on simulator().
  virtual void ScheduleAfter(double delay, std::function<void()> fn) = 0;

  // Runs `fn` at global quiescence (the superstep-barrier primitive).
  // Callbacks fire one at a time: each runs only when everything it
  // (transitively) caused has drained again.
  virtual void ScheduleWhenIdle(std::function<void()> fn) = 0;

  // Drives the backend until all work (and idle callbacks) drain. On the
  // DES this advances virtual time; on the threads backend it blocks the
  // calling thread until the machine threads go quiescent.
  virtual void Run() = 0;

  // Consistent copy of the resource counters (safe to call concurrently
  // with running work on real-parallel backends).
  virtual sim::ClusterMetrics MetricsSnapshot() const = 0;

  // Observability attachment points (both nullable).
  virtual void set_trace(obs::TraceRecorder* trace) = 0;
  virtual obs::TraceRecorder* trace() const = 0;
  virtual void set_event_log(obs::live::EventLog* log) = 0;
  virtual obs::live::EventLog* event_log() const = 0;

  // DES-only escape hatches (nullptr on real-parallel backends): fault
  // plans, background timers, and recovery epochs live on the simulator
  // and the simulated cluster.
  virtual sim::Simulator* simulator() { return nullptr; }
  virtual sim::Cluster* cluster() { return nullptr; }
};

// The discrete-event backend: a pure delegation shim over Simulator +
// Cluster. Runs through this shim are byte-identical to runs that used the
// pair directly (it adds no events, costs, or reordering).
class DesBackend : public Backend {
 public:
  DesBackend(sim::Simulator* sim, sim::Cluster* cluster)
      : sim_(sim), cluster_(cluster) {}

  int num_machines() const override { return cluster_->num_machines(); }
  const sim::ClusterConfig& config() const override {
    return cluster_->config();
  }
  double now() const override { return sim_->now(); }
  double busy_until() const override { return sim_->busy_until(); }

  void ExecCpu(int machine, double cpu_seconds, std::function<void()> done,
               std::string trace_label = {}) override {
    cluster_->ExecCpu(machine, cpu_seconds, std::move(done),
                      std::move(trace_label));
  }
  void Send(int src, int dst, size_t bytes,
            std::function<void()> done) override {
    cluster_->Send(src, dst, bytes, std::move(done));
  }
  void DiskIo(int machine, size_t bytes, std::function<void()> done,
              bool memory = false) override {
    cluster_->DiskIo(machine, bytes, std::move(done), memory);
  }
  void DiskRead(int machine, size_t bytes, int pieces,
                std::function<void(int)> on_progress,
                bool memory = false) override {
    cluster_->DiskRead(machine, bytes, pieces, std::move(on_progress),
                       memory);
  }
  void ScheduleAfter(double delay, std::function<void()> fn) override {
    sim_->ScheduleAfter(delay, std::move(fn));
  }
  void ScheduleWhenIdle(std::function<void()> fn) override {
    sim_->ScheduleWhenIdle(std::move(fn));
  }
  void Run() override { sim_->Run(); }

  sim::ClusterMetrics MetricsSnapshot() const override {
    return cluster_->metrics();
  }

  void set_trace(obs::TraceRecorder* trace) override {
    cluster_->set_trace(trace);
  }
  obs::TraceRecorder* trace() const override { return cluster_->trace(); }
  void set_event_log(obs::live::EventLog* log) override {
    cluster_->set_event_log(log);
  }
  obs::live::EventLog* event_log() const override {
    return cluster_->event_log();
  }

  sim::Simulator* simulator() override { return sim_; }
  sim::Cluster* cluster() override { return cluster_; }

 private:
  sim::Simulator* sim_;
  sim::Cluster* cluster_;
};

}  // namespace mitos::runtime

#endif  // MITOS_RUNTIME_BACKEND_H_
