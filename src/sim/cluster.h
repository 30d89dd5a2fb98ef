// Simulated cluster: machines with cores, NICs, and disks.
//
// Calibration targets the paper's testbed (Sec. 6.1): 26 machines, 2×8-core
// Opteron 6128, Gigabit Ethernet, 4×1TB disks, HDFS. Absolute constants
// matter less than their ratios — the evaluation shapes (job-launch
// overhead linear in machine count, shuffle costs, pipelining overlap)
// derive from the model structure.
#ifndef MITOS_SIM_CLUSTER_H_
#define MITOS_SIM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/live/event_log.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace mitos::sim {

struct ClusterConfig {
  int num_machines = 4;
  int cores_per_machine = 16;

  // Per-element CPU cost of one operator visit (seconds), multiplied by the
  // operator's cost factor (hash builds cost more than maps). Calibrated to
  // JVM dataflow engines (~0.5M element-visits/sec/core), which is what the
  // paper's systems are. Since the batched data plane, this rate is charged
  // per chunk rather than per element (see cpu_per_chunk/cpu_per_byte); it
  // still prices the fixed open/close/finish bookkeeping, which is counted
  // in element-units.
  double cpu_per_element = 1.5e-6;

  // Batched data plane: a kernel visit is charged per delivered chunk as
  //   cpu_per_chunk + payload_bytes * cpu_per_byte
  // (times the operator's cost factor). cpu_per_chunk amortizes dispatch
  // bookkeeping (two element-units); cpu_per_byte is calibrated so a full
  // default chunk of int64s (chunk_elements * 8 bytes) costs exactly what
  // the old per-element model charged — full-chunk virtual timings are
  // preserved, while tiny chunks now pay a visible dispatch overhead (the
  // chunk-size ablation measures precisely this).
  double cpu_per_chunk = 2.0 * 1.5e-6;
  double cpu_per_byte = (2048.0 - 2.0) * 1.5e-6 / (2048.0 * 8.0);

  // Network: per-message latency plus endpoint (NIC) occupancy at
  // bytes/bandwidth. Gigabit Ethernet ~ 125 MB/s.
  double net_latency = 0.4e-3;
  double net_bandwidth = 125e6;

  // Same-machine transfers (no NIC occupancy).
  double local_latency = 15e-6;
  double local_bandwidth = 8e9;

  // Aggregate disk bandwidth per machine (the paper's nodes had 4 disks).
  double disk_bandwidth = 300e6;

  // In-memory dataset bandwidth (Spark-style RDD cache reads/writes).
  double memory_bandwidth = 8e9;

  // Fixed modelled size of control messages and chunk headers (bytes).
  size_t control_message_bytes = 64;

  // Elements per pipeline chunk.
  size_t chunk_elements = 2048;
};

struct ClusterMetrics {
  int64_t messages = 0;          // network messages (remote only)
  int64_t network_bytes = 0;     // bytes over the (remote) network
  int64_t local_bytes = 0;       // same-machine transfer bytes
  int64_t disk_bytes = 0;
  double cpu_seconds = 0;        // total busy CPU time across machines
  int64_t elements_processed = 0;
  int64_t dropped_messages = 0;  // fault-injected transmission losses
};

// Resource model over the simulator. All operations are asynchronous:
// callers pass a completion callback which runs at the modelled finish time.
class Cluster {
 public:
  Cluster(Simulator* sim, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_machines() const { return config_.num_machines; }
  const ClusterConfig& config() const { return config_; }
  Simulator* sim() { return sim_; }

  // Attaches an execution-trace recorder; nullptr (the default) disables
  // tracing entirely. Recording is observational only — it never changes
  // the schedule, costs, or results of a run.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  // Attaches a streaming event log (obs/live/); nullptr disables it. Like
  // the recorder it is purely observational: the cluster appends fault
  // records (drops, the crash/restart timeline) without changing the run.
  void set_event_log(obs::live::EventLog* log) { event_log_ = log; }
  obs::live::EventLog* event_log() const { return event_log_; }

  // Installs a fault plan (caller-owned; may be nullptr). A null or empty
  // plan disables fault handling entirely — every operation then behaves
  // byte-identically to a cluster without fault support. With a plan
  // installed, Send/ExecCpu/DiskIo/DiskRead consult machine up/down state:
  // work issued on a down machine is lost, completions whose machine
  // crashed in between are dropped, remote messages may be dropped (and
  // retransmitted) per the seeded RNG, and slow machines stretch CPU time.
  void InstallFaultPlan(const FaultPlan* plan);
  const FaultPlan* fault_plan() const { return faults_; }

  // Fault-state queries (pure functions of virtual time over the plan's
  // crash/restart transitions; trivially "up forever" without a plan).
  bool machine_up(int machine) const;
  // Number of crash/restart transitions machine has been through at `now`
  // (even = up, odd = down). A changed epoch means all state was lost.
  int machine_epoch(int machine) const;
  // Earliest time >= now at which the machine is (back) up; +infinity if it
  // never restarts.
  SimTime machine_up_time(int machine) const;
  // Time of the crash that took the machine down (only valid while down).
  SimTime machine_down_since(int machine) const;

  // Occupies one core of `machine` for `cpu_seconds`, starting no earlier
  // than now. `done` runs at completion. `trace_label` names the core span
  // in the execution trace (ignored without a recorder; pass the operator
  // phase, e.g. "counts.push").
  void ExecCpu(int machine, double cpu_seconds, std::function<void()> done,
               std::string trace_label = {});

  // Transfers `bytes` from `src` to `dst`. Remote transfers occupy both
  // NICs and pay latency; local transfers pay only a small latency plus
  // memory-bandwidth time. `done` runs at delivery.
  void Send(int src, int dst, size_t bytes, std::function<void()> done);

  // Occupies `machine`'s disk for bytes/disk_bandwidth. With `memory` set,
  // models an in-memory dataset instead: memory bandwidth, no disk
  // occupancy (Spark RDD cache).
  void DiskIo(int machine, size_t bytes, std::function<void()> done,
              bool memory = false);

  // Like DiskIo but reports intermediate progress: `on_progress(i)` runs
  // when the i-th of `pieces` equal slices has been read — sources use this
  // to emit chunks at disk pace, which is what lets downstream operators
  // overlap with reading (loop pipelining).
  void DiskRead(int machine, size_t bytes, int pieces,
                std::function<void(int)> on_progress, bool memory = false);

  ClusterMetrics& metrics() { return metrics_; }
  const ClusterMetrics& metrics() const { return metrics_; }

 private:
  struct CoreSlot {
    int core;
    SimTime start;
    SimTime finish;
  };
  // Earliest-available slot on a set of serial resources (cores).
  CoreSlot AcquireCore(int machine, double duration);

  // Lazily resets `machine`'s resource clocks after a restart (its cores,
  // NIC, and disk come back idle). No-op without an epoch change.
  void RefreshFaultView(int machine);
  // A cross-machine transmission, including any retransmits after drops.
  void SendRemote(int src, int dst, size_t bytes, std::function<void()> done);
  int EpochAt(int machine, SimTime t) const;

  Simulator* sim_;
  ClusterConfig config_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::live::EventLog* event_log_ = nullptr;
  // core_free_[m][c]: time when core c of machine m becomes free.
  std::vector<std::vector<SimTime>> core_free_;
  std::vector<SimTime> nic_out_free_;
  std::vector<SimTime> nic_in_free_;
  std::vector<SimTime> disk_free_;
  std::vector<SimTime> local_last_arrival_;  // FIFO clamp for loopback
  ClusterMetrics metrics_;

  // Fault state (all inert when faults_ == nullptr).
  const FaultPlan* faults_ = nullptr;
  // Per machine: sorted crash/restart transition times.
  std::vector<std::vector<SimTime>> transitions_;
  // Epoch the resource clocks were last reset for (RefreshFaultView).
  std::vector<int> clock_epoch_;
  Rng drop_rng_{0};
};

}  // namespace mitos::sim

#endif  // MITOS_SIM_CLUSTER_H_
