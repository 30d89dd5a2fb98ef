#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "ir/cfg.h"
#include "obs/live/snapshot.h"
#include "obs/live/watchdog.h"
#include "runtime/host.h"
#include "runtime/recovery.h"

namespace mitos::runtime {

std::string RunStats::ToString() const {
  std::ostringstream out;
  out << "time=" << total_seconds << "s jobs=" << jobs
      << " decisions=" << decisions << " bags=" << bags
      << " elements=" << elements << " chunks=" << chunks
      << " net=" << cluster.network_bytes
      << "B msgs=" << cluster.messages << " disk=" << cluster.disk_bytes
      << "B cpu=" << cluster.cpu_seconds << "s";
  // Fault fields only when something actually went wrong (or was durably
  // checkpointed), so fault-free stats lines are unchanged.
  if (attempts > 1) {
    out << " attempts=" << attempts << " recovery=" << recovery_seconds
        << "s recomputed=" << recomputed_bags
        << " replayed=" << replayed_bags;
  }
  if (checkpoints > 0) out << " ckpt=" << checkpoints;
  if (cluster.dropped_messages > 0) {
    out << " dropped=" << cluster.dropped_messages;
  }
  return out.str();
}

namespace {

// One job execution: owns hosts, managers, and the authority.
//
// Thread-safety: on the DES backend everything runs on one host thread and
// the synchronization below is free of contention. On real-parallel
// backends the RuntimeContext methods are called from machine worker
// threads, so the shared tallies are atomics, the file/staging maps and the
// status are mutex-guarded, and control-flow decisions serialize through
// control_mu_ (consecutive decisions may arrive from different machines;
// the mutex publishes each decision's authority-state writes to the next).
class Job : public RuntimeContext {
 public:
  Job(Backend* backend, sim::SimFileSystem* fs, const ir::Program& program,
      const dataflow::LogicalGraph& graph, const ExecutorOptions& options,
      obs::live::StepWatchdog* watchdog = nullptr,
      FaultRecoveryState* recovery = nullptr, int attempt = 1)
      : backend_(backend),
        fs_(fs),
        program_(program),
        graph_(graph),
        options_(options),
        cfg_(program) {
    faults_ = options.faults;
    watchdog_ = watchdog;
    recovery_ = recovery;
    attempt_ = attempt;
  }

  StatusOr<RunStats> Execute() {
    const int machines = backend_->num_machines();
    const sim::ClusterMetrics before = backend_->MetricsSnapshot();
    double t_start = backend_->now();

    // Attach the recorder to the backend so resource spans (cores, NICs,
    // disks) are captured; keep an already-attached recorder (api::Run
    // attaches it before any baseline engine launches its jobs).
    if (options_.trace != nullptr && backend_->trace() == nullptr) {
      backend_->set_trace(options_.trace);
    }
    if (obs::TraceRecorder* tr = trace()) {
      tr->SetProcessName(obs::kEnginePid, "engine");
      for (int m = 0; m < machines; ++m) {
        tr->SetProcessName(obs::MachinePid(m), "machine" + std::to_string(m));
      }
    }
    MITOS_VLOG(1) << "job start: " << graph_.num_nodes() << " operators on "
                  << machines << " machines"
                  << (options_.pipelining ? "" : ", superstep barriers");

    // Per-machine control flow managers over the shared path storage.
    PathAuthority::Options auth_options;
    auth_options.pipelining = options_.pipelining;
    auth_options.decision_overhead = options_.decision_overhead;
    auth_options.max_path_len = options_.max_path_len;
    auth_options.trace = trace();
    auth_options.metrics = options_.metrics;
    auth_options.elements_probe = [this] { return elements_.load(); };
    auth_options.faults = faults_;
    if (faults_ != nullptr && faults_->checkpoint_every > 0) {
      auth_options.on_checkpoint = [this] { OnCheckpoint(); };
    }

    // Live observability plane (obs/live/). All hooks are observational
    // and the periodic machinery (snapshot cadence, watchdog checks) runs
    // on background simulator timers — it exists only on the DES backend,
    // where it leaves the foreground schedule (and therefore the run's
    // virtual-time behavior) untouched.
    obs::live::EventLog* elog = options_.live.event_log;
    if (elog != nullptr) {
      auth_options.event_log = elog;
      if (backend_->event_log() == nullptr) backend_->set_event_log(elog);
    }
    if (options_.live.any()) {
      auth_options.on_step = [this](int step, bool initial) {
        OnLiveStep(step, initial);
      };
    }
    if (elog != nullptr && options_.metrics != nullptr &&
        options_.live.snapshots.enabled &&
        backend_->simulator() != nullptr) {
      snapshots_ = std::make_unique<obs::live::SnapshotWriter>(
          options_.metrics, elog, options_.live.snapshots);
    }
    if (watchdog_ != nullptr) {
      // The watchdog is run-scoped (one instance across the attempt loop,
      // so max_reports caps the whole run); each attempt resets its gap
      // window — pre-fault cadence must not leak into the re-execution —
      // and rewires the probes to this attempt's state.
      watchdog_->OnAttemptStart();
      watchdog_->set_quiescent([this] { return failed() || JobDone(); });
      watchdog_->set_diagnose([this] { return StuckHosts(); });
    }

    managers_.clear();
    manager_ptrs_.clear();
    for (int m = 0; m < machines; ++m) {
      managers_.push_back(std::make_unique<ControlFlowManager>(&path_));
      manager_ptrs_.push_back(managers_.back().get());
    }
    authority_ = std::make_unique<PathAuthority>(
        &program_, backend_, &path_, manager_ptrs_, auth_options,
        [this](Status s) { Fail(std::move(s)); });

    // Hosts: one per (node, instance).
    hosts_.clear();
    hosts_.resize(static_cast<size_t>(graph_.num_nodes()));
    op_cpu_ = std::make_unique<std::atomic<double>[]>(
        static_cast<size_t>(graph_.num_nodes()));
    for (const dataflow::LogicalNode& node : graph_.nodes) {
      auto& instances = hosts_[static_cast<size_t>(node.id)];
      for (int i = 0; i < node.parallelism; ++i) {
        int machine = MachineOf(node.id, i);
        instances.push_back(std::make_unique<BagOperatorHost>(
            this, &graph_.node(node.id), i, machine,
            manager_ptrs_[static_cast<size_t>(machine)]));
      }
    }
    for (auto& instances : hosts_) {
      for (auto& host : instances) host->Init();
    }

    // Job launch: the coordinator deploys tasks serially across machines.
    double launch =
        options_.launch_base + options_.launch_per_machine * machines;
    backend_->ScheduleAfter(launch, [this] {
      if (!failed()) authority_->Start(/*machine=*/0);
    });

    // Failure detection: a background heartbeat tick declares the attempt
    // lost when a machine stays down or progress stalls. DES-only (the
    // authority rejects fault plans on real-parallel backends).
    if (faults_ != nullptr) {
      last_progress_ = backend_->now();
      MonitorTick();
    }

    // Periodic snapshot cadence (every K virtual seconds, on top of the
    // per-step-boundary snapshots OnLiveStep emits).
    if (snapshots_ != nullptr &&
        options_.live.snapshots.every_virtual_seconds > 0) {
      SnapshotTick();
    }

    backend_->Run();

    {
      std::lock_guard<std::mutex> lock(status_mu_);
      if (!status_.ok()) return status_;
    }

    // The job must have drained cleanly: path complete, all hosts idle.
    if (!authority_->path().complete()) {
      if (faults_ != nullptr) {
        return Status::Unavailable("attempt drained before path completion");
      }
      return Status::Internal("job did not complete: path " +
                              authority_->path().ToString() + "\n" +
                              StuckHosts());
    }
    std::string stuck = StuckHosts();
    if (!stuck.empty()) {
      if (faults_ != nullptr) {
        // A crash during the final control-flow step can leave peers
        // waiting on in-flight chunks that died with the machine: the
        // path is complete, no further broadcast will time out, and the
        // queue simply drains. That is a lost attempt, not a bug — hand
        // it to the attempt loop like any other faulted drain.
        return Status::Unavailable(
            "attempt drained with unfinished operators:\n" + stuck);
      }
      return Status::Internal("job drained with unfinished operators:\n" +
                              stuck);
    }

    RunStats stats;
    // Under fault handling or live observability, trailing background
    // timers (heartbeats, ack timeouts, watchdog checks, snapshot ticks)
    // may outlive the real work; busy_until() is when the last foreground
    // event ran. Without background events busy_until() == now(), so this
    // never changes a plain run's reported time.
    const bool background_timers = faults_ != nullptr ||
                                   watchdog_ != nullptr ||
                                   snapshots_ != nullptr;
    const double t_end = background_timers
                             ? std::max(t_start, backend_->busy_until())
                             : backend_->now();
    stats.total_seconds = t_end - t_start;
    stats.launch_seconds = launch;
    stats.jobs = 1;
    stats.decisions = authority_->decisions();
    stats.bags = bags_.load();
    stats.elements = elements_.load();
    stats.chunks = chunks_.load();
    stats.chunk_fallbacks = chunk_fallbacks_.load();
    stats.hoisted_reuses = reuses_.load();
    stats.peak_buffered_bytes = peak_buffered_bytes_.load();
    for (const dataflow::LogicalNode& node : graph_.nodes) {
      double cpu = op_cpu_[static_cast<size_t>(node.id)].load();
      if (cpu > 0) stats.operator_cpu[node.name] += cpu;
    }
    const sim::ClusterMetrics after = backend_->MetricsSnapshot();
    stats.cluster.messages = after.messages - before.messages;
    stats.cluster.network_bytes = after.network_bytes - before.network_bytes;
    stats.cluster.local_bytes = after.local_bytes - before.local_bytes;
    stats.cluster.disk_bytes = after.disk_bytes - before.disk_bytes;
    stats.cluster.cpu_seconds = after.cpu_seconds - before.cpu_seconds;
    stats.cluster.dropped_messages =
        after.dropped_messages - before.dropped_messages;
    stats.recomputed_bags = recomputed_bags_.load();
    stats.replayed_bags = replayed_bags_.load();
    stats.checkpoints = checkpoints_;

    if (obs::TraceRecorder* tr = trace()) {
      int lane = tr->Lane(obs::kEnginePid, "jobs");
      tr->Span(obs::kEnginePid, lane, "launch", "job", t_start,
               t_start + launch, {{"machines", machines}});
      tr->Span(obs::kEnginePid, lane, "job", "job", t_start, t_end,
               {{"operators", graph_.num_nodes()},
                {"decisions", stats.decisions},
                {"bags", stats.bags}});
    }
    if (obs::MetricsRegistry* mr = options_.metrics) {
      mr->Inc("jobs");
      mr->Inc("bags", stats.bags);
      mr->Inc("elements", stats.elements);
      mr->Inc("chunks", stats.chunks);
      mr->Inc("chunk_fallback", stats.chunk_fallbacks);
      mr->Inc("hoisted_reuses", stats.hoisted_reuses);
      mr->Observe("job_launch_seconds", launch);
      mr->Observe("job_seconds", stats.total_seconds);
    }
    if (snapshots_ != nullptr) snapshots_->OnRunEnd(t_end);
    MITOS_VLOG(1) << "job done: " << stats.ToString();
    return stats;
  }

  // ----- RuntimeContext -----
  Backend* backend() override { return backend_; }
  sim::SimFileSystem* fs() override { return fs_; }
  const dataflow::LogicalGraph& graph() const override { return graph_; }
  const ir::Cfg& cfg() const override { return cfg_; }
  bool hoisting() const override { return options_.hoisting; }
  bool blocking_shuffles() const override {
    return options_.blocking_shuffles;
  }
  obs::TraceRecorder* trace() const override {
    return options_.trace != nullptr ? options_.trace : backend_->trace();
  }

  BagOperatorHost* host(dataflow::NodeId node, int instance) override {
    return hosts_[static_cast<size_t>(node)][static_cast<size_t>(instance)]
        .get();
  }

  int MachineOf(dataflow::NodeId node, int instance) const override {
    const dataflow::LogicalNode& n = graph_.node(node);
    if (n.parallelism == 1) {
      // Spread singleton (control-flow spine) operators across machines.
      return node % backend_->num_machines();
    }
    return instance % backend_->num_machines();
  }

  void OnDecision(ir::BlockId block, int path_len, bool value,
                  int machine) override {
    // Decisions are serialized by path order, but consecutive decisions
    // arrive from different machine threads on real-parallel backends; the
    // mutex publishes each decision's authority-state writes to the next.
    // Never reentered on one thread: condition evaluation always reaches
    // this through an ExecCpu completion, which is asynchronous on every
    // backend.
    std::lock_guard<std::mutex> lock(control_mu_);
    if (failed()) return;
    authority_->OnDecision(block, path_len, value, machine);
  }

  void Fail(Status status) override {
    std::lock_guard<std::mutex> lock(status_mu_);
    if (status_.ok()) {
      status_ = std::move(status);
      failed_.store(true, std::memory_order_release);
    }
  }
  bool failed() const override {
    return failed_.load(std::memory_order_acquire);
  }

  void BeginFileWrite(const std::string& filename, BagId bag) override {
    std::lock_guard<std::mutex> lock(file_mu_);
    auto it = file_writers_.find(filename);
    if (it == file_writers_.end() || !(it->second == bag)) {
      // First partition of this output bag: overwrite semantics.
      fs_->Remove(filename);
      file_writers_[filename] = bag;
      file_partitions_[filename] = graph_.node(bag.node).parallelism;
    }
  }

  void AppendOutput(const std::string& filename, int instance, int bag_len,
                    const DatumVector& data) override {
    // Stage partitions and flush the whole file at once, each partition
    // sorted, partitions in instance order. This canonicalizes the
    // within-partition element order (which chunk arrival order — and
    // therefore pipelining, recovery replay, and real-parallel thread
    // interleaving — would otherwise leak into the output), making
    // recovered runs byte-identical to fault-free ones and threads-backend
    // runs element-identical to DES runs. Bags are unordered, so any fixed
    // order is valid.
    std::lock_guard<std::mutex> lock(file_mu_);
    StagedFile& sf = staged_files_[filename];
    if (bag_len > sf.bag_len) {
      // A newer output bag for this file supersedes anything staged.
      sf.bag_len = bag_len;
      sf.parts.clear();
    } else if (bag_len < sf.bag_len) {
      return;  // stale straggler partition of an already-superseded bag
    }
    DatumVector sorted = data;
    std::sort(sorted.begin(), sorted.end());
    sf.parts[instance] = std::move(sorted);
    if (static_cast<int>(sf.parts.size()) < file_partitions_[filename]) {
      return;
    }
    DatumVector combined;
    for (auto& [inst, part] : sf.parts) {
      combined.insert(combined.end(), part.begin(), part.end());
    }
    fs_->Remove(filename);
    fs_->Append(filename, combined);
    sf.parts.clear();  // keep sf.bag_len: guards against stale partitions
  }

  void CountBag(int64_t elements_in) override {
    bags_.fetch_add(1, std::memory_order_relaxed);
    elements_.fetch_add(elements_in, std::memory_order_relaxed);
    if (options_.metrics != nullptr) {
      options_.metrics->Observe("bag_elements",
                                static_cast<double>(elements_in));
    }
  }

  void CountChunk(bool fallback) override {
    chunks_.fetch_add(1, std::memory_order_relaxed);
    if (fallback) chunk_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  bool columnar() const override { return options_.columnar; }

  void CountReuse() override {
    reuses_.fetch_add(1, std::memory_order_relaxed);
  }

  void TrackMemory(int64_t delta_bytes) override {
    const int64_t now_bytes =
        buffered_bytes_.fetch_add(delta_bytes, std::memory_order_relaxed) +
        delta_bytes;
    int64_t peak = peak_buffered_bytes_.load(std::memory_order_relaxed);
    while (now_bytes > peak &&
           !peak_buffered_bytes_.compare_exchange_weak(
               peak, now_bytes, std::memory_order_relaxed)) {
    }
    if (obs::TraceRecorder* tr = trace()) {
      tr->Counter(obs::kEnginePid, "buffered_bytes", backend_->now(),
                  static_cast<double>(now_bytes));
    }
  }
  bool discard_spent_bags() const override {
    return options_.discard_spent_bags;
  }

  void ChargeOpCpu(dataflow::NodeId node, double seconds) override {
    op_cpu_[static_cast<size_t>(node)].fetch_add(seconds,
                                                 std::memory_order_relaxed);
  }

  bool IsReplayBag(dataflow::NodeId node, int instance,
                   int path_len) const override {
    return recovery_ != nullptr &&
           recovery_->IsReplay(BagKey{node, instance, path_len});
  }

  void OnBagFinished(dataflow::NodeId node, int instance, int path_len,
                     bool replay) override {
    if (recovery_ == nullptr) return;  // implies a DES backend (see ctor)
    const BagKey key{node, instance, path_len};
    const int machine = MachineOf(node, instance);
    recovery_->OnBagFinished(key, machine,
                             backend_->cluster()->machine_epoch(machine));
    if (replay) {
      replayed_bags_.fetch_add(1, std::memory_order_relaxed);
    } else if (attempt_ > 1 && recovery_->WasLost(key)) {
      recomputed_bags_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void NoteProgress() override {
    last_progress_.store(backend_->now(), std::memory_order_relaxed);
  }

  // Counters the attempt loop accumulates across failed attempts.
  int64_t recomputed_bags() const { return recomputed_bags_.load(); }
  int64_t replayed_bags() const { return replayed_bags_.load(); }
  int checkpoints() const { return checkpoints_; }

 private:
  bool JobDone() const {
    if (!path_.complete()) return false;
    for (const auto& instances : hosts_) {
      for (const auto& host : instances) {
        if (!host->Idle()) return false;
      }
    }
    return true;
  }

  void MonitorTick() {
    if (failed() || JobDone()) return;  // chain ends; queue can drain
    sim::Cluster* cluster = backend_->cluster();
    const double now = backend_->now();
    obs::live::EventLog* elog = options_.live.event_log;
    for (int m = 0; m < backend_->num_machines(); ++m) {
      if (!cluster->machine_up(m) &&
          now - cluster->machine_down_since(m) >=
              faults_->heartbeat_timeout) {
        if (elog != nullptr) {
          elog->Append(now, "fault",
                       {{"what", "machine_lost"},
                        {"machine", m},
                        {"down_for",
                         now - cluster->machine_down_since(m)}});
        }
        Fail(Status::Unavailable(
            "machine " + std::to_string(m) + " lost (no heartbeat for " +
            std::to_string(now - cluster->machine_down_since(m)) + "s)"));
        return;
      }
    }
    if (now - last_progress_.load() > faults_->stall_timeout) {
      if (elog != nullptr) {
        elog->Append(now, "fault",
                     {{"what", "attempt_stalled"},
                      {"silent_for", now - last_progress_.load()}});
      }
      Fail(Status::Unavailable(
          "attempt stalled: no delivery or completed work for " +
          std::to_string(now - last_progress_.load()) + "s"));
      return;
    }
    backend_->simulator()->ScheduleBackgroundAfter(
        faults_->heartbeat_interval, [this] { MonitorTick(); });
  }

  // Background snapshot cadence; the chain ends at job completion (or
  // failure) so the simulator's queue can drain.
  void SnapshotTick() {
    backend_->simulator()->ScheduleBackgroundAfter(
        options_.live.snapshots.every_virtual_seconds, [this] {
          if (failed() || JobDone()) return;
          snapshots_->OnTimerTick(backend_->now());
          SnapshotTick();
        });
  }

  // Fired by the path authority at every broadcast (step_index = the
  // completed 0-based decision, -1 for the initial path seed).
  void OnLiveStep(int step, bool initial) {
    const double now = backend_->now();
    if (snapshots_ != nullptr && !initial &&
        options_.live.snapshots.at_step_boundaries) {
      snapshots_->OnStepBoundary(now, step);
    }
    if (watchdog_ != nullptr) {
      watchdog_->OnStepCompleted(now, initial ? -1 : step);
    }
    if (options_.live.progress) {
      obs::live::Progress p;
      p.virtual_time = now;
      p.step = step;
      p.path_len = path_.size();
      p.attempt = attempt_;
      p.faults_seen = options_.live.event_log != nullptr
                          ? options_.live.event_log->CountKind("fault")
                          : 0;
      p.complete = path_.complete();
      options_.live.progress(p);
    }
  }

  // Every k-th control-flow decision: everything finished so far becomes
  // durable, charging one bulk disk write per machine for the currently
  // buffered state.
  void OnCheckpoint() {
    if (recovery_ == nullptr || failed()) return;
    recovery_->MarkAllDurable();
    ++checkpoints_;
    const int machines = backend_->num_machines();
    const size_t per_machine =
        static_cast<size_t>(std::max<int64_t>(buffered_bytes_.load(), 0)) /
            static_cast<size_t>(machines) +
        1;
    for (int m = 0; m < machines; ++m) {
      backend_->DiskIo(m, per_machine, [] {});
    }
    if (obs::TraceRecorder* tr = trace()) {
      tr->Instant(obs::kEnginePid, tr->Lane(obs::kEnginePid, "recovery"),
                  "checkpoint", "fault", backend_->now(),
                  {{"decisions", authority_->decisions()},
                   {"bytes", static_cast<int64_t>(per_machine) * machines}});
    }
    if (obs::live::EventLog* elog = options_.live.event_log) {
      elog->Append(backend_->now(), "checkpoint",
                   {{"decisions", authority_->decisions()},
                    {"bytes", static_cast<int64_t>(per_machine) * machines}});
    }
    if (options_.metrics != nullptr) options_.metrics->Inc("checkpoints");
  }

  std::string StuckHosts() const {
    std::string out;
    int listed = 0;
    for (const auto& instances : hosts_) {
      for (const auto& host : instances) {
        if (host->Idle()) continue;
        if (++listed > 8) return out + "  ...\n";
        out += "  " + host->DebugState() + "\n";
      }
    }
    return out;
  }

  Backend* backend_;
  sim::SimFileSystem* fs_;
  const ir::Program& program_;
  const dataflow::LogicalGraph& graph_;
  ExecutorOptions options_;
  ir::Cfg cfg_;
  // The single true execution path; written by the authority, viewed (with
  // per-machine lag) by every ControlFlowManager.
  ExecutionPath path_;

  std::vector<std::unique_ptr<ControlFlowManager>> managers_;
  std::vector<ControlFlowManager*> manager_ptrs_;
  std::unique_ptr<PathAuthority> authority_;
  std::vector<std::vector<std::unique_ptr<BagOperatorHost>>> hosts_;

  // Live observability (null when the plane is off; see obs/live/).
  // Snapshot cadence is per-attempt; the watchdog is run-scoped (owned by
  // ExecuteJob so its report budget spans the attempt loop).
  std::unique_ptr<obs::live::SnapshotWriter> snapshots_;
  obs::live::StepWatchdog* watchdog_ = nullptr;

  // Serializes control-flow decisions into the path authority.
  std::mutex control_mu_;
  // Guards status_; failed_ mirrors !status_.ok() for lock-free checks.
  mutable std::mutex status_mu_;
  Status status_;
  std::atomic<bool> failed_{false};

  std::atomic<int64_t> bags_{0};
  std::atomic<int64_t> elements_{0};
  std::atomic<int64_t> chunks_{0};
  std::atomic<int64_t> chunk_fallbacks_{0};
  std::atomic<int64_t> reuses_{0};
  std::atomic<int64_t> buffered_bytes_{0};
  std::atomic<int64_t> peak_buffered_bytes_{0};
  std::unique_ptr<std::atomic<double>[]> op_cpu_;

  // Guards the writeFile bookkeeping (writer registry + staged partitions).
  std::mutex file_mu_;
  std::map<std::string, BagId> file_writers_;
  std::map<std::string, int> file_partitions_;

  // Staged writeFile partitions (see AppendOutput).
  struct StagedFile {
    int bag_len = -1;
    std::map<int, DatumVector> parts;  // instance -> sorted partition
  };
  std::map<std::string, StagedFile> staged_files_;

  // Fault handling (inert when faults_ == nullptr; DES-only).
  const sim::FaultPlan* faults_ = nullptr;
  FaultRecoveryState* recovery_ = nullptr;
  int attempt_ = 1;
  std::atomic<double> last_progress_{0};
  std::atomic<int64_t> recomputed_bags_{0};
  std::atomic<int64_t> replayed_bags_{0};
  int checkpoints_ = 0;
};

}  // namespace

StatusOr<RunStats> ExecuteJob(Backend* backend, sim::SimFileSystem* fs,
                              const ir::Program& program,
                              const dataflow::LogicalGraph& graph,
                              const ExecutorOptions& options) {
  // Run-scoped watchdog: one instance spans the whole attempt loop, so its
  // stall-report budget (max_reports) caps the run, not each attempt. The
  // watchdog arms background simulator timers, so it is DES-only.
  std::unique_ptr<obs::live::StepWatchdog> watchdog;
  if (options.live.event_log != nullptr && options.live.watchdog.enabled &&
      backend->simulator() != nullptr) {
    watchdog = std::make_unique<obs::live::StepWatchdog>(
        backend->simulator(), options.live.event_log, options.live.watchdog);
  }

  if (options.faults == nullptr) {
    Job job(backend, fs, program, graph, options, watchdog.get());
    return job.Execute();
  }

  // Fault handling runs on the DES only: injection, machine epochs, and
  // the ack/retry protocol all live on the simulated cluster.
  sim::Simulator* sim = backend->simulator();
  sim::Cluster* cluster = backend->cluster();
  MITOS_CHECK(sim != nullptr && cluster != nullptr);

  // Attempt loop: a failed attempt (machine lost, stalled, broadcast
  // unacknowledged — all Status kUnavailable) is discarded, the loop waits
  // for every machine to be back up, folds the attempt's finished bags
  // into the recovery ledger, and re-executes; surviving bags replay at
  // zero cost. Everything is deterministic, so a given fault plan always
  // yields the same attempt sequence and the same final results.
  const sim::FaultPlan& plan = *options.faults;
  const sim::ClusterMetrics before = cluster->metrics();
  FaultRecoveryState recovery;
  const double first_start = sim->now();
  Status last_error = Status::Unavailable("no attempt ran");
  int64_t recomputed = 0;
  int64_t replayed = 0;
  int checkpoints = 0;
  for (int attempt = 1; attempt <= plan.max_attempts; ++attempt) {
    if (attempt > 1) {
      recovery.BeginNextAttempt(
          [cluster](int m) { return cluster->machine_epoch(m); });
      // Wait (in virtual time) until every machine is back up.
      double resume = sim->now();
      for (int m = 0; m < cluster->num_machines(); ++m) {
        resume = std::max(resume, cluster->machine_up_time(m));
      }
      if (!std::isfinite(resume)) return last_error;  // gone for good
      if (resume > sim->now()) {
        sim->Schedule(resume, [] {});
        sim->Run();
      }
      if (options.trace != nullptr) {
        int lane = options.trace->Lane(obs::kEnginePid, "recovery");
        options.trace->Instant(obs::kEnginePid, lane, "recovery-start",
                               "fault", sim->now(),
                               {{"attempt", attempt},
                                {"survivors", recovery.num_survivors()},
                                {"durable", recovery.num_durable()}});
      }
      if (options.live.event_log != nullptr) {
        options.live.event_log->Append(
            sim->now(), "recovery",
            {{"attempt", attempt},
             {"survivors", recovery.num_survivors()},
             {"durable", recovery.num_durable()}});
      }
    }
    const double attempt_start = sim->now();
    Job job(backend, fs, program, graph, options, watchdog.get(), &recovery,
            attempt);
    StatusOr<RunStats> result = job.Execute();
    if (result.ok()) {
      RunStats stats = std::move(*result);
      stats.attempts = attempt;
      stats.recovery_seconds = attempt_start - first_start;
      stats.total_seconds += attempt_start - first_start;
      stats.recomputed_bags += recomputed;
      stats.replayed_bags += replayed;
      stats.checkpoints += checkpoints;
      // Resource deltas span every attempt (wasted work is real work).
      const sim::ClusterMetrics& after = cluster->metrics();
      stats.cluster.messages = after.messages - before.messages;
      stats.cluster.network_bytes =
          after.network_bytes - before.network_bytes;
      stats.cluster.local_bytes = after.local_bytes - before.local_bytes;
      stats.cluster.disk_bytes = after.disk_bytes - before.disk_bytes;
      stats.cluster.cpu_seconds = after.cpu_seconds - before.cpu_seconds;
      stats.cluster.dropped_messages =
          after.dropped_messages - before.dropped_messages;
      if (options.metrics != nullptr) {
        options.metrics->Set("attempts", static_cast<double>(attempt));
        options.metrics->Set("recovery_seconds", stats.recovery_seconds);
        options.metrics->Set("recomputed_bags",
                             static_cast<double>(stats.recomputed_bags));
        options.metrics->Set("replayed_bags",
                             static_cast<double>(stats.replayed_bags));
      }
      return stats;
    }
    if (result.status().code() != StatusCode::kUnavailable) {
      return result.status();  // genuine error: retrying would not help
    }
    last_error = result.status();
    recomputed += job.recomputed_bags();
    replayed += job.replayed_bags();
    checkpoints += job.checkpoints();
    MITOS_VLOG(1) << "attempt " << attempt
                  << " failed: " << last_error.ToString();
    if (options.trace != nullptr) {
      int lane = options.trace->Lane(obs::kEnginePid, "recovery");
      options.trace->Instant(
          obs::kEnginePid, lane, "attempt-failed", "fault", sim->now(),
          {{"attempt", attempt}, {"error", last_error.message()}});
    }
    if (options.live.event_log != nullptr) {
      options.live.event_log->Append(
          sim->now(), "fault",
          {{"what", "attempt_failed"},
           {"attempt", attempt},
           {"error", last_error.message()}});
    }
  }
  return last_error;
}

StatusOr<RunStats> ExecutePlan(Backend* backend, sim::SimFileSystem* fs,
                               const Plan& plan,
                               const ExecutorOptions& options) {
  if (backend->num_machines() != plan.machines()) {
    return Status::InvalidArgument(
        "the plan was compiled for " + std::to_string(plan.machines()) +
        " machines but the backend has " +
        std::to_string(backend->num_machines()));
  }
  return ExecuteJob(backend, fs, plan.program(), plan.graph(), options);
}

}  // namespace mitos::runtime
