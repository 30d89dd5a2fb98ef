#include "runtime/threads_backend.h"

#include <sched.h>

#include <algorithm>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/logging.h"

namespace mitos::runtime {

namespace {

// Histogram names for the wall-clock queue/contention metrics. One place
// so the tests and the Prometheus exposition agree on spelling.
constexpr const char kEnqueueHist[] = "threads_enqueue_seconds";
constexpr const char kDequeueHist[] = "threads_dequeue_seconds";
constexpr const char kQueueWaitHist[] = "threads_queue_wait_seconds";
constexpr const char kLockWaitHist[] = "threads_lock_wait_seconds";
constexpr const char kQuiesceHist[] = "threads_quiesce_wait_seconds";

// How long an idle worker spins before parking. Long enough to cover the
// gap between a step's cross-machine hops on the Fig. 7 loop (most end
// within a few µs), short enough that spins which end in a park anyway
// waste little: at 50 µs they cost the data-heavy ledger workloads ~10%
// on a shared 4-vCPU host, at 20 µs nothing measurable.
constexpr std::chrono::microseconds kSpinBudget{20};

// The worker whose thread this is, or null off the worker threads (the
// driver). Post compares it with the target to pick the lock-free local
// queue. A Machine belongs to one backend and its worker exits before it
// is freed, so a match always names this backend's machine.
thread_local const void* tls_worker = nullptr;

// One spin-wait pause: frees the pipeline for the sibling hyperthread and
// eases the memory-order flush when the awaited store lands. Elsewhere a
// yield is the portable (if costlier) stand-in.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

unsigned UsableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&mask));
  }
  return std::thread::hardware_concurrency();
}

ThreadsBackend::ThreadsBackend(const sim::ClusterConfig& config)
    : config_(config),
      epoch_(std::chrono::steady_clock::now()),
      // UsableCpus() is 0 when unknown: park at once then.
      spin_(static_cast<unsigned>(config.num_machines) <= UsableCpus()) {
  MITOS_CHECK(config_.num_machines > 0);
  machines_.reserve(static_cast<size_t>(config_.num_machines));
  for (int m = 0; m < config_.num_machines; ++m) {
    machines_.push_back(std::make_unique<Machine>());
  }
  // Start workers only after the vector is fully built: a worker posts to
  // any machine through it, and needs a stable Machine address itself.
  for (int m = 0; m < config_.num_machines; ++m) {
    Machine* mp = machines_[static_cast<size_t>(m)].get();
    mp->thread = std::thread([this, m, mp] { WorkerLoop(m, mp); });
  }
}

ThreadsBackend::~ThreadsBackend() {
  for (auto& m : machines_) {
    {
      std::lock_guard<std::mutex> lock(m->mu);
      m->stop = true;
    }
    m->cv.notify_all();
  }
  for (auto& m : machines_) {
    if (m->thread.joinable()) m->thread.join();
  }
}

double ThreadsBackend::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ThreadsBackend::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    // Everything this backend records is wall seconds since construction.
    trace_->set_clock(obs::TraceClock::kWall);
    // Release-publish the pointer write above to the already-running
    // workers (paired with the acquire loads in WorkerLoop/Post).
    instrumented_.store(true, std::memory_order_release);
  }
}

void ThreadsBackend::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_registry_ = metrics;
  if (metrics_registry_ != nullptr) {
    instrumented_.store(true, std::memory_order_release);
  }
}

ThreadsBackend::Machine* ThreadsBackend::MachineAt(int machine) const {
  MITOS_CHECK(machine >= 0 && machine < config_.num_machines);
  return machines_[static_cast<size_t>(machine)].get();
}

void ThreadsBackend::Post(int machine, Task task) {
  Machine* m = MachineAt(machine);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  // Instrumentation meters how long the producer blocked on the queue
  // mutex (lock-wait) and the full enqueue latency, stamps the task so the
  // consumer can measure its queue wait, and tracks depth peaks.
  const bool instrumented = instrumented_.load(std::memory_order_acquire);
  const double t_enter = instrumented ? now() : 0;
  double t_locked = t_enter;
  if (tls_worker == m) {
    task.enqueued_at = t_enter;
    m->local.push_back(std::move(task));
    if (instrumented) {
      m->local_peak_depth = std::max(m->local_peak_depth, m->local.size());
      ++m->local_tasks_posted;
    }
  } else {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(m->mu);
      if (instrumented) t_locked = now();
      task.enqueued_at = t_locked;
      m->queue.push_back(std::move(task));
      m->pending.store(m->queue.size(), std::memory_order_relaxed);
      if (instrumented) {
        m->peak_depth = std::max(m->peak_depth, m->queue.size());
        ++m->tasks_posted;
      }
      wake = std::exchange(m->sleeping, false);
    }
    if (wake) m->cv.notify_one();
  }
  if (instrumented && metrics_registry_ != nullptr) {
    const double t_done = now();
    metrics_registry_->Observe(kLockWaitHist, t_locked - t_enter);
    metrics_registry_->Observe(kEnqueueHist, t_done - t_enter);
  }
}

bool ThreadsBackend::Refill(Machine* m) {
  if (spin_) {
    // Probe the clock only every 64 pauses: a pause is tens of ns, so the
    // overshoot past the budget stays in the low µs.
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    for (unsigned i = 1; m->pending.load(std::memory_order_relaxed) == 0;
         ++i) {
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
      CpuRelax();
    }
  }
  std::unique_lock<std::mutex> lock(m->mu);
  while (m->queue.empty() && !m->stop) {
    m->sleeping = true;
    m->cv.wait(lock);
  }
  m->sleeping = false;
  if (m->queue.empty()) return false;  // stop requested and queue drained
  m->local.swap(m->queue);
  m->pending.store(0, std::memory_order_relaxed);
  return true;
}

void ThreadsBackend::WorkerLoop(int machine, Machine* m) {
  tls_worker = m;
  internal_logging::AttachLogClock(this, [](const void* ctx) {
    return static_cast<const ThreadsBackend*>(ctx)->now();
  });
  // Workers outlive set_trace/set_metrics calls, so the flag is probed
  // with acquire loads (the observer pointers were written before the
  // release store that flipped it).
  while (true) {
    double idle_from = -1;
    if (m->local.empty()) {
      if (instrumented_.load(std::memory_order_acquire) &&
          m->pending.load(std::memory_order_relaxed) == 0) {
        idle_from = now();
      }
      if (!Refill(m)) return;
    }
    const bool instrumented = instrumented_.load(std::memory_order_acquire);
    const double t_dequeue = instrumented ? now() : 0;
    Task task = std::move(m->local.front());
    m->local.pop_front();
    if (instrumented) {
      const double t_start = now();
      const int pid = obs::MachinePid(machine);
      if (idle_from >= 0 && trace_ != nullptr) {
        trace_->Span(pid, trace_->Lane(pid, "cores"), "idle", "idle",
                     idle_from, t_dequeue, {});
      }
      const double queue_wait = t_dequeue - task.enqueued_at;
      if (trace_ != nullptr && queue_wait > 0) {
        trace_->Span(pid, trace_->Lane(pid, "queue"), "queue-wait", "queue",
                     task.enqueued_at, t_dequeue, {});
      }
      if (metrics_registry_ != nullptr) {
        metrics_registry_->Observe(kQueueWaitHist, queue_wait);
        metrics_registry_->Observe(kDequeueHist, t_start - t_dequeue);
      }
    }
    if (task.cpu) {
      // An ExecCpu task: its wall time is the machine's CPU time, metered
      // here rather than by a wrapper closure around the callback.
      const double t0 = now();
      task.fn();
      const double t1 = now();
      m->cpu_seconds.fetch_add(t1 - t0, std::memory_order_relaxed);
      if (trace_ != nullptr && !task.label.empty()) {
        const int pid = obs::MachinePid(machine);
        trace_->Span(pid, trace_->Lane(pid, "cores"), std::move(task.label),
                     "core", t0, t1, {});
      }
    } else {
      task.fn();
    }
    // Decrement AFTER the task ran: zero outstanding means every posted
    // task's effects are complete. Notify under done_mu_ so the driver's
    // predicate check cannot miss the wakeup.
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadsBackend::ExecCpu(int machine, double cpu_seconds,
                             std::function<void()> done,
                             std::string trace_label) {
  // The modelled charge is ignored: `done` is the real work and
  // WorkerLoop meters its wall time.
  (void)cpu_seconds;
  Post(machine, Task{std::move(done), std::move(trace_label), 0, true});
}

void ThreadsBackend::Send(int src, int dst, size_t bytes,
                          std::function<void()> done) {
  Machine* m = MachineAt(src);
  if (src == dst) {
    m->local_bytes.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed);
  } else {
    m->messages.fetch_add(1, std::memory_order_relaxed);
    m->network_bytes.fetch_add(static_cast<int64_t>(bytes),
                               std::memory_order_relaxed);
  }
  Post(dst, Task{std::move(done)});
}

void ThreadsBackend::DiskIo(int machine, size_t bytes,
                            std::function<void()> done, bool memory) {
  if (!memory) {
    MachineAt(machine)->disk_bytes.fetch_add(static_cast<int64_t>(bytes),
                                             std::memory_order_relaxed);
  }
  Post(machine, Task{std::move(done)});
}

void ThreadsBackend::DiskRead(int machine, size_t bytes, int pieces,
                              std::function<void(int)> on_progress,
                              bool memory) {
  if (!memory) {
    MachineAt(machine)->disk_bytes.fetch_add(static_cast<int64_t>(bytes),
                                             std::memory_order_relaxed);
  }
  // One task for the whole read: the data is already in process memory, so
  // there is no I/O pace to emit at — downstream overlap comes from the
  // other machines' sources reading concurrently.
  auto read = [pieces, on_progress = std::move(on_progress)] {
    for (int i = 0; i < pieces; ++i) on_progress(i);
  };
  Post(machine, Task{std::move(read)});
}

void ThreadsBackend::ScheduleAfter(double delay, std::function<void()> fn) {
  (void)delay;  // coordinator-side launch only; see the Backend contract
  Post(0, Task{std::move(fn)});
}

void ThreadsBackend::ScheduleWhenIdle(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(done_mu_);
  idle_callbacks_.push_back(std::move(fn));
}

void ThreadsBackend::Run() {
  while (true) {
    std::function<void()> idle;
    const double t_wait = instrumented_ ? now() : 0;
    bool waited = false;
    {
      std::unique_lock<std::mutex> lock(done_mu_);
      waited = outstanding_.load(std::memory_order_acquire) != 0;
      done_cv_.wait(lock, [this] {
        return outstanding_.load(std::memory_order_acquire) == 0;
      });
      if (idle_callbacks_.empty()) {
        if (instrumented_ && waited) RecordQuiesceWait(t_wait, now());
        return;
      }
      idle = std::move(idle_callbacks_.front());
      idle_callbacks_.pop_front();
    }
    if (instrumented_ && waited) RecordQuiesceWait(t_wait, now());
    // Quiescent: all workers blocked, their writes published through
    // done_mu_. The callback runs on the driver thread and may post new
    // work (released to the workers through the queue locks), after which
    // the loop waits for quiescence again before the next callback.
    idle();
  }
}

void ThreadsBackend::RecordQuiesceWait(double t_start, double t_end) {
  if (trace_ != nullptr) {
    trace_->Span(obs::kEnginePid, trace_->Lane(obs::kEnginePid, "barrier"),
                 "quiescence", "quiesce", t_start, t_end, {});
  }
  if (metrics_registry_ != nullptr) {
    metrics_registry_->Observe(kQuiesceHist, t_end - t_start);
  }
}

void ThreadsBackend::FlushMetrics() {
  if (metrics_registry_ == nullptr) return;
  int64_t total_tasks = 0;
  for (int i = 0; i < config_.num_machines; ++i) {
    Machine* m = machines_[static_cast<size_t>(i)].get();
    size_t peak;
    int64_t posted;
    {
      std::lock_guard<std::mutex> lock(m->mu);
      peak = std::max(m->peak_depth, m->local_peak_depth);
      posted = m->tasks_posted + m->local_tasks_posted;
    }
    const std::string suffix = "/m" + std::to_string(i);
    metrics_registry_->Set("threads_queue_depth_peak" + suffix,
                           static_cast<double>(peak));
    metrics_registry_->Set("threads_tasks" + suffix,
                           static_cast<double>(posted));
    total_tasks += posted;
  }
  metrics_registry_->Set("threads_tasks_total",
                         static_cast<double>(total_tasks));
}

sim::ClusterMetrics ThreadsBackend::MetricsSnapshot() const {
  sim::ClusterMetrics total;
  for (const auto& m : machines_) {
    total.messages += m->messages.load(std::memory_order_relaxed);
    total.network_bytes += m->network_bytes.load(std::memory_order_relaxed);
    total.local_bytes += m->local_bytes.load(std::memory_order_relaxed);
    total.disk_bytes += m->disk_bytes.load(std::memory_order_relaxed);
    total.cpu_seconds += m->cpu_seconds.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace mitos::runtime
