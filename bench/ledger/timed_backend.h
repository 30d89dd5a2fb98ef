// TimedBackend: a runtime::Backend decorator that times every callback the
// runtime hands to the backend, from outside the runtime.
//
// Each ExecCpu / Send / DiskIo / DiskRead / ScheduleAfter / ScheduleWhenIdle
// callback is wrapped: the wrapper stamps the post time, and when the
// backend runs it, records post->start (queue wait) and start->end (busy).
// ExecCpu callbacks are operator tasks; their trace label
// ("<node>.<phase>", built by the hosts only while a TraceRecorder is
// attached) names the node, whose kind keys the per-kind busy tally. Run()
// entry and exit are stamped so the caller can split ExecuteJob into set-up,
// run and teardown.
//
// The recorder is kept here, not forwarded: the inner backend records no
// spans of its own. simulator() and cluster() are forwarded, so the
// runtime takes the same DES/threads paths as without the decorator.
//
// Thread-safety: tallies are atomics, because on the threads backend the
// wrapped callbacks run on the machine worker threads.
#ifndef MITOS_BENCH_LEDGER_TIMED_BACKEND_H_
#define MITOS_BENCH_LEDGER_TIMED_BACKEND_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "dataflow/graph.h"
#include "runtime/backend.h"

namespace mitos::ledger {

inline int64_t ClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Number of dataflow::NodeKind values; index kNodeKinds collects operator
// tasks without a label.
inline constexpr int kNodeKinds = 16;
static_assert(static_cast<int>(dataflow::NodeKind::kCondition) + 1 ==
              kNodeKinds);

struct Tally {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> busy_ns{0};
  std::atomic<int64_t> wait_ns{0};
};

class TimedBackend final : public runtime::Backend {
 public:
  // What a callback is, for the tallies.
  enum Category { kOp, kChannel, kRead, kWrite, kLaunch, kIdle, kCategories };

  // `graph` maps operator-task labels to node kinds; `labels` is attached
  // as this backend's recorder so the hosts build those labels.
  TimedBackend(runtime::Backend* inner, const dataflow::LogicalGraph& graph,
               obs::TraceRecorder* labels)
      : inner_(inner), labels_(labels) {
    for (const dataflow::LogicalNode& node : graph.nodes) {
      node_kind_[node.name] = static_cast<int>(node.kind);
    }
  }

  TimedBackend(const TimedBackend&) = delete;
  TimedBackend& operator=(const TimedBackend&) = delete;

  int num_machines() const override { return inner_->num_machines(); }
  const sim::ClusterConfig& config() const override {
    return inner_->config();
  }
  double now() const override { return inner_->now(); }
  double busy_until() const override { return inner_->busy_until(); }

  void ExecCpu(int machine, double cpu_seconds, std::function<void()> done,
               std::string trace_label = {}) override {
    const int kind = KindOf(trace_label);
    inner_->ExecCpu(machine, cpu_seconds,
                    Wrap(kOp, &kind_busy_ns_[static_cast<size_t>(kind)],
                         std::move(done)),
                    std::move(trace_label));
  }
  void Send(int src, int dst, size_t bytes,
            std::function<void()> done) override {
    channel_bytes_.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed);
    inner_->Send(src, dst, bytes, Wrap(kChannel, nullptr, std::move(done)));
  }
  void DiskIo(int machine, size_t bytes, std::function<void()> done,
              bool memory = false) override {
    inner_->DiskIo(machine, bytes, Wrap(kWrite, nullptr, std::move(done)),
                   memory);
  }
  // One read counts once; its wait is post -> first piece, its busy time
  // the sum over pieces.
  void DiskRead(int machine, size_t bytes, int pieces,
                std::function<void(int)> on_progress,
                bool memory = false) override {
    Tally* t = &tallies_[kRead];
    t->calls.fetch_add(1, std::memory_order_relaxed);
    const int64_t posted = ClockNs();
    inner_->DiskRead(
        machine, bytes, pieces,
        [t, posted, on_progress = std::move(on_progress)](int i) {
          const int64_t start = ClockNs();
          if (i == 0) {
            t->wait_ns.fetch_add(start - posted, std::memory_order_relaxed);
          }
          on_progress(i);
          t->busy_ns.fetch_add(ClockNs() - start, std::memory_order_relaxed);
        },
        memory);
  }
  void ScheduleAfter(double delay, std::function<void()> fn) override {
    inner_->ScheduleAfter(delay, Wrap(kLaunch, nullptr, std::move(fn)));
  }
  void ScheduleWhenIdle(std::function<void()> fn) override {
    inner_->ScheduleWhenIdle(Wrap(kIdle, nullptr, std::move(fn)));
  }

  void Run() override {
    run_start_ns_ = ClockNs();
    inner_->Run();
    run_end_ns_ = ClockNs();
  }

  sim::ClusterMetrics MetricsSnapshot() const override {
    return inner_->MetricsSnapshot();
  }

  void set_trace(obs::TraceRecorder* trace) override { labels_ = trace; }
  obs::TraceRecorder* trace() const override { return labels_; }
  void set_event_log(obs::live::EventLog* log) override {
    inner_->set_event_log(log);
  }
  obs::live::EventLog* event_log() const override {
    return inner_->event_log();
  }
  sim::Simulator* simulator() override { return inner_->simulator(); }
  sim::Cluster* cluster() override { return inner_->cluster(); }

  const Tally& tally(Category c) const { return tallies_[c]; }
  // Busy nanoseconds of operator tasks of node kind `kind`
  // (kNodeKinds = unlabeled).
  int64_t kind_busy_ns(int kind) const {
    return kind_busy_ns_[static_cast<size_t>(kind)].load();
  }
  int64_t channel_bytes() const { return channel_bytes_.load(); }
  int64_t run_start_ns() const { return run_start_ns_; }
  int64_t run_end_ns() const { return run_end_ns_; }

 private:
  int KindOf(const std::string& label) const {
    const size_t dot = label.rfind('.');
    if (dot == std::string::npos) return kNodeKinds;
    auto it = node_kind_.find(label.substr(0, dot));
    return it == node_kind_.end() ? kNodeKinds : it->second;
  }

  std::function<void()> Wrap(Category c, std::atomic<int64_t>* kind_busy,
                             std::function<void()> fn) {
    Tally* t = &tallies_[c];
    const int64_t posted = ClockNs();
    return [t, kind_busy, posted, fn = std::move(fn)] {
      const int64_t start = ClockNs();
      fn();
      const int64_t busy = ClockNs() - start;
      t->calls.fetch_add(1, std::memory_order_relaxed);
      t->wait_ns.fetch_add(start - posted, std::memory_order_relaxed);
      t->busy_ns.fetch_add(busy, std::memory_order_relaxed);
      if (kind_busy != nullptr) {
        kind_busy->fetch_add(busy, std::memory_order_relaxed);
      }
    };
  }

  runtime::Backend* inner_;
  obs::TraceRecorder* labels_;
  std::unordered_map<std::string, int> node_kind_;
  std::array<Tally, kCategories> tallies_;
  std::array<std::atomic<int64_t>, kNodeKinds + 1> kind_busy_ns_{};
  std::atomic<int64_t> channel_bytes_{0};
  int64_t run_start_ns_ = 0;
  int64_t run_end_ns_ = 0;
};

}  // namespace mitos::ledger

#endif  // MITOS_BENCH_LEDGER_TIMED_BACKEND_H_
