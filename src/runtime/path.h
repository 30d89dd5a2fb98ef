// Bag identifiers, the execution path, and per-machine control flow
// managers (paper Sec. 5.2.1).
//
// A bag identifier couples the logical operator that created the bag with
// the execution path up to its creation. Because the execution path is a
// single append-only sequence of basic blocks, a path prefix is fully
// described by its *length* — so BagId is just (node, prefix length), and
// the longest-prefix input-choice rule (Sec. 5.2.3) becomes a search for
// the last occurrence of a block.
//
// The PathAuthority owns the true path. Condition-node instances report
// decisions to it; it appends the chosen block (plus the chain of
// unconditionally-following blocks) and broadcasts the new length to every
// machine's ControlFlowManager over the simulated network — mirroring the
// paper's TCP broadcast between control flow managers. Each machine thus
// has a *lagged* view of the path; hosts react as their local manager
// advances.
#ifndef MITOS_RUNTIME_PATH_H_
#define MITOS_RUNTIME_PATH_H_

#include <array>
#include <atomic>
#include <bit>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "dataflow/graph.h"
#include "ir/ir.h"
#include "obs/live/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/backend.h"
#include "sim/cluster.h"

namespace mitos::runtime {

// Identifier of one bag: the logical operator that computes it plus the
// execution-path prefix (by length) at its creation (Sec. 5.2.1).
struct BagId {
  dataflow::NodeId node = -1;
  int path_len = 0;

  bool operator==(const BagId& other) const {
    return node == other.node && path_len == other.path_len;
  }
  std::string ToString() const {
    return "bag(node=" + std::to_string(node) +
           ", len=" + std::to_string(path_len) + ")";
  }
};

// An append-only array with one writer and lock-free readers. Elements
// live in segments that are allocated on first use and never move; segment
// k holds 2^(kFirstBits + k) elements, so a small first segment keeps tiny
// jobs cheap while 32 inline segment pointers cover any int index without
// pre-sizing. The writer fills the slot Next() returns and publishes it
// with Commit() (a release store of the size). A reader may read index i
// once it has learned size() > i through an acquire load or any other
// happens-before edge; the slot and its segment pointer were written
// before that size was published, and are never written again.
template <typename T, int kFirstBits>
class AppendOnlyArray {
 public:
  AppendOnlyArray() = default;
  AppendOnlyArray(const AppendOnlyArray&) = delete;
  AppendOnlyArray& operator=(const AppendOnlyArray&) = delete;
  ~AppendOnlyArray() {
    for (T* segment : segments_) delete[] segment;
  }

  int size() const { return size_.load(std::memory_order_acquire); }

  const T& operator[](int i) const {
    const auto [k, offset] = Locate(i);
    return segments_[k][offset];
  }
  // Writer only: a published element the writer keeps updating (itself
  // reader-safe, e.g. a nested AppendOnlyArray).
  T& Mutable(int i) {
    const auto [k, offset] = Locate(i);
    return segments_[k][offset];
  }

  // Writer only: the unpublished slot at index size().
  T& Next() {
    const auto [k, offset] = Locate(size_.load(std::memory_order_relaxed));
    if (segments_[k] == nullptr) {
      segments_[k] = new T[size_t{1} << (kFirstBits + k)]();
    }
    return segments_[k][offset];
  }
  void Commit() {
    size_.store(size_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }
  void push_back(const T& value) {
    Next() = value;
    Commit();
  }

 private:
  // (segment, offset) of index i: segment k starts at (2^k - 1) << kFirstBits.
  static std::pair<size_t, size_t> Locate(int i) {
    const size_t index = static_cast<size_t>(i);
    const size_t k =
        static_cast<size_t>(std::bit_width((index >> kFirstBits) + 1)) - 1;
    return {k, index - (((size_t{1} << k) - 1) << kFirstBits)};
  }

  std::array<T*, 32> segments_{};
  std::atomic<int> size_{0};
};

// The global execution path: an append-only sequence of basic blocks.
//
// Single writer, lock-free readers. The authority is the only writer (it
// appends from whichever machine hosted the deciding condition node);
// every machine's manager reads concurrently, and on the threads backend
// those are different OS threads. Publication rule: Append() writes the
// block and the block's occurrence record, then publishes
// the new length with a release store; MarkComplete() release-stores the
// flag after the last append. A reader only reads positions below a length
// it learned with an acquire load (size(), or the length a path broadcast
// carried through a backend queue, which orders it after the append). On
// the DES everything runs on one thread and the atomics are plain moves.
//
// Each block also has its occurrence positions, in increasing order, in
// the same append-only storage, so the input-choice rule (Sec. 5.2.3) is a
// binary search instead of a backwards scan over the whole path.
class ExecutionPath {
 public:
  int size() const { return entries_.size(); }
  ir::BlockId at(int pos) const {
    MITOS_CHECK_GE(pos, 0);
    MITOS_CHECK_LT(pos, size());
    return entries_[pos];
  }
  void Append(ir::BlockId block);

  bool complete() const { return complete_.load(std::memory_order_acquire); }
  void MarkComplete() { complete_.store(true, std::memory_order_release); }

  // Length of the longest prefix with length <= max_len that ends with
  // `block`; 0 if none (Sec. 5.2.3's input-choice rule).
  int LongestPrefixEndingWith(ir::BlockId block, int max_len) const;

  std::string ToString() const;

 private:
  using Positions = AppendOnlyArray<int, 4>;

  AppendOnlyArray<ir::BlockId, 6> entries_;
  // Indexed by block id: the positions where that block occurs.
  AppendOnlyArray<Positions, 3> occurrences_;
  std::atomic<bool> complete_{false};
};

// Per-machine view of the execution path. The underlying storage is shared
// (contents are identical everywhere); only the known length lags behind
// the authority, by exactly the broadcast's network latency.
class ControlFlowManager {
 public:
  explicit ControlFlowManager(const ExecutionPath* path) : path_(path) {}

  int known_len() const { return known_len_; }
  bool known_complete() const { return known_complete_; }
  const ExecutionPath& path() const { return *path_; }

  ir::BlockId block_at(int pos) const {
    MITOS_CHECK_LT(pos, known_len_);
    return path_->at(pos);
  }

  // Longest prefix <= max_len (and <= known length) ending with `block`.
  int LongestPrefixEndingWith(ir::BlockId block, int max_len) const {
    return path_->LongestPrefixEndingWith(block,
                                          std::min(max_len, known_len_));
  }

  // `fn(pos, block)` fires once per newly-known position, in order.
  void AddListener(std::function<void(int, ir::BlockId)> fn) {
    listeners_.push_back(std::move(fn));
  }
  // Fires once when the path is known to be complete.
  void AddCompletionListener(std::function<void()> fn) {
    completion_listeners_.push_back(std::move(fn));
  }

  // Delivery from the authority. Messages may arrive out of order (they
  // carry the target length); shorter-than-known deliveries are no-ops.
  // Re-entrant calls (a listener's side effects triggering another
  // delivery, e.g. a hot loop whose condition node fires synchronously)
  // are queued and drained by the outermost call, so listeners always
  // observe positions strictly in order.
  void AdvanceTo(int new_len, bool complete);

 private:
  const ExecutionPath* path_;
  int known_len_ = 0;
  bool known_complete_ = false;
  bool advancing_ = false;
  // Queued re-entrant advances; cleared (capacity kept) once drained.
  std::vector<std::pair<int, bool>> pending_;
  std::vector<std::function<void(int, ir::BlockId)>> listeners_;
  std::vector<std::function<void()>> completion_listeners_;
};

// Owns the true execution path; serializes decisions and broadcasts.
class PathAuthority {
 public:
  struct Options {
    // When false, decision broadcasts wait for global quiescence (a
    // superstep barrier) — this is Flink-sim / "Mitos (not pipelined)".
    bool pipelining = true;
    // Extra latency charged per control-flow decision (e.g. the per-step
    // overhead of Flink's native iterations, FLINK-3322).
    double decision_overhead = 0.0;
    // Runaway-loop guard.
    int max_path_len = 1'000'000;
    // Observability (both optional; see src/obs/). The recorder gets one
    // instant event per control-flow decision plus a per-step span on the
    // engine process; the registry gets one StepRecord per decision.
    obs::TraceRecorder* trace = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    // Live observability (obs/live/, all optional). The event log gets one
    // "decision" record per control-flow decision and "step_begin"/
    // "step_end" records bracketing every step. `on_step` fires at every
    // broadcast (step_index = the completed 0-based decision, -1 for the
    // initial path seed) — the executor drives snapshots, the watchdog,
    // and progress reporting from it. Both are observational only.
    obs::live::EventLog* event_log = nullptr;
    std::function<void(int step_index, bool initial)> on_step;
    // Supplies the job's running operator-input element count, so step
    // records can report per-step element deltas (wired by the executor).
    std::function<int64_t()> elements_probe;
    // Active fault plan (nullptr when fault handling is off). With a plan,
    // remote path broadcasts are acknowledged by the receiving manager and
    // retried with exponential backoff until acked or retries exhaust.
    const sim::FaultPlan* faults = nullptr;
    // Fired right after every checkpoint_every-th decision's broadcast
    // (wired by the executor to mark finished bags durable).
    std::function<void()> on_checkpoint;
  };

  // `path` is owned by the caller (the job) and shared with every
  // ControlFlowManager; the authority is its only writer. `backend` is the
  // execution substrate decisions are broadcast over (runtime/backend.h).
  PathAuthority(const ir::Program* program, Backend* backend,
                ExecutionPath* path,
                std::vector<ControlFlowManager*> managers, Options options,
                std::function<void(Status)> on_error);
  ~PathAuthority();

  // Seeds the path with the entry block (plus its unconditional chain) and
  // broadcasts. Called once, at job start, from machine `machine`.
  void Start(int machine);

  // A condition node (in block `block`, on machine `machine`) evaluated the
  // occurrence whose bag has path length `at_len` and chose `value`.
  // Decisions are inherently sequential: at_len must equal the current path
  // length.
  void OnDecision(ir::BlockId block, int at_len, bool value, int machine);

  const ExecutionPath& path() const { return *path_; }
  int decisions() const { return decisions_; }

 private:
  // Appends `block` and everything that unconditionally follows it; then
  // broadcasts the new length (possibly after a barrier). `initial` marks
  // the job-start seed of the path, which is not a superstep boundary:
  // no barrier, no per-decision overhead.
  void AppendChain(ir::BlockId block, int machine, bool initial = false);
  void Broadcast(int from_machine, bool initial);
  // Emits the per-step trace span and metrics StepRecord at broadcast time.
  void RecordStep(bool initial);
  // One acked/retried control send to `machine`'s manager (faults active).
  void SendControl(int from_machine, int machine, int new_len, bool complete,
                   int attempt);

  const ir::Program* program_;
  Backend* backend_;
  std::vector<ControlFlowManager*> managers_;
  Options options_;
  std::function<void(Status)> on_error_;
  ExecutionPath* path_;
  // AppendChain's scratch: the blocks one decision appends.
  std::vector<ir::BlockId> chain_;
  int decisions_ = 0;

  // Step-timeline state (only maintained when trace/metrics are attached).
  struct PendingStep {
    ir::BlockId block = ir::kNoBlock;
    bool value = false;
    double decision_time = 0;
    // When the step left the barrier (superstep engines) — equals
    // decision_time for pipelined engines. Splits barrier_wait (release -
    // decision) from decision_overhead (broadcast - release).
    double release_time = 0;
  };
  PendingStep pending_step_;
  // Acknowledged (path_len, machine) control deliveries (faults active).
  std::set<std::pair<int, int>> acked_;
  // Set false on destruction so queued background retry timers turn inert.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  double last_broadcast_time_ = 0;
  int64_t last_elements_ = 0;
  int64_t last_net_bytes_ = 0;
  int64_t last_disk_bytes_ = 0;
};

}  // namespace mitos::runtime

#endif  // MITOS_RUNTIME_PATH_H_
