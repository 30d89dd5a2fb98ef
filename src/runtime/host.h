// BagOperatorHost: the coordination wrapper around every physical operator
// instance (paper Sec. 5, Fig. 2).
//
// The host implements the paper's runtime algorithm:
//   * Output-bag choice (5.2.2): when the machine-local control flow
//     manager learns that the execution path reached the operator's basic
//     block, the host enqueues an output bag whose identifier is the
//     current path prefix.
//   * Input-bag choice (5.2.3): for each logical input, the chosen input
//     bag is the one whose identifier is the longest prefix of the output
//     bag's path ending with the producer's block. Φ-operators select the
//     single input whose matching prefix is longest overall ("the latest
//     assignment wins"); for a Φ-input produced *later in the same block*,
//     the current occurrence is excluded so the previous iteration's value
//     is taken.
//   * Element separation (Challenge 1): every delivered chunk and marker
//     carries its bag identifier; the host buffers per (input, bag).
//   * Bag reuse (Challenge 2): received input bags are cached and may feed
//     several output bags (e.g. an outer-loop bag consumed by every inner
//     iteration). A cached bag is discarded once a newer bag from the same
//     producer exists on the path and no queued output bag references it.
//   * Path-ordered processing (Challenge 3): output bags are processed in
//     execution-path order, never first-come-first-served.
//   * Conditional outputs (5.2.4): data crossing basic blocks is held until
//     the path reaches the consumer's block before reaching the producer's
//     block again; a held bag is discarded as soon as the path reaches a
//     block from which every route to the consumer passes the producer's
//     block (ir::Cfg::CanReachAvoiding).
//   * Loop pipelining: an output bag starts processing as soon as its
//     inputs start arriving; the host's work queue serializes one
//     instance's CPU but different operators (and steps) overlap freely.
//   * Loop-invariant hoisting (5.3): when the chosen input bag id on a
//     reusable input equals the previous output bag's choice, the host
//     skips re-feeding and tells the kernel to keep its state.
#ifndef MITOS_RUNTIME_HOST_H_
#define MITOS_RUNTIME_HOST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/chunk.h"
#include "common/datum.h"
#include "common/ring_buffer.h"
#include "common/status.h"
#include "dataflow/graph.h"
#include "dataflow/operators.h"
#include "ir/cfg.h"
#include "obs/trace.h"
#include "runtime/backend.h"
#include "runtime/path.h"
#include "sim/filesystem.h"

namespace mitos::runtime {

class BagOperatorHost;

// Services the executor provides to hosts (implemented by Job in
// executor.cc; an interface keeps host.cc free of executor internals).
class RuntimeContext {
 public:
  virtual ~RuntimeContext() = default;

  virtual Backend* backend() = 0;
  virtual sim::SimFileSystem* fs() = 0;
  virtual const dataflow::LogicalGraph& graph() const = 0;
  virtual const ir::Cfg& cfg() const = 0;
  virtual bool hoisting() const = 0;
  virtual bool blocking_shuffles() const = 0;
  // Execution-trace recorder; nullptr when tracing is disabled.
  virtual obs::TraceRecorder* trace() const = 0;

  virtual BagOperatorHost* host(dataflow::NodeId node, int instance) = 0;
  virtual int MachineOf(dataflow::NodeId node, int instance) const = 0;

  // Condition-node decision for the occurrence whose bag has `path_len`.
  virtual void OnDecision(ir::BlockId block, int path_len, bool value,
                          int machine) = 0;

  // First error wins; the job drains and reports it.
  virtual void Fail(Status status) = 0;
  virtual bool failed() const = 0;

  // Overwrite-semantics coordination for writeFile: clears `filename` the
  // first time a given output bag writes to it (partitions then append).
  virtual void BeginFileWrite(const std::string& filename, BagId bag) = 0;

  virtual void CountBag(int64_t elements_in) = 0;
  // A chunk was delivered to a host; `fallback` says it rode the boxed
  // DatumVector path instead of a typed column (chunk-plane observability).
  virtual void CountChunk(bool fallback) {
    (void)fallback;
  }
  // Columnar plane switch: when false, sources and kernels keep every chunk
  // in the boxed representation (the pre-batching plane; ablation mode).
  virtual bool columnar() const { return true; }
  // An input's built state was kept across bags (loop-invariant hoisting).
  virtual void CountReuse() = 0;
  // Buffered-bytes accounting (input caches + gated output partitions);
  // the executor tracks the global peak.
  virtual void TrackMemory(int64_t delta_bytes) = 0;
  // Per-logical-operator busy-CPU attribution (profiling).
  virtual void ChargeOpCpu(dataflow::NodeId node, double seconds) = 0;
  // When false, spent input bags are never evicted (ablation of the
  // paper's Sec. 5.2.4 discard rule).
  virtual bool discard_spent_bags() const = 0;

  // ----- fault/recovery hooks (defaulted: inert without fault handling) --

  // True when the output bag (node, instance, path_len) survived a failed
  // attempt: the host replays it — kernels run over the real data so state
  // is reconstructed exactly, but CPU is free and I/O runs at memory speed.
  virtual bool IsReplayBag(dataflow::NodeId node, int instance,
                           int path_len) const {
    (void)node;
    (void)instance;
    (void)path_len;
    return false;
  }
  // An output bag finished (all markers sent); `replay` echoes IsReplayBag.
  virtual void OnBagFinished(dataflow::NodeId node, int instance,
                             int path_len, bool replay) {
    (void)node;
    (void)instance;
    (void)path_len;
    (void)replay;
  }
  // Liveness signal for the stall detector: a delivery arrived or a CPU
  // slice completed.
  virtual void NoteProgress() {}
  // Output-file append; the default writes through. The executor overrides
  // it under fault handling to stage/sort partitions so recovered runs
  // produce byte-identical files.
  virtual void AppendOutput(const std::string& filename, int instance,
                            int bag_len, const DatumVector& data) {
    (void)instance;
    (void)bag_len;
    fs()->Append(filename, data);
  }
};

class BagOperatorHost {
 public:
  BagOperatorHost(RuntimeContext* ctx, const dataflow::LogicalNode* node,
                  int instance, int machine, ControlFlowManager* cfm);

  BagOperatorHost(const BagOperatorHost&) = delete;
  BagOperatorHost& operator=(const BagOperatorHost&) = delete;

  // Registers path listeners and precomputes routing tables. Called once
  // after every host exists.
  void Init();

  // Network deliveries (invoked by producer hosts through the cluster).
  // The chunk arrives as a shared handle: channel hops are pointer swaps.
  void DeliverChunk(int input_index, int bag_len, Chunk chunk);
  void DeliverMarker(int input_index, int bag_len);

  // True when the host has no queued or in-flight work (diagnostics).
  bool Idle() const;
  std::string DebugState() const;

  const dataflow::LogicalNode& node() const { return *node_; }
  int instance() const { return instance_; }
  int machine() const { return machine_; }

 private:
  // ----- static routing info -----
  // Pre-built once per graph and shared by every instance
  // (dataflow::LogicalGraph::routing); the host only holds a reference.
  using OutEdgeInfo = dataflow::LogicalGraph::RoutingEdge;

  // One cached input bag. Entries are recycled (see InputState), so a
  // bag's chunk vector reuses the capacity of an evicted one.
  struct InputBagEntry {
    int len = 0;  // the bag's path length (its id on this input)
    ChunkVector chunks;
    int markers = 0;
    int refs = 0;
    bool superseded = false;
    int64_t bytes = 0;  // buffered payload bytes (tracked globally)
  };

  struct InputState {
    dataflow::EdgeRef edge;
    ir::BlockId producer_block = ir::kNoBlock;
    int expected_markers = 0;
    // Cached bags in no particular order: bags[0, live) are in use, the
    // rest are spares kept for their capacity. A handful are live at once.
    std::vector<InputBagEntry> bags;
    size_t live = 0;

    // Index into bags of the live entry for `len`, or -1.
    int IndexOf(int len) const;
    InputBagEntry& FindOrAdd(int len);
    // Releases the live entry at `index` (its chunks are dropped) and
    // keeps it as a spare.
    void Erase(size_t index);
  };

  // One output bag in path order. The queue recycles these slots, so the
  // per-input vectors keep their capacity from bag to bag.
  struct OutBag {
    int path_len = 0;
    std::vector<int> chosen;      // per input: chosen bag length, 0 = none
    std::vector<size_t> fed;      // chunks enqueued so far per input
    std::vector<uint8_t> closed;  // Close enqueued per input
    uint64_t reuse = 0;  // hoisting: bit i = skip re-feeding input i
    bool opened = false;
    bool finish_enqueued = false;
    bool replay = false;  // survived a failed attempt: zero-cost re-run
    int64_t elements_in = 0;
    double t_open = 0;  // virtual time processing started (tracing)
  };

  // Conditional-output gating state per (bag, conditional out-edge).
  struct PendingSend {
    int bag_len = 0;
    int edge_index = 0;
    enum class State { kPending, kSending, kDropped } state =
        State::kPending;
    ChunkVector buffered;
    bool bag_finished = false;
    bool done = false;  // marker sent or dropped; entry removable
  };

  // One unit of the operator instance's serialized work, as plain data:
  // RunWork() executes it, so queueing it allocates nothing and the
  // backend callback that runs it captures only `this`.
  enum class Phase : uint8_t { kOpen, kPush, kClose, kFinish };
  struct WorkItem {
    double cpu = 0;  // modelled CPU charge
    Phase phase = Phase::kOpen;
    int input = 0;       // kPush, kClose: the logical input
    int chosen_len = 0;  // kPush: the input bag's path length
    size_t chunk = 0;    // kPush: index into that bag's chunks
    int bag_len = 0;     // the output bag's path length
    uint64_t reuse = 0;  // kOpen: bit i = keep input i's built state
  };

  // ----- path events -----
  void OnPathAppend(int pos, ir::BlockId block);
  void OnPathComplete();
  // The path reached this operator's block: open the output bag with
  // prefix `path_len`, choosing each input by the longest-prefix rule.
  void CreateOutBag(int path_len);
  // Longest-prefix rule (5.2.3) for input `i` of a bag with prefix `len`.
  int ChooseInput(int i, int len) const;

  // ----- processing -----
  void TryFeed();
  // Charges and queues `item`; the work queue runs one item at a time.
  void EnqueueWork(const WorkItem& item);
  // Starts the front item on the backend when the instance is idle.
  void Pump();
  // Backend callback of the item Pump started.
  void OnWorkDone();
  void RunWork(const WorkItem& item);
  void EnqueueFinish(OutBag& bag);
  void FinalizeActiveBag();
  void ReleaseAndPop();

  // ----- special (kernel-less) nodes -----
  bool IsSpecial() const;
  void SpecialPush(int input, const Chunk& chunk);
  void SpecialFinish();  // may complete asynchronously (disk I/O)
  void StartFileRead(const std::string& filename);
  void FinishFileWrite();

  // ----- emission -----
  // Re-chunks `chunk` to the configured chunk size via zero-copy slices and
  // routes each piece over every out-edge; the handle is *moved* on the
  // last (or only) edge so single-consumer fan-out never touches refcounts.
  void EmitChunk(int bag_len, Chunk&& chunk);
  void RoutePiece(int bag_len, Chunk piece);
  void SendOnEdge(size_t edge_index, int bag_len, Chunk chunk);
  // Hash-partitions `chunk` for a shuffle edge, preserving representation
  // (typed columns partition into typed columns). Returns false after
  // failing the job (kField0 over non-tuple elements).
  bool PartitionChunk(const Chunk& chunk, size_t edge_index,
                      ChunkVector* parts);
  void SendChunkTo(const OutEdgeInfo& edge, int consumer_instance,
                   int bag_len, Chunk chunk);
  void SendMarkerOnEdge(size_t edge_index, int bag_len);
  void FlushShuffleBuffers(int bag_len);
  void AdvancePendingSends(ir::BlockId block);
  PendingSend* FindPendingSend(int bag_len, size_t edge_index);
  // Drops finished entries (marker sent or bag dropped), keeping the
  // survivors in creation order and the dropped slots as spares.
  void CompactPendingSends();

  void MaybeEvict(size_t input_index);

  double PerElementCost() const;
  // Per-chunk virtual-time charge: amortized dispatch bookkeeping plus
  // per-payload-byte cost (sim::ClusterConfig::cpu_per_chunk/cpu_per_byte).
  double ChunkCost(const Chunk& chunk) const;

  RuntimeContext* ctx_;
  const dataflow::LogicalNode* node_;
  int instance_;
  int machine_;
  ControlFlowManager* cfm_;

  std::unique_ptr<dataflow::BagOperator> kernel_;
  std::vector<InputState> inputs_;
  const std::vector<OutEdgeInfo>& out_edges_;

  RingBuffer<OutBag> out_bags_;
  // pending_sends_[0, live_sends_) in creation order; the rest are spares.
  std::vector<PendingSend> pending_sends_;
  size_t live_sends_ = 0;
  // Spark-style blocking shuffles: chunks held until the bag finishes.
  std::map<std::pair<int, size_t>, ChunkVector> shuffle_buffers_;

  // Previous (finished) bag's input choices, for hoisting.
  std::vector<int> prev_chosen_;
  bool has_prev_ = false;
  // Scratch for per-input longest-prefix lengths (one per occurrence).
  std::vector<int> lens_;

  // The operator instance's lane in the execution trace (registered on
  // first use; -1 until then). Only meaningful when ctx_->trace() != null.
  int TraceLane();

  // Serialized work queue modelling the single-threaded operator instance;
  // running_ is the item on the backend while busy_.
  RingBuffer<WorkItem> work_;
  WorkItem running_;
  bool busy_ = false;
  int trace_lane_ = -1;

  // Special-node scratch (condition values, writeFile buffers, filenames).
  DatumVector special_values_;
  DatumVector special_data_;
  bool special_async_ = false;  // async finish in flight (disk I/O)
};

}  // namespace mitos::runtime

#endif  // MITOS_RUNTIME_HOST_H_
