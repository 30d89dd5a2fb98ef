// Logical dataflow graphs (a single — possibly cyclic — job).
//
// One node per SSA assignment statement, one edge per variable reference
// (paper Sec. 4.3), plus a condition node per conditional branch terminator
// (the blue/brown nodes of Figure 3b). Edges crossing basic blocks are
// *conditional*: whether they transmit a given bag is governed by the
// execution path (Sec. 5.2.4). Parallel reduce/count are expanded into a
// local (pre-aggregating) node plus a parallelism-1 final node.
#ifndef MITOS_DATAFLOW_GRAPH_H_
#define MITOS_DATAFLOW_GRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "common/datum.h"
#include "ir/ir.h"
#include "lang/functions.h"

namespace mitos::dataflow {

using NodeId = int;

enum class NodeKind {
  kBagLit,       // emits a literal bag
  kReadFile,     // input 0: filename (one-element bag); reads its partition
  kMap,
  kFilter,
  kFlatMap,
  kReduceByKey,  // input shuffled by field 0
  kLocalReduce,  // per-partition pre-fold (paper's `summed`, parallel part)
  kFinalReduce,  // folds the gathered partials (parallelism 1)
  kLocalCount,   // per-partition count
  kJoin,         // input 0 = build, input 1 = probe, both shuffled by key
  kUnion,
  kDistinct,     // input shuffled by whole element
  kCombine2,     // two one-element bags -> one element
  kPhi,          // runtime-selected identity (black nodes of Fig. 3b)
  kWriteFile,    // sink; input 0 = bag, input 1 = filename
  kCondition,    // evaluates a one-element bool bag; drives the path
};

const char* NodeKindName(NodeKind kind);

// How a logical edge fans out into physical edges.
enum class EdgeKind {
  kForward,    // instance i -> instance i (producer par <= consumer par)
  kShuffle,    // all-to-all, routed by hash
  kGather,     // all -> instance 0
  kBroadcast,  // instance 0 -> all (requires producer parallelism 1;
               // used for metadata such as file names)
};

const char* EdgeKindName(EdgeKind kind);

// What a shuffle hashes on.
enum class ShuffleKey {
  kField0,        // tuple field 0 (join / reduceByKey keys)
  kWholeElement,  // the element itself (distinct)
};

struct EdgeRef {
  NodeId from = -1;
  int input_index = -1;  // which logical input of the consumer
  EdgeKind kind = EdgeKind::kForward;
  ShuffleKey shuffle_key = ShuffleKey::kField0;
  // True when producer and consumer live in different basic blocks: the
  // runtime gates transmission on the execution path (Sec. 5.2.4).
  bool conditional = false;
};

struct LogicalNode {
  NodeId id = -1;
  NodeKind kind{};
  std::string name;            // SSA variable name (debugging / stats)
  ir::BlockId block = ir::kNoBlock;
  int parallelism = 1;
  bool singleton = false;      // one-element bag (wrapped scalar world)

  // Payloads.
  lang::UnaryFn unary;
  lang::PredicateFn pred;
  lang::FlatMapFn flat;
  lang::BinaryFn binary;
  DatumVector literal;

  // For kCondition: the block whose terminator this node decides, plus its
  // two successor blocks.
  ir::BlockId branch_true = ir::kNoBlock;
  ir::BlockId branch_false = ir::kNoBlock;

  std::vector<EdgeRef> inputs;

  // Relative per-element CPU cost (hash builds cost more than maps).
  double cost_factor = 1.0;
};

struct LogicalGraph {
  std::vector<LogicalNode> nodes;

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  const LogicalNode& node(NodeId id) const {
    return nodes[static_cast<size_t>(id)];
  }

  // Out-edges are derived from inputs; (consumer, input_index) pairs.
  struct OutEdge {
    NodeId to;
    int input_index;
  };
  std::vector<std::vector<OutEdge>> BuildOutEdges() const;

  // Pre-resolved routing/partitioning metadata for a producer's physical
  // out-edges: everything a host needs to emit without consulting the
  // consumer node again. BuildRouting() fills the table once, after the
  // last edit to `nodes` (runtime::Translate calls it); from then on it is
  // read-only, so one graph can back several jobs running at the same time.
  struct RoutingEdge {
    NodeId consumer;
    int input_index;
    EdgeKind kind;
    ShuffleKey shuffle_key;
    bool conditional;
    ir::BlockId consumer_block;
    int consumer_par;
  };
  void BuildRouting();
  const std::vector<RoutingEdge>& routing(NodeId producer) const;

 private:
  std::vector<std::vector<RoutingEdge>> routing_;
};

std::string ToString(const LogicalGraph& graph);

// GraphViz rendering in the style of the paper's Figure 3b: nodes grouped
// into basic-block clusters, Φ nodes filled black, condition nodes
// colored, conditional edges dashed. With `operator_cpu` (busy-CPU seconds
// per operator name, e.g. RunStats::operator_cpu from a profiled run),
// node labels carry the measured cost — the EXPLAIN back-fill.
std::string ToDot(const LogicalGraph& graph);
std::string ToDot(const LogicalGraph& graph,
                  const std::map<std::string, double>& operator_cpu);

}  // namespace mitos::dataflow

#endif  // MITOS_DATAFLOW_GRAPH_H_
