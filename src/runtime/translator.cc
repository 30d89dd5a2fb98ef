#include "runtime/translator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace mitos::runtime {

namespace {

using dataflow::EdgeKind;
using dataflow::EdgeRef;
using dataflow::LogicalGraph;
using dataflow::LogicalNode;
using dataflow::NodeId;
using dataflow::NodeKind;
using dataflow::ShuffleKey;

double CostFactor(NodeKind kind) {
  switch (kind) {
    case NodeKind::kBagLit: return 0.2;
    case NodeKind::kReadFile: return 0.3;
    case NodeKind::kMap: return 1.0;
    case NodeKind::kFilter: return 0.8;
    case NodeKind::kFlatMap: return 1.2;
    case NodeKind::kReduceByKey: return 1.6;  // hash aggregate
    case NodeKind::kLocalReduce: return 1.0;
    case NodeKind::kFinalReduce: return 1.0;
    case NodeKind::kLocalCount: return 0.3;
    case NodeKind::kJoin: return 1.5;  // build insert / probe lookup
    case NodeKind::kUnion: return 0.3;
    case NodeKind::kDistinct: return 1.5;
    case NodeKind::kCombine2: return 0.5;
    case NodeKind::kPhi: return 0.3;
    case NodeKind::kWriteFile: return 0.5;
    case NodeKind::kCondition: return 0.2;
  }
  return 1.0;
}

class Translator {
 public:
  Translator(const ir::Program& program, int data_parallelism)
      : program_(program), data_par_(data_parallelism) {}

  StatusOr<TranslateResult> Run() {
    MITOS_CHECK_GT(data_par_, 0);
    // Pass 1: create nodes (parallelism resolved afterwards, because Φ
    // back-edge inputs reference nodes created later).
    for (ir::BlockId b = 0; b < program_.num_blocks(); ++b) {
      const ir::BasicBlock& block = program_.block(b);
      for (const ir::Stmt& stmt : block.stmts) {
        MITOS_RETURN_IF_ERROR(AddStmtNodes(b, stmt));
      }
      if (block.term.kind == ir::Terminator::Kind::kBranch) {
        AddConditionNode(b, block.term);
      }
    }
    // Pass 2: wire edges.
    for (const PendingEdge& pe : pending_edges_) {
      MITOS_RETURN_IF_ERROR(WireEdge(pe));
    }
    // Pass 3: resolve parallelism by fixpoint (cycles go through Φs).
    ResolveParallelism();
    // Pass 4: edge kinds that depend on final parallelism.
    MITOS_RETURN_IF_ERROR(FinalizeEdgeKinds());
    graph_.BuildRouting();

    TranslateResult result;
    result.graph = std::move(graph_);
    result.var_node = std::move(var_node_);
    return result;
  }

 private:
  struct PendingEdge {
    NodeId to;
    int input_index;
    ir::VarId from_var;
  };

  LogicalNode& Node(NodeId id) { return graph_.nodes[static_cast<size_t>(id)]; }

  NodeId NewNode(NodeKind kind, ir::BlockId block, std::string name) {
    LogicalNode node;
    node.id = graph_.num_nodes();
    node.kind = kind;
    node.block = block;
    node.name = std::move(name);
    node.cost_factor = CostFactor(kind);
    graph_.nodes.push_back(std::move(node));
    return graph_.nodes.back().id;
  }

  void QueueEdge(NodeId to, int input_index, ir::VarId from_var) {
    pending_edges_.push_back(PendingEdge{to, input_index, from_var});
  }

  Status AddStmtNodes(ir::BlockId b, const ir::Stmt& stmt) {
    const std::string name =
        stmt.result != ir::kNoVar ? program_.var(stmt.result).name : "sink";
    const bool singleton =
        stmt.result != ir::kNoVar && program_.var(stmt.result).singleton;

    auto simple = [&](NodeKind kind) {
      NodeId id = NewNode(kind, b, name);
      Node(id).singleton = singleton;
      for (size_t i = 0; i < stmt.inputs.size(); ++i) {
        QueueEdge(id, static_cast<int>(i), stmt.inputs[i]);
      }
      if (stmt.result != ir::kNoVar) var_node_[stmt.result] = id;
      return id;
    };

    switch (stmt.op) {
      case ir::OpKind::kBagLit: {
        NodeId id = simple(NodeKind::kBagLit);
        Node(id).literal = stmt.bag_lit;
        return Status::Ok();
      }
      case ir::OpKind::kReadFile:
        simple(NodeKind::kReadFile);
        return Status::Ok();
      case ir::OpKind::kMap: {
        NodeId id = simple(NodeKind::kMap);
        Node(id).unary = stmt.unary;
        return Status::Ok();
      }
      case ir::OpKind::kFilter: {
        NodeId id = simple(NodeKind::kFilter);
        Node(id).pred = stmt.pred;
        return Status::Ok();
      }
      case ir::OpKind::kFlatMap: {
        NodeId id = simple(NodeKind::kFlatMap);
        Node(id).flat = stmt.flat;
        return Status::Ok();
      }
      case ir::OpKind::kReduceByKey: {
        NodeId id = simple(NodeKind::kReduceByKey);
        Node(id).binary = stmt.binary;
        return Status::Ok();
      }
      case ir::OpKind::kJoin:
        simple(NodeKind::kJoin);
        return Status::Ok();
      case ir::OpKind::kUnion:
        simple(NodeKind::kUnion);
        return Status::Ok();
      case ir::OpKind::kDistinct:
        simple(NodeKind::kDistinct);
        return Status::Ok();
      case ir::OpKind::kCombine2: {
        NodeId id = simple(NodeKind::kCombine2);
        Node(id).binary = stmt.binary;
        return Status::Ok();
      }
      case ir::OpKind::kPhi:
        simple(NodeKind::kPhi);
        return Status::Ok();
      case ir::OpKind::kWriteFile:
        simple(NodeKind::kWriteFile);
        return Status::Ok();
      case ir::OpKind::kReduce: {
        // Expand into localReduce (parallel pre-fold) + finalReduce.
        NodeId local = NewNode(NodeKind::kLocalReduce, b, name + "_partial");
        Node(local).binary = stmt.binary;
        QueueEdge(local, 0, stmt.inputs[0]);
        NodeId final_id = NewNode(NodeKind::kFinalReduce, b, name);
        Node(final_id).binary = stmt.binary;
        Node(final_id).singleton = true;
        Node(final_id).inputs.push_back(EdgeRef{
            local, 0, EdgeKind::kGather, ShuffleKey::kField0, false});
        var_node_[stmt.result] = final_id;
        return Status::Ok();
      }
      case ir::OpKind::kCount: {
        NodeId local = NewNode(NodeKind::kLocalCount, b, name + "_partial");
        QueueEdge(local, 0, stmt.inputs[0]);
        NodeId final_id = NewNode(NodeKind::kFinalReduce, b, name);
        Node(final_id).binary = lang::fns::SumInt64();
        Node(final_id).singleton = true;
        Node(final_id).inputs.push_back(EdgeRef{
            local, 0, EdgeKind::kGather, ShuffleKey::kField0, false});
        var_node_[stmt.result] = final_id;
        return Status::Ok();
      }
    }
    return Status::Internal("unknown IR op");
  }

  void AddConditionNode(ir::BlockId b, const ir::Terminator& term) {
    NodeId id = NewNode(NodeKind::kCondition, b,
                        "cond_" + program_.var(term.cond).name);
    Node(id).singleton = true;
    Node(id).branch_true = term.target;
    Node(id).branch_false = term.target_else;
    QueueEdge(id, 0, term.cond);
  }

  Status WireEdge(const PendingEdge& pe) {
    auto it = var_node_.find(pe.from_var);
    if (it == var_node_.end()) {
      return Status::Internal("translator: no node for variable " +
                              program_.var(pe.from_var).name);
    }
    EdgeRef edge;
    edge.from = it->second;
    edge.input_index = pe.input_index;
    LogicalNode& to = Node(pe.to);
    edge.conditional = Node(edge.from).block != to.block;
    // Kind refined in FinalizeEdgeKinds; record structural intent here.
    if (static_cast<size_t>(pe.input_index) >= to.inputs.size()) {
      to.inputs.resize(static_cast<size_t>(pe.input_index) + 1);
    }
    to.inputs[static_cast<size_t>(pe.input_index)] = edge;
    return Status::Ok();
  }

  void ResolveParallelism() {
    // Initial assignment: singletons and inherently-serial kinds are 1;
    // partitioned kinds are data_par_; element-wise kinds start unknown (0)
    // and inherit from their inputs.
    for (LogicalNode& node : graph_.nodes) {
      if (node.singleton) {
        node.parallelism = 1;
        continue;
      }
      switch (node.kind) {
        case NodeKind::kBagLit:
        case NodeKind::kFinalReduce:
        case NodeKind::kCombine2:
        case NodeKind::kCondition:
          node.parallelism = 1;
          break;
        case NodeKind::kReadFile:
        case NodeKind::kReduceByKey:
        case NodeKind::kJoin:
        case NodeKind::kDistinct:
          node.parallelism = data_par_;
          break;
        default:
          node.parallelism = 0;  // unknown; resolved below
          break;
      }
    }
    // Monotone fixpoint: inherit-from-inputs nodes take the max of their
    // inputs' parallelism and may still *grow* while cyclic inputs (Φ
    // back-edges) resolve — e.g. a Φ over an empty-literal init (par 1) and
    // a loop-carried big bag (par P) must end at P.
    std::vector<bool> adjustable(graph_.nodes.size());
    for (const LogicalNode& node : graph_.nodes) {
      adjustable[static_cast<size_t>(node.id)] = node.parallelism == 0;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (LogicalNode& node : graph_.nodes) {
        if (!adjustable[static_cast<size_t>(node.id)]) continue;
        int par = node.parallelism;
        for (const EdgeRef& edge : node.inputs) {
          par = std::max(par, Node(edge.from).parallelism);
        }
        if (par != node.parallelism) {
          node.parallelism = par;
          changed = true;
        }
      }
    }
    // Anything still unresolved (e.g. a Φ cycle with no grounded input —
    // cannot happen for verified IR, but stay safe) defaults to data_par_.
    for (LogicalNode& node : graph_.nodes) {
      if (node.parallelism == 0) node.parallelism = data_par_;
    }
  }

  Status FinalizeEdgeKinds() {
    for (LogicalNode& node : graph_.nodes) {
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        EdgeRef& edge = node.inputs[i];
        const LogicalNode& from = Node(edge.from);
        switch (node.kind) {
          case NodeKind::kReduceByKey:
            edge.kind = EdgeKind::kShuffle;
            edge.shuffle_key = ShuffleKey::kField0;
            break;
          case NodeKind::kJoin:
            edge.kind = EdgeKind::kShuffle;
            edge.shuffle_key = ShuffleKey::kField0;
            break;
          case NodeKind::kDistinct:
            edge.kind = EdgeKind::kShuffle;
            edge.shuffle_key = ShuffleKey::kWholeElement;
            break;
          case NodeKind::kFinalReduce:
            edge.kind = EdgeKind::kGather;
            break;
          case NodeKind::kReadFile:
            // Filename metadata goes to every reader instance.
            if (from.parallelism != 1) {
              return Status::InvalidArgument(
                  "readFile filename must be a one-element bag "
                  "(parallelism-1 producer), got parallelism " +
                  std::to_string(from.parallelism));
            }
            edge.kind = EdgeKind::kBroadcast;
            break;
          case NodeKind::kWriteFile:
            if (i == 1) {  // filename input
              if (from.parallelism != 1) {
                return Status::InvalidArgument(
                    "writeFile filename must be a one-element bag");
              }
              edge.kind = EdgeKind::kBroadcast;
            } else {
              edge.kind = from.parallelism <= node.parallelism
                              ? EdgeKind::kForward
                              : EdgeKind::kGather;
            }
            break;
          default:
            edge.kind = from.parallelism <= node.parallelism
                            ? EdgeKind::kForward
                            : EdgeKind::kGather;
            break;
        }
      }
    }
    return Status::Ok();
  }

  const ir::Program& program_;
  int data_par_;
  LogicalGraph graph_;
  std::map<ir::VarId, NodeId> var_node_;
  std::vector<PendingEdge> pending_edges_;
};

}  // namespace

StatusOr<TranslateResult> Translate(const ir::Program& program,
                                    int data_parallelism) {
  Translator translator(program, data_parallelism);
  return translator.Run();
}

}  // namespace mitos::runtime
