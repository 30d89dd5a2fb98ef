#include "dataflow/graph.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace mitos::dataflow {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kBagLit: return "bagLit";
    case NodeKind::kReadFile: return "readFile";
    case NodeKind::kMap: return "map";
    case NodeKind::kFilter: return "filter";
    case NodeKind::kFlatMap: return "flatMap";
    case NodeKind::kReduceByKey: return "reduceByKey";
    case NodeKind::kLocalReduce: return "localReduce";
    case NodeKind::kFinalReduce: return "finalReduce";
    case NodeKind::kLocalCount: return "localCount";
    case NodeKind::kJoin: return "join";
    case NodeKind::kUnion: return "union";
    case NodeKind::kDistinct: return "distinct";
    case NodeKind::kCombine2: return "combine2";
    case NodeKind::kPhi: return "phi";
    case NodeKind::kWriteFile: return "writeFile";
    case NodeKind::kCondition: return "condition";
  }
  return "?";
}

const char* EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kForward: return "forward";
    case EdgeKind::kShuffle: return "shuffle";
    case EdgeKind::kGather: return "gather";
    case EdgeKind::kBroadcast: return "broadcast";
  }
  return "?";
}

std::vector<std::vector<LogicalGraph::OutEdge>>
LogicalGraph::BuildOutEdges() const {
  std::vector<std::vector<OutEdge>> out(nodes.size());
  for (const LogicalNode& node : nodes) {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      const EdgeRef& edge = node.inputs[i];
      out[static_cast<size_t>(edge.from)].push_back(
          OutEdge{node.id, static_cast<int>(i)});
    }
  }
  return out;
}

void LogicalGraph::BuildRouting() {
  routing_.assign(nodes.size(), {});
  for (const LogicalNode& consumer : nodes) {
    for (size_t i = 0; i < consumer.inputs.size(); ++i) {
      const EdgeRef& edge = consumer.inputs[i];
      routing_[static_cast<size_t>(edge.from)].push_back(
          RoutingEdge{consumer.id, static_cast<int>(i), edge.kind,
                      edge.shuffle_key, edge.conditional, consumer.block,
                      consumer.parallelism});
    }
  }
}

const std::vector<LogicalGraph::RoutingEdge>& LogicalGraph::routing(
    NodeId producer) const {
  MITOS_CHECK_EQ(routing_.size(), nodes.size())
      << "LogicalGraph::routing before BuildRouting";
  return routing_[static_cast<size_t>(producer)];
}

std::string ToString(const LogicalGraph& graph) {
  std::ostringstream out;
  for (const LogicalNode& node : graph.nodes) {
    out << node.id << ": " << node.name << " = " << NodeKindName(node.kind)
        << " [block " << node.block << ", par " << node.parallelism;
    if (node.singleton) out << ", singleton";
    out << "]";
    for (const EdgeRef& edge : node.inputs) {
      out << "  <-" << edge.from << " (" << EdgeKindName(edge.kind);
      if (edge.conditional) out << ", conditional";
      out << ")";
    }
    out << '\n';
  }
  return out.str();
}

std::string ToDot(const LogicalGraph& graph) {
  return ToDot(graph, {});
}

std::string ToDot(const LogicalGraph& graph,
                  const std::map<std::string, double>& operator_cpu) {
  std::ostringstream out;
  out << "digraph mitos {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  // Cluster nodes by basic block (the dotted rectangles of Fig. 3b).
  std::map<int, std::vector<const LogicalNode*>> by_block;
  for (const LogicalNode& node : graph.nodes) {
    by_block[node.block].push_back(&node);
  }
  for (const auto& [block, nodes] : by_block) {
    out << "  subgraph cluster_block" << block << " {\n"
        << "    label=\"block " << block << "\"; style=dotted;\n";
    for (const LogicalNode* node : nodes) {
      out << "    n" << node->id << " [label=\"" << node->name << "\\n"
          << NodeKindName(node->kind) << " x" << node->parallelism;
      if (auto it = operator_cpu.find(node->name);
          it != operator_cpu.end()) {
        char cost[48];
        std::snprintf(cost, sizeof(cost), "\\n%.4fs cpu", it->second);
        out << cost;
      }
      out << "\"";
      if (node->kind == NodeKind::kPhi) {
        out << ", style=filled, fillcolor=black, fontcolor=white";
      } else if (node->kind == NodeKind::kCondition) {
        out << ", style=filled, fillcolor=lightblue";
      } else if (node->singleton) {
        out << ", penwidth=0.5";
      } else {
        out << ", penwidth=2";
      }
      out << "];\n";
    }
    out << "  }\n";
  }
  for (const LogicalNode& node : graph.nodes) {
    for (const EdgeRef& edge : node.inputs) {
      out << "  n" << edge.from << " -> n" << node.id << " [label=\""
          << EdgeKindName(edge.kind) << "\"";
      if (edge.conditional) out << ", style=dashed, color=brown";
      out << "];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace mitos::dataflow
