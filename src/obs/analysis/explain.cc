#include "obs/analysis/explain.h"

#include <cstdio>

namespace mitos::obs::analysis {

namespace {

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  *out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ExplainPlan::ToDot() const {
  return dataflow::ToDot(graph, operator_cpu);
}

std::string ExplainPlan::ToJson() const {
  std::string out = "{\"ast\":\"" + JsonEscape(ast) + "\"";
  out += ",\"ssa\":\"" + JsonEscape(ssa) + "\"";
  out += ",\"dataflow\":{\"nodes\":[";
  bool first = true;
  for (const dataflow::LogicalNode& node : graph.nodes) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(node.id);
    out += ",\"name\":\"" + JsonEscape(node.name) + "\"";
    out += ",\"kind\":\"";
    out += dataflow::NodeKindName(node.kind);
    out += "\",\"block\":" + std::to_string(node.block);
    out += ",\"parallelism\":" + std::to_string(node.parallelism);
    out += ",\"singleton\":";
    out += node.singleton ? "true" : "false";
    out += ",\"cost_factor\":";
    AppendDouble(&out, node.cost_factor);
    if (auto it = operator_cpu.find(node.name); it != operator_cpu.end()) {
      out += ",\"cpu_seconds\":";
      AppendDouble(&out, it->second);
    }
    out += '}';
  }
  out += "],\"edges\":[";
  first = true;
  for (const dataflow::LogicalNode& node : graph.nodes) {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      const dataflow::EdgeRef& edge = node.inputs[i];
      if (!first) out += ',';
      first = false;
      out += "{\"from\":" + std::to_string(edge.from);
      out += ",\"to\":" + std::to_string(node.id);
      out += ",\"input\":" + std::to_string(i);
      out += ",\"kind\":\"";
      out += dataflow::EdgeKindName(edge.kind);
      out += "\",\"conditional\":";
      out += edge.conditional ? "true" : "false";
      out += '}';
    }
  }
  out += "]}}\n";
  return out;
}

StatusOr<ExplainPlan> BuildExplain(const lang::Program& program,
                                   const ExplainOptions& options) {
  StatusOr<runtime::Plan> compiled =
      runtime::CompilePlan(program, options.plan);
  if (!compiled.ok()) return compiled.status();

  ExplainPlan plan;
  plan.ast = lang::ToSource(program);
  plan.ssa = ir::ToString(compiled->program());
  plan.graph = compiled->graph();
  plan.operator_cpu = options.operator_cpu;
  return plan;
}

}  // namespace mitos::obs::analysis
