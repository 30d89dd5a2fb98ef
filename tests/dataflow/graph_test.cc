#include "dataflow/graph.h"

#include <gtest/gtest.h>

#include "ir/ssa.h"
#include "runtime/translator.h"
#include "workloads/programs.h"

namespace mitos::dataflow {
namespace {

LogicalGraph VisitCountGraph() {
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  auto ir = ir::CompileToIr(program);
  MITOS_CHECK(ir.ok());
  auto translated = runtime::Translate(*ir, 4);
  MITOS_CHECK(translated.ok());
  return std::move(translated->graph);
}

TEST(GraphTest, OutEdgesInvertInputs) {
  LogicalGraph g = VisitCountGraph();
  auto out = g.BuildOutEdges();
  int edges_via_inputs = 0;
  for (const LogicalNode& node : g.nodes) {
    edges_via_inputs += static_cast<int>(node.inputs.size());
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      // The producer's out-edge list contains this (consumer, input).
      bool found = false;
      for (const auto& oe :
           out[static_cast<size_t>(node.inputs[i].from)]) {
        if (oe.to == node.id && oe.input_index == static_cast<int>(i)) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << node.name << " input " << i;
    }
  }
  int edges_via_out = 0;
  for (const auto& v : out) edges_via_out += static_cast<int>(v.size());
  EXPECT_EQ(edges_via_inputs, edges_via_out);
}

TEST(GraphTest, ToStringListsEveryNode) {
  LogicalGraph g = VisitCountGraph();
  std::string text = ToString(g);
  for (const LogicalNode& node : g.nodes) {
    EXPECT_NE(text.find(node.name), std::string::npos) << node.name;
  }
  EXPECT_NE(text.find("conditional"), std::string::npos);
  EXPECT_NE(text.find("shuffle"), std::string::npos);
}

TEST(GraphTest, ToDotIsWellFormedGraphviz) {
  LogicalGraph g = VisitCountGraph();
  std::string dot = ToDot(g);
  EXPECT_EQ(dot.rfind("digraph mitos {", 0), 0u);
  EXPECT_NE(dot.find("subgraph cluster_block"), std::string::npos);
  // Φ nodes render black (the paper's Fig. 3b styling).
  EXPECT_NE(dot.find("fillcolor=black"), std::string::npos);
  // Condition nodes are colored, conditional edges dashed.
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  // Every node id appears; braces balance.
  for (const LogicalNode& node : g.nodes) {
    std::string id = "n";
    id += std::to_string(node.id);
    id += ' ';
    EXPECT_NE(dot.find(id), std::string::npos);
  }
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(GraphTest, IrPrinterShowsBlocksAndPhis) {
  lang::Program program = workloads::VisitCountProgram({.days = 3});
  auto ir = ir::CompileToIr(program);
  ASSERT_TRUE(ir.ok());
  std::string text = ir::ToString(*ir);
  EXPECT_NE(text.find("block 0 (entry):"), std::string::npos);
  EXPECT_NE(text.find("Φ("), std::string::npos);
  EXPECT_NE(text.find("branch"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
  EXPECT_NE(text.find("[singleton]"), std::string::npos);
  EXPECT_NE(text.find("readFile("), std::string::npos);
}

}  // namespace
}  // namespace mitos::dataflow
