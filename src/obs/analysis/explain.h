// Plan EXPLAIN: a deterministic export of the full compilation pipeline —
// imperative AST → SSA IR → logical dataflow graph — as DOT or JSON, with
// per-operator cost annotations back-filled from a profiled run.
//
// The plan comes from runtime::CompilePlan, the one compile pipeline
// (Verify → dead-code elimination → optional fusion → Translate), so the
// plan shown is the plan the Mitos engines execute. Costs come from
// RunStats::operator_cpu (busy-CPU seconds per operator); EXPLAIN without
// a profile shows the plan with static annotations only.
//
// Exposed as api::Engine::Explain() and `mitos_run --explain[=dot|json]`.
#ifndef MITOS_OBS_ANALYSIS_EXPLAIN_H_
#define MITOS_OBS_ANALYSIS_EXPLAIN_H_

#include <map>
#include <string>

#include "common/status.h"
#include "dataflow/graph.h"
#include "ir/ir.h"
#include "lang/ast.h"

namespace mitos::obs::analysis {

struct ExplainOptions {
  // Instance count for data-parallel operators (normally the machine
  // count); part of the plan, so part of EXPLAIN.
  int machines = 4;
  // Match the executing engine's IR pipeline.
  bool dead_code_elimination = true;
  bool operator_fusion = false;
  // Busy-CPU seconds per operator name from a profiled run
  // (RunStats::operator_cpu); empty = no cost back-fill.
  std::map<std::string, double> operator_cpu;
};

struct ExplainPlan {
  std::string ast;  // lang::ToSource of the source program
  std::string ssa;  // ir::ToString after the optimization pipeline
  dataflow::LogicalGraph graph;
  std::map<std::string, double> operator_cpu;  // back-filled costs

  // GraphViz rendering of the dataflow graph, cost-annotated.
  std::string ToDot() const;
  // The whole pipeline as one deterministic JSON document:
  // {"ast": "...", "ssa": "...", "dataflow": {"nodes": […], "edges": […]}}.
  std::string ToJson() const;
};

StatusOr<ExplainPlan> BuildExplain(const lang::Program& program,
                                   const ExplainOptions& options = {});

}  // namespace mitos::obs::analysis

#endif  // MITOS_OBS_ANALYSIS_EXPLAIN_H_
