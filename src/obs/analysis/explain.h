// Plan EXPLAIN: a deterministic export of the full compilation pipeline —
// imperative AST → SSA IR → logical dataflow graph — as DOT or JSON, with
// per-operator cost annotations back-filled from a profiled run.
//
// The plan comes from runtime::CompilePlan, the one compile pipeline
// (Verify → dead-code elimination → Translate), so the plan shown is the
// plan every engine that runs from a plan executes. Costs come from
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
#include "runtime/plan.h"

namespace mitos::obs::analysis {

struct ExplainOptions {
  // The compile options of the plan to explain: machine count (the
  // instance count of data-parallel operators) and DCE. Pass the
  // executing engine's options to explain the plan it runs.
  runtime::PlanOptions plan;
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
