// Compile once, run many: the immutable product of the Mitos compile
// pipeline (paper Sec. 4) that every execution of a program starts from.
//
//   TypeCheck + Preparator + SSA (ir::CompileToIr) → Verify → dead-code
//   elimination → Verify → [elementwise fusion → Verify] → Translate
//
// A Plan holds the optimized IR program (the control-flow side every
// PathAuthority reads), the translated LogicalGraph with its routing table
// (the dataflow side every operator host reads), the SSA-variable → node
// map, and the machine count the graph was instantiated for. Nothing in it
// changes after CompilePlan returns, so one Plan can back any number of
// jobs — sequentially on the DES, or at the same time on several
// ThreadsBackends. Copies are cheap and share the compiled contents.
//
// The data-parallel instance count is baked into the graph, so a plan runs
// only on a backend with exactly plan.machines() machines (ExecutePlan in
// runtime/executor.h returns InvalidArgument otherwise).
#ifndef MITOS_RUNTIME_PLAN_H_
#define MITOS_RUNTIME_PLAN_H_

#include <map>
#include <memory>

#include "common/status.h"
#include "dataflow/graph.h"
#include "ir/ir.h"
#include "lang/ast.h"

namespace mitos::runtime {

struct PlanOptions {
  // Instance count of the data-parallel operators.
  int machines = 4;
  // Prune statements no sink or condition depends on (ir/dce.h): dead
  // loop Φs cost per-iteration coordination. Off = ablation
  // (bench/micro_ablations.cc).
  bool dead_code_elimination = true;
  // Fuse same-block single-consumer elementwise chains into one operator
  // (Flink/Spark-style chaining; ir/fusion.h). Opt-in: off by default so
  // the dataflow graph matches the paper's one-node-per-assignment
  // construction; the ablation bench measures its effect.
  bool operator_fusion = false;
};

class Plan {
 public:
  int machines() const { return compiled_->machines; }
  // The optimized SSA program the job's control flow runs over.
  const ir::Program& program() const { return compiled_->program; }
  const dataflow::LogicalGraph& graph() const { return compiled_->graph; }
  // SSA variable id -> node producing it (final node for reduce/count).
  const std::map<ir::VarId, dataflow::NodeId>& var_node() const {
    return compiled_->var_node;
  }

 private:
  struct Compiled {
    int machines = 0;
    ir::Program program;
    dataflow::LogicalGraph graph;
    std::map<ir::VarId, dataflow::NodeId> var_node;
  };
  explicit Plan(std::shared_ptr<const Compiled> compiled)
      : compiled_(std::move(compiled)) {}
  friend StatusOr<Plan> CompilePlan(const lang::Program& program,
                                    const PlanOptions& options);

  std::shared_ptr<const Compiled> compiled_;
};

// The whole pipeline from source: the one compile sequence. Every engine
// that runs a dataflow job (the Mitos engines, the native-iteration
// baselines and each action of the Spark driver), EXPLAIN and
// `mitos_run --dump-ir/--dump-dot` go through it.
StatusOr<Plan> CompilePlan(const lang::Program& program,
                           const PlanOptions& options);

}  // namespace mitos::runtime

#endif  // MITOS_RUNTIME_PLAN_H_
