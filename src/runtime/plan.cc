#include "runtime/plan.h"

#include <string>
#include <utility>

#include "ir/dce.h"
#include "ir/ssa.h"
#include "ir/verify.h"
#include "runtime/translator.h"

namespace mitos::runtime {

StatusOr<Plan> CompilePlan(const lang::Program& source,
                           const PlanOptions& options) {
  StatusOr<ir::Program> compiled = ir::CompileToIr(source);
  if (!compiled.ok()) return compiled.status();
  if (options.machines < 1) {
    return Status::InvalidArgument("a plan needs at least one machine, got " +
                                   std::to_string(options.machines));
  }
  ir::Program program = std::move(compiled).value();
  MITOS_RETURN_IF_ERROR(ir::Verify(program));
  if (options.dead_code_elimination) {
    StatusOr<ir::DceResult> pruned = ir::EliminateDeadCode(program);
    if (!pruned.ok()) return pruned.status();
    program = std::move(pruned->program);
    MITOS_RETURN_IF_ERROR(ir::Verify(program));
  }
  StatusOr<TranslateResult> translated = Translate(program, options.machines);
  if (!translated.ok()) return translated.status();

  auto plan = std::make_shared<Plan::Compiled>();
  plan->machines = options.machines;
  plan->program = std::move(program);
  plan->graph = std::move(translated->graph);
  plan->var_node = std::move(translated->var_node);
  return Plan(std::move(plan));
}

}  // namespace mitos::runtime
