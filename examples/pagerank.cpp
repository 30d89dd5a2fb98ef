// PageRank: an iterative graph algorithm with a loop-invariant adjacency
// join — the classic beneficiary of loop-invariant hoisting (paper
// Sec. 5.3: "any iterative graph algorithm that joins with a static dataset
// containing the graph edges").
//
// Also dumps the SSA intermediate representation (paper Fig. 3a style) and
// the translated dataflow graph so you can see the compilation pipeline.
//
// Build & run:  ./build/examples/pagerank
#include <algorithm>
#include <cstdio>

#include "api/engine.h"
#include "ir/ir.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

int main() {
  using namespace mitos;

  sim::SimFileSystem fs;
  workloads::GenerateGraph(&fs, {.num_vertices = 200, .num_edges = 1'500});

  lang::Program program = workloads::PageRankProgram(
      {.iterations = 15, .num_vertices = 200});

  // Compile once: imperative -> SSA -> one dataflow job, shown here.
  auto plan = api::Compile(program, {.machines = 4});
  if (!plan.ok()) {
    std::printf("compile error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("--- SSA IR (paper Fig. 3a style) ---\n%s\n",
              ir::ToString(plan->program()).c_str());
  std::printf("--- dataflow job (one node per assignment) ---\n%s\n",
              dataflow::ToString(plan->graph()).c_str());

  // ...then run it.
  auto result =
      api::Execute(api::EngineKind::kMitos, *plan, &fs, {.machines = 4});
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  auto ranks = fs.Read("ranks");
  DatumVector sorted = *ranks;
  std::sort(sorted.begin(), sorted.end(), [](const Datum& a, const Datum& b) {
    return a.field(1).dbl() > b.field(1).dbl();
  });
  std::printf("--- top 5 pages by rank ---\n");
  for (size_t i = 0; i < 5 && i < sorted.size(); ++i) {
    std::printf("  page %lld: %.6f\n",
                static_cast<long long>(sorted[i].field(0).int64()),
                sorted[i].field(1).dbl());
  }
  double total = 0;
  for (const Datum& r : *ranks) total += r.field(1).dbl();
  std::printf("rank mass: %.4f (should stay ~1.0)\n", total);
  std::printf("stats: %s\n", result->stats.ToString().c_str());
  return 0;
}
