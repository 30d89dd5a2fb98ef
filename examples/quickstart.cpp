// Quickstart: write an imperative dataflow program, run it with Mitos.
//
// The program is the paper's introductory example (Sec. 2): compute
// per-page visit counts for each day of logs — an ordinary imperative loop
// that reads a different file in every iteration, which Flink's native
// iterations cannot express and which costs Spark a job launch per day.
// Mitos compiles the whole loop into ONE cyclic dataflow job.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "api/engine.h"
#include "lang/builder.h"
#include "workloads/generators.h"

namespace {

using namespace mitos;  // example code; library code never does this

lang::Program BuildVisitCount(int days) {
  using namespace mitos::lang;
  ProgramBuilder pb;
  pb.Assign("day", LitInt(1));
  pb.DoWhile(
      [&] {
        // visits = readFile("pageVisitLog" + day)        // page ids
        pb.Assign("visits",
                  ReadFile(Concat(LitString("pageVisitLog"), Var("day"))));
        // counts = visits.map(x => (x,1)).reduceByKey(_+_)
        pb.Assign("counts", ReduceByKey(Map(Var("visits"), fns::PairWithOne()),
                                        fns::SumInt64()));
        // counts.writeFile("counts" + day)
        pb.WriteFile(Var("counts"), Concat(LitString("counts"), Var("day")));
        pb.Assign("day", Add(Var("day"), LitInt(1)));
      },
      lang::Le(Var("day"), LitInt(days)));
  return pb.Build();
}

}  // namespace

int main() {
  constexpr int kDays = 5;

  // 1. Synthesize input logs into the simulated file system.
  sim::SimFileSystem fs;
  workloads::GenerateVisitLogs(
      &fs, {.days = kDays, .entries_per_day = 5'000, .num_pages = 50});

  // 2. Build the imperative program.
  lang::Program program = BuildVisitCount(kDays);
  std::printf("--- program ---\n%s\n", lang::ToSource(program).c_str());

  // 3. Run it under Mitos on an 8-machine simulated cluster.
  auto result = api::Run(api::EngineKind::kMitos, program, &fs,
                         {.machines = 8});
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the outputs and the run statistics.
  std::printf("--- outputs ---\n");
  for (int day = 1; day <= kDays; ++day) {
    std::string name = "counts" + std::to_string(day);
    auto data = fs.Read(name);
    std::printf("%s: %zu pages, e.g. %s\n", name.c_str(), data->size(),
                mitos::ToString(*data, 3).c_str());
  }
  std::printf("--- stats ---\n%s\n", result->stats.ToString().c_str());
  std::printf("single dataflow job, %d control-flow decisions for %d days\n",
              result->stats.decisions, kDays);
  return 0;
}
