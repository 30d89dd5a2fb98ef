// Real-CPU cost of the control plane: the ThreadsBackend (thread-per-machine,
// wall-clock time — runtime/threads_backend.h) runs the fig7-style
// step-overhead loop, whose every step is one decision broadcast and a
// handful of cross-thread channel hops.
//
// Method: per configuration, `reps` timed runs; the MINIMUM wall time is
// reported (the standard estimator for "how fast can this go" under
// scheduler noise). Element-for-element equivalence with the DES is covered
// separately by the differential suite in tests/runtime/backend_diff_test.cc.
//
// Flags:
//   --out=FILE   write the table as JSON (the committed
//                bench/baselines/BENCH_threads_wallclock.json artifact;
//                wall-clock quantities are host-specific, so bench_diff
//                never gates on this file)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/logging.h"
#include "workloads/programs.h"

namespace mitos::bench {
namespace {

double TimedRun(const lang::Program& program, int machines) {
  sim::SimFileSystem fs;
  api::RunConfig config{.machines = machines};
  config.backend = api::BackendKind::kThreads;
  const auto t0 = std::chrono::steady_clock::now();
  auto result = api::Run(api::EngineKind::kMitos, program, &fs, config);
  const auto t1 = std::chrono::steady_clock::now();
  MITOS_CHECK(result.ok()) << result.status().ToString();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Row {
  int machines;
  int steps;
  double total_seconds;  // min over reps
};

}  // namespace
}  // namespace mitos::bench

int main(int argc, char** argv) {
  using namespace mitos;
  using bench::Row;

  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else {
      std::fprintf(stderr, "ignoring unknown flag: %s\n", arg.c_str());
    }
  }

  constexpr int kReps = 5;
  std::vector<Row> rows;
  std::printf("--- threads backend (wall clock): fig7 step loop, "
              "min of %d reps ---\n",
              kReps);
  std::printf("%9s %6s %12s %12s\n", "machines", "steps", "total (ms)",
              "step (us)");
  for (int machines : {4, 8}) {
    for (int steps : {400, 1600}) {
      lang::Program program = workloads::StepOverheadProgram(steps);
      Row row{machines, steps, 1e300};
      for (int rep = 0; rep < kReps; ++rep) {
        row.total_seconds =
            std::min(row.total_seconds, bench::TimedRun(program, machines));
      }
      std::printf("%9d %6d %12.2f %12.2f\n", machines, steps,
                  row.total_seconds * 1e3, row.total_seconds * 1e6 / steps);
      rows.push_back(row);
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    MITOS_CHECK(static_cast<bool>(out)) << "cannot write " << out_path;
    out << "{\"schema\":1,\"figure\":\"threads_wallclock\",\n"
        << " \"note\":\"wall-clock seconds, host-specific; min of "
        << kReps << " reps; never gated by bench_diff\",\n"
        << " \"entries\":[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char line[160];
      std::snprintf(line, sizeof line,
                    "{\"key\":\"fig7/m%d/s%d\",\"machines\":%d,"
                    "\"steps\":%d,\"total_seconds\":%.6f}",
                    r.machines, r.steps, r.machines, r.steps,
                    r.total_seconds);
      out << line << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
