// bench_diff: compare two bench-regression baseline files (BENCH_*.json,
// written by the figure benchmarks' --baseline-out flag) and flag runs whose
// virtual time regressed beyond a threshold.
//
//   bench_diff BASE.json CURRENT.json
//       [--threshold=0.10] [--advisory]
//
// --threshold is a relative slowdown: a finite number above 0, written in
// full (anything else is a usage error).
//
// --advisory makes the comparison report-only: drift is printed but the
// exit status stays 0 regardless (I/O and schema errors still exit 2).
// Meant for wall-clock baselines (BENCH_threads_wallclock.json) whose
// numbers depend on the host — CI cross-checks them against a committed
// reference with a generous threshold (default 0.50 in this mode) without
// letting a noisy runner fail the build.
//
// Exit status: 0 when no regression (or --advisory), 1 when any run
// regressed (or a run present in BASE is missing from CURRENT), 2 on usage
// or I/O errors — including a baseline that fails to parse, has no
// "schema" field, or carries a schema version this binary doesn't
// understand. Baselines hold virtual-time quantities, so a committed BASE
// diffs byte-stably against a fresh CI run on any host (wall-clock bench
// shapes are the exception — hence --advisory).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/analysis/baseline.h"

int main(int argc, char** argv) {
  using mitos::obs::analysis::BaselineDiff;
  using mitos::obs::analysis::BaselineFile;
  using mitos::obs::analysis::Compare;

  std::string base_path, current_path;
  double threshold = 0.10;
  bool have_threshold = false;
  bool advisory = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      const char* value = arg.c_str() + std::strlen("--threshold=");
      char* end = nullptr;
      threshold = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(threshold) ||
          threshold <= 0) {
        std::fprintf(stderr, "bench_diff: bad --threshold value: %s\n",
                     arg.c_str());
        return 2;
      }
      have_threshold = true;
    } else if (arg == "--advisory") {
      advisory = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag: %s\n", arg.c_str());
      return 2;
    } else if (base_path.empty()) {
      base_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::fprintf(stderr, "bench_diff: too many arguments\n");
      return 2;
    }
  }
  if (current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff BASE.json CURRENT.json "
                 "[--threshold=0.10] [--advisory]\n");
    return 2;
  }
  // Wall-clock numbers are host-dependent; without an explicit threshold
  // the advisory cross-check uses a generous one.
  if (advisory && !have_threshold) threshold = 0.50;

  auto base = BaselineFile::Load(base_path);
  if (!base.ok()) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", base_path.c_str(),
                 base.status().ToString().c_str());
    return 2;
  }
  auto current = BaselineFile::Load(current_path);
  if (!current.ok()) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", current_path.c_str(),
                 current.status().ToString().c_str());
    return 2;
  }

  // Baseline files carry a schema version ("schema":1). A missing field
  // (schema 0) or a version this binary doesn't know is a hard error: a
  // comparison across shapes silently reads garbage quantities, which is
  // worse than failing the gate outright.
  for (const auto& [path, file] :
       {std::pair{&base_path, &*base}, std::pair{&current_path, &*current}}) {
    if (file->schema == 0) {
      std::fprintf(stderr,
                   "bench_diff: %s: baseline has no \"schema\" field; "
                   "regenerate it with the current bench binaries\n",
                   path->c_str());
      return 2;
    }
    if (file->schema != BaselineFile::kSchemaVersion) {
      std::fprintf(stderr,
                   "bench_diff: %s: unknown baseline schema %d (this tool "
                   "understands %d)\n",
                   path->c_str(), file->schema,
                   BaselineFile::kSchemaVersion);
      return 2;
    }
  }
  BaselineDiff diff = Compare(*base, *current, threshold);
  std::printf("%s", diff.ToString().c_str());
  if (diff.failed()) {
    if (advisory) {
      std::printf("ADVISORY: %d drift(s) beyond %g%%, %zu missing run(s) — "
                  "report only, not failing\n",
                  diff.regressions, threshold * 100, diff.missing.size());
      return 0;
    }
    std::printf("FAIL: %d regression(s), %zu missing run(s) "
                "(threshold %g%%)\n",
                diff.regressions, diff.missing.size(), threshold * 100);
    return 1;
  }
  std::printf("OK: %zu run(s) compared, %d improvement(s), %zu new run(s) "
              "(threshold %g%%)\n",
              diff.rows.size(), diff.improvements, diff.added.size(),
              threshold * 100);
  return 0;
}
