// The differential harness behind mitos_fuzz: runs one program on every
// engine variant and cross-checks results.
//
// The oracle is the sequential reference interpreter. Every variant —
// Mitos on the DES at one and three machines and on the real-parallel
// threads backend, the ablation engines, and the Flink-/Spark-style
// baselines — must produce the same output files with the same elements
// (multiset equality; engines are free to reorder). On top of that:
//
//   * run-twice determinism: variants marked `run_twice` are executed a
//     second time from pristine inputs and must reproduce their own output
//     byte-identically (exact element order);
//   * fault replay: variants marked `fault_replay` re-run the program once
//     per sim::FaultPlan in DiffOptions::fault_plans, and recovery must be
//     byte-identical to the variant's own fault-free run.
//
// The program is compiled once per distinct machine count (api::Compile);
// every variant that runs from a plan executes that shared immutable plan,
// reruns and fault replays included. The reference and the Spark-style
// baseline still start from the source program.
//
// Verdicts separate "found a bug" from "job broke": a variant that errors
// or diverges where the reference succeeded is a kMismatch (the fuzzer's
// payload — exit code 1); a failing reference run is a kInfraError (a
// generator or harness defect — exit code 2).
#ifndef MITOS_TESTING_DIFFERENTIAL_H_
#define MITOS_TESTING_DIFFERENTIAL_H_

#include <functional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/status.h"
#include "lang/ast.h"
#include "sim/fault.h"
#include "sim/filesystem.h"

namespace mitos::testing {

struct EngineVariant {
  std::string label;
  api::EngineKind engine = api::EngineKind::kMitos;
  api::BackendKind backend = api::BackendKind::kDes;
  int machines = 3;
  // Columnar batched data plane (the default); false runs the boxed
  // DatumVector fallback end to end — the two must be element-identical.
  bool columnar = true;
  // Run twice from pristine inputs; the outputs must be byte-identical.
  bool run_twice = false;
  // Replay DiffOptions::fault_plans against this variant (DES Mitos only);
  // recovery must be byte-identical to the variant's fault-free run.
  bool fault_replay = false;
};

// The default cross-check matrix (see the header comment). Labels:
//   mitos-des@3, mitos-des@1, mitos-des-boxed@3, mitos-threads@3,
//   mitos-nopipe@3, flink@3, spark@3
std::vector<EngineVariant> DefaultMatrix();

// `filter` is a comma-separated list of label substrings (mitos_fuzz
// --engines=); empty keeps everything.
std::vector<EngineVariant> FilterMatrix(std::vector<EngineVariant> matrix,
                                        const std::string& filter);

struct DiffOptions {
  std::vector<EngineVariant> variants = DefaultMatrix();
  std::vector<sim::FaultPlan> fault_plans;
  // Test hook: corrupts a variant's output filesystem before comparison,
  // proving the harness detects injected mismatches.
  std::function<void(const std::string& label, sim::SimFileSystem*)> tamper;
};

enum class Verdict { kOk, kMismatch, kInfraError };

struct Mismatch {
  std::string label;   // engine variant (":faults" / ":rerun" suffixed)
  std::string file;    // first differing file ("" for run errors)
  std::string detail;  // human-readable diagnosis
};

struct DiffReport {
  Verdict verdict = Verdict::kOk;
  std::vector<Mismatch> mismatches;  // non-empty iff kMismatch
  Status infra_status = Status::Ok();
  std::string infra_context;  // which run broke, for kInfraError
  int runs = 0;               // engine executions performed

  std::string ToString() const;
};

DiffReport RunDifferential(const lang::Program& program,
                           const DiffOptions& options = {});

}  // namespace mitos::testing

#endif  // MITOS_TESTING_DIFFERENTIAL_H_
