// Self-contained fuzzer repro files.
//
// When mitos_fuzz finds a divergence it writes one file that captures the
// whole finding: a `//`-comment metadata header (seed, the mismatching
// engine label, a one-line diagnosis, the fault-plan specs in sim::FaultPlan
// grammar) followed by the minimized program in lang/parser.h source syntax.
// Because the header is comments and the body is surface syntax, the same
// file is simultaneously
//   * machine-loadable: ParseRepro() recovers the program AND the fault
//     plans, so tests/testing/fuzz_corpus_test.cc replays the exact failing
//     configuration through the full differential harness; and
//   * a plain Mitos script: `mitos_run --program=<file>` runs it directly
//     (the lexer skips // comments), which is how you poke at a repro by
//     hand.
//
// Example:
//   // mitos_fuzz repro
//   // seed: 77
//   // mismatch: mitos-des@3:faults[0]
//   // detail: o1: element mismatch: expected 4 elements ...
//   // fault[0]: crash=1@0.61+0.30; ckpt=2
//   b0 = bagOf(3, 1, 4);
//   write(b0.map(addInt64(2)), "o1");
#ifndef MITOS_TESTING_REPRO_H_
#define MITOS_TESTING_REPRO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "lang/ast.h"
#include "sim/fault.h"

namespace mitos::testing {

struct Repro {
  uint64_t seed = 0;
  std::string mismatch_label;  // first diverging variant label
  std::string detail;          // one-line diagnosis (informational)
  std::vector<std::string> fault_specs;  // FaultPlan::Parse grammar
  std::vector<sim::FaultPlan> fault_plans;  // parsed from fault_specs
  std::string source;          // program source, no header
  lang::Program program;       // parsed from `source`
};

// Renders the repro file text (header + source). `repro.source` is the
// authoritative program body; `program` is ignored by the formatter.
std::string FormatRepro(const Repro& repro);

// Inverse of FormatRepro: accepts any text whose leading `//` comment lines
// optionally carry `seed:` / `mismatch:` / `detail:` / `fault[i]:` keys
// (unknown keys are ignored) and whose remainder parses as a Mitos program.
StatusOr<Repro> ParseRepro(const std::string& text);

StatusOr<Repro> LoadReproFile(const std::string& path);
Status SaveReproFile(const std::string& path, const Repro& repro);

// Sorted paths of the `*.mitos` files directly inside `dir` (the committed
// corpus layout of tests/fixtures/fuzz/). Missing directory -> empty.
std::vector<std::string> ListCorpus(const std::string& dir);

}  // namespace mitos::testing

#endif  // MITOS_TESTING_REPRO_H_
