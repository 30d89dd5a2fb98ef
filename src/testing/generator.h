// Seeded generative testing: a deterministic program generator over the
// mitos::lang AST.
//
// Samples well-typed, guaranteed-terminating imperative dataflow programs —
// random nesting of while / do-while / if over a small vocabulary of
// map/filter/flatMap/join/reduce operations on integer and (key, value)
// bags — following the formal grammar view of "An Abstract View of Big Data
// Processing Programs" (PAPERS.md). Every program:
//
//   * is closed: inputs are bagOf(...) literals, outputs are write(...)
//     statements, so no pre-seeded filesystem is needed;
//   * terminates: every loop condition carries a bounded-counter conjunct
//     (i < k with k <= max_trip and i incremented exactly once per
//     iteration), even when a data-dependent conjunct
//     (scalarOf(bag.count()) > t) is mixed in;
//   * round-trips: only builtin-table functions are used, so
//     lang::Parse(lang::ToSource(program)) reconstructs the program — the
//     basis of self-contained repro files (testing/repro.h).
//
// Determinism is the contract: the same GeneratorOptions (seed included)
// produce byte-identical source on every platform, pinned by golden hashes
// in tests/testing/generator_test.cc. CI seeds therefore reproduce locally:
//   mitos_fuzz --seed=N --count=1
#ifndef MITOS_TESTING_GENERATOR_H_
#define MITOS_TESTING_GENERATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "sim/fault.h"

namespace mitos::testing {

struct GeneratorOptions {
  uint64_t seed = 1;

  // Maximum control-flow nesting depth (loops and ifs combined). Depth 0
  // generates straight-line programs.
  int max_depth = 3;

  // Statement budget for the top-level sequence; nested blocks draw smaller
  // budgets from it, so total program size is O(budget).
  int budget = 14;

  // Largest literal input bag.
  int max_bag = 24;

  // Largest loop trip count (while loops may also be zero-trip).
  int max_trip = 3;

  // Range of key values in generated bags; small so joins and reduceByKey
  // collide often.
  int64_t key_range = 12;

  // Number of fault plans to attach (replayed by the differential harness
  // against the fault-free run). 0 disables fault generation.
  int fault_plans = 2;

  // Machine count the fault plans are valid for (crash targets are drawn
  // from [1, machines)).
  int machines = 3;
};

struct GeneratedCase {
  uint64_t seed = 0;
  lang::Program program;
  // lang::ToSource(program): parseable, human-readable, deterministic.
  std::string source;
  // Seeded fault plans plus their round-trippable specs
  // (sim::FaultPlan::ToString / Parse).
  std::vector<sim::FaultPlan> fault_plans;
  std::vector<std::string> fault_specs;
  // Operation histogram (map/filter/join/... counts) for corpus statistics.
  std::map<std::string, int> op_histogram;
};

// Generates one program (and its fault plans) from `options`. Pure function
// of the options.
GeneratedCase GenerateCase(const GeneratorOptions& options);

// The seed for the i-th case of a fuzzing run starting at `base_seed`.
// Decouples case seeds from --count so prefixes of a run are reproducible.
uint64_t CaseSeed(uint64_t base_seed, int index);

}  // namespace mitos::testing

#endif  // MITOS_TESTING_GENERATOR_H_
