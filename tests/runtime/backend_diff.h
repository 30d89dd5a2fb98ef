// DES-vs-threads comparison helpers shared by the differential suite
// (backend_diff_test.cc) and the ThreadsBackend protocol tests: run one
// program on a backend, collect everything the two backends must agree on,
// and compare.
#ifndef MITOS_TESTS_RUNTIME_BACKEND_DIFF_H_
#define MITOS_TESTS_RUNTIME_BACKEND_DIFF_H_

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "api/engine.h"
#include "common/logging.h"

namespace mitos::api {

// Everything the two backends must agree on, bit for bit.
struct Outcome {
  int decisions = 0;
  int64_t bags = 0;
  int64_t elements = 0;
  int attempts = 0;
  std::map<std::string, DatumVector> files;
};

inline Outcome RunOn(BackendKind backend, EngineKind engine,
                     const lang::Program& program,
                     const sim::SimFileSystem& inputs, int machines) {
  sim::SimFileSystem fs = inputs;  // fresh, identically seeded filesystem
  RunConfig config{.machines = machines};
  config.backend = backend;
  auto result = api::Run(engine, program, &fs, config);
  MITOS_CHECK(result.ok()) << result.status().ToString();
  Outcome outcome;
  outcome.decisions = result->stats.decisions;
  outcome.bags = result->stats.bags;
  outcome.elements = result->stats.elements;
  outcome.attempts = result->stats.attempts;
  for (const std::string& name : fs.ListFiles()) {
    outcome.files[name] = *fs.Read(name);
  }
  return outcome;
}

// Exact equality — including element ORDER inside every output file, which
// AppendOutput canonicalizes (partitions ordered by instance id) precisely
// so this comparison is meaningful under real concurrency.
inline void ExpectEquivalent(const Outcome& des, const Outcome& threads) {
  EXPECT_EQ(des.decisions, threads.decisions);
  EXPECT_EQ(des.bags, threads.bags);
  EXPECT_EQ(des.elements, threads.elements);
  EXPECT_EQ(des.attempts, threads.attempts);
  ASSERT_EQ(des.files.size(), threads.files.size());
  for (const auto& [name, data] : des.files) {
    auto it = threads.files.find(name);
    ASSERT_TRUE(it != threads.files.end()) << name;
    EXPECT_EQ(data, it->second) << name;
  }
}

inline void ExpectBackendsAgree(EngineKind engine,
                                const lang::Program& program,
                                const sim::SimFileSystem& inputs,
                                int machines) {
  ExpectEquivalent(
      RunOn(BackendKind::kDes, engine, program, inputs, machines),
      RunOn(BackendKind::kThreads, engine, program, inputs, machines));
}

}  // namespace mitos::api

#endif  // MITOS_TESTS_RUNTIME_BACKEND_DIFF_H_
