// Shared by mitos_bench and mitos_bench_traced: the four ledger workloads,
// their output checks, command-line parsing, order statistics and the
// metric report both binaries print.
//
// Workloads (names are fixed; README.md says why each exists):
//   step_loop    workloads::StepOverheadProgram, no data (control plane)
//   visit_hoist  VisitCountProgram with page types (columnar data plane)
//   pagerank     PageRankProgram over GenerateGraph (boxed data plane)
//   fuzz         testing::GenerateCase programs (compile + setup costs)
#ifndef MITOS_BENCH_LEDGER_WORKLOADS_H_
#define MITOS_BENCH_LEDGER_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/datum.h"
#include "common/status.h"
#include "lang/ast.h"
#include "sim/fault.h"
#include "sim/filesystem.h"
#include "testing/differential.h"

namespace mitos::ledger {

// Machines per job: three worker threads plus the calling thread fill a
// 4-core host without oversubscribing it.
inline constexpr int kMachines = 3;

// Exit codes shared with mitos_run and mitos_fuzz.
inline constexpr int kExitOk = 0;
inline constexpr int kExitWrongOutput = 1;
inline constexpr int kExitInfra = 2;

const std::vector<std::string>& WorkloadNames();

// One program plus what the differential harness needs to replay it.
struct Case {
  lang::Program program;
  std::string source;                       // fuzz: lang::ToSource(program)
  std::vector<sim::FaultPlan> fault_plans;  // fuzz: replayed by the harness
};

struct Workload {
  std::string name;
  sim::SimFileSystem inputs;
  // One case for the data workloads, one per generated program for fuzz.
  std::vector<Case> cases;
  // pagerank sums doubles in partition order, so its output is compared
  // with a keyed relative tolerance against the sequential reference.
  bool keyed_tolerance = false;
  // fuzz: a job is one testing::RunDifferential case, not one api::Run.
  bool differential = false;
};

// Everything setup_s times: generates the inputs from `seed`, builds the
// program(s) and compiles each once (CompileToIr + Translate). `smoke`
// shrinks every input about 20x.
StatusOr<Workload> SetUp(const std::string& name, uint64_t seed, bool smoke);

// Output files of one run: every file not among the inputs, each sorted
// (bags are unordered, so a sorted multiset is the comparable form).
using Files = std::map<std::string, DatumVector>;
Files OutputFiles(const sim::SimFileSystem& fs,
                  const sim::SimFileSystem& inputs);
// Removes every non-input file so a job cannot pass on a stale output.
void ClearOutputs(sim::SimFileSystem* fs, const sim::SimFileSystem& inputs);
// Empty when `got` equals `want`; otherwise a one-line diagnosis. With
// `tolerant`, tuple files match by field-0 key and doubles within 1e-9
// relative.
std::string CompareFiles(const Files& want, const Files& got, bool tolerant);

// The sequential reference interpreter's outputs for `c` over the inputs.
StatusOr<Files> ReferenceOutputs(const Workload& w, const Case& c);

// The api::Run configuration of every ledger job.
api::RunConfig JobConfig(api::BackendKind backend);

// A fuzz job: the full default matrix, or its DES-only part.
testing::DiffOptions FuzzOptions(const Case& c, bool des_only);

double NowSeconds();
// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// getrusage max resident set size of this process, in MB.
double PeakRssMb();

// Placement of single-threaded work. On a shared host some cores run
// slower than others for seconds at a time (a busy neighbour on the same
// physical core), so a DES job measured wherever the scheduler left the
// thread reads that core's speed for a whole run. PinNext() pins the calling
// thread to the next CPU it may use, round robin, so every run samples all
// of them evenly; Unpin() restores the full set before a threads job, whose
// workers inherit the creating thread's affinity.
class CpuRotation {
 public:
  CpuRotation();
  void PinNext();
  void Unpin();
  // CPUs in the rotation (1 when the affinity mask is unknown).
  int count() const {
    return cpus_.empty() ? 1 : static_cast<int>(cpus_.size());
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Args {
  std::string workload;  // empty with --smoke: every workload
  uint64_t seed = 1;
  // Timed-loop budget; the loop also runs at least its minimum job count.
  double seconds = 20;
  std::string out;       // optional JSON result file
  bool smoke = false;
};
StatusOr<Args> ParseArgs(int argc, char** argv);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  // One "name value unit" line per metric.
  void Print() const;
  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// --smoke: parses `json` back and checks that every (name, unit) in
// `expected` is present with that unit and a finite value.
Status CheckReportJson(
    const std::string& json,
    const std::vector<std::pair<std::string, std::string>>& expected);

// Writes `text` to `path`; an error names the path.
Status WriteFile(const std::string& path, const std::string& text);

}  // namespace mitos::ledger

#endif  // MITOS_BENCH_LEDGER_WORKLOADS_H_
