#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "ir/ssa.h"
#include "lang/interpreter.h"
#include "runtime/translator.h"
#include "testing/generator.h"
#include "workloads/generators.h"
#include "workloads/programs.h"

namespace mitos::ledger {
namespace {

// Input sizes. The full sizes fit at least 100 alternated job pairs into the
// 20 s timed loop on a 4-core host; smoke sizes are about 1/20 of them.
struct Sizes {
  int steps;                   // step_loop: loop iterations
  int visit_days;              // visit_hoist
  int64_t visits_per_day;
  int64_t visit_pages;
  int64_t page_types;
  int pagerank_iterations;     // pagerank
  int64_t pagerank_vertices;
  int64_t pagerank_edges;
  int fuzz_cases;              // fuzz
};

constexpr Sizes kFullSizes{
    .steps = 2000,
    .visit_days = 30,
    .visits_per_day = 3'000,
    .visit_pages = 20'000,
    .page_types = 4,
    .pagerank_iterations = 10,
    .pagerank_vertices = 700,
    .pagerank_edges = 7'000,
    .fuzz_cases = 300,
};

constexpr Sizes kSmokeSizes{
    .steps = 100,
    .visit_days = 30,
    .visits_per_day = 400,
    .visit_pages = 1'000,
    .page_types = 4,
    .pagerank_iterations = 10,
    .pagerank_vertices = 100,
    .pagerank_edges = 1'000,
    .fuzz_cases = 15,
};

DatumVector Sorted(DatumVector v) {
  std::sort(v.begin(), v.end());
  return v;
}

bool ApproxEqual(const Datum& a, const Datum& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_double()) {
    const double x = a.dbl();
    const double y = b.dbl();
    return std::abs(x - y) <= 1e-9 * (1.0 + std::abs(x) + std::abs(y));
  }
  if (a.is_tuple()) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!ApproxEqual(a.field(i), b.field(i))) return false;
    }
    return true;
  }
  return a == b;
}

// Keyed comparison for tuple files whose field 0 is unique (pagerank's
// (vertex, rank) output).
std::string CompareKeyed(const DatumVector& want, const DatumVector& got) {
  std::map<Datum, const Datum*> by_key;
  for (const Datum& d : want) by_key[d.field(0)] = &d;
  if (by_key.size() != want.size()) return "reference keys are not unique";
  for (const Datum& d : got) {
    if (!d.is_tuple() || d.size() == 0) return "non-tuple element";
    auto it = by_key.find(d.field(0));
    if (it == by_key.end()) {
      return "unexpected key " + d.field(0).ToString();
    }
    if (!ApproxEqual(*it->second, d)) {
      return "expected " + it->second->ToString() + " got " + d.ToString();
    }
  }
  return "";
}

Status CompileOnce(const lang::Program& program) {
  StatusOr<ir::Program> ir_program = ir::CompileToIr(program);
  if (!ir_program.ok()) return ir_program.status();
  StatusOr<runtime::TranslateResult> translated =
      runtime::Translate(*ir_program, kMachines);
  return translated.ok() ? Status::Ok() : translated.status();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"step_loop", "visit_hoist",
                                                 "pagerank", "fuzz"};
  return names;
}

StatusOr<Workload> SetUp(const std::string& name, uint64_t seed,
                         bool smoke) {
  const Sizes& sizes = smoke ? kSmokeSizes : kFullSizes;
  Workload w;
  w.name = name;
  if (name == "step_loop") {
    w.cases.push_back({workloads::StepOverheadProgram(sizes.steps)});
  } else if (name == "visit_hoist") {
    workloads::GenerateVisitLogs(&w.inputs,
                                 {.days = sizes.visit_days,
                                  .entries_per_day = sizes.visits_per_day,
                                  .num_pages = sizes.visit_pages,
                                  .seed = seed});
    workloads::GeneratePageTypes(&w.inputs,
                                 {.num_pages = sizes.visit_pages,
                                  .num_types = sizes.page_types,
                                  .seed = seed + 1});
    w.cases.push_back({workloads::VisitCountProgram(
        {.days = sizes.visit_days, .with_page_types = true})});
  } else if (name == "pagerank") {
    workloads::GenerateGraph(&w.inputs,
                             {.num_vertices = sizes.pagerank_vertices,
                              .num_edges = sizes.pagerank_edges,
                              .seed = seed});
    w.cases.push_back({workloads::PageRankProgram(
        {.iterations = sizes.pagerank_iterations,
         .num_vertices = sizes.pagerank_vertices})});
    w.keyed_tolerance = true;
  } else if (name == "fuzz") {
    w.differential = true;
    for (int i = 0; i < sizes.fuzz_cases; ++i) {
      testing::GeneratorOptions options;
      options.seed = testing::CaseSeed(seed, i);
      testing::GeneratedCase generated = testing::GenerateCase(options);
      w.cases.push_back({std::move(generated.program),
                         std::move(generated.source),
                         std::move(generated.fault_plans)});
    }
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  for (const Case& c : w.cases) MITOS_RETURN_IF_ERROR(CompileOnce(c.program));
  return w;
}

Files OutputFiles(const sim::SimFileSystem& fs,
                  const sim::SimFileSystem& inputs) {
  Files files;
  for (const std::string& name : fs.ListFiles()) {
    if (inputs.Exists(name)) continue;
    StatusOr<DatumVector> data = fs.Read(name);
    if (data.ok()) files[name] = Sorted(std::move(*data));
  }
  return files;
}

void ClearOutputs(sim::SimFileSystem* fs, const sim::SimFileSystem& inputs) {
  for (const std::string& name : fs->ListFiles()) {
    if (!inputs.Exists(name)) fs->Remove(name);
  }
}

std::string CompareFiles(const Files& want, const Files& got,
                         bool tolerant) {
  if (want.size() != got.size()) {
    return "expected " + std::to_string(want.size()) + " output files, got " +
           std::to_string(got.size());
  }
  for (const auto& [name, data] : want) {
    auto it = got.find(name);
    if (it == got.end()) return "missing output file " + name;
    if (data.size() != it->second.size()) {
      return name + ": expected " + std::to_string(data.size()) +
             " elements, got " + std::to_string(it->second.size());
    }
    if (tolerant && !data.empty() && data[0].is_tuple()) {
      std::string detail = CompareKeyed(data, it->second);
      if (!detail.empty()) return name + ": " + detail;
    } else if (data != it->second) {
      return name + ": elements differ";
    }
  }
  return "";
}

StatusOr<Files> ReferenceOutputs(const Workload& w, const Case& c) {
  sim::SimFileSystem fs = w.inputs;
  StatusOr<api::RunResult> run =
      api::Run(api::EngineKind::kReference, c.program, &fs);
  if (!run.ok()) return run.status();
  return OutputFiles(fs, w.inputs);
}

api::RunConfig JobConfig(api::BackendKind backend) {
  api::RunConfig config;
  config.machines = kMachines;
  config.backend = backend;
  return config;
}

testing::DiffOptions FuzzOptions(const Case& c, bool des_only) {
  testing::DiffOptions options;
  if (des_only) {
    options.variants =
        testing::FilterMatrix(testing::DefaultMatrix(), "mitos-des");
  }
  options.fault_plans = c.fault_plans;
  return options;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

// A failed sched_setaffinity leaves the thread where it was: placement only
// changes which core is measured, never what the job computes.
void CpuRotation::PinNext() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::Unpin() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--workload=")) {
      args.workload = v;
    } else if (const char* v = value_of("--seed=")) {
      char* end = nullptr;
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') {
        return Status::InvalidArgument("bad --seed: " + arg);
      }
    } else if (const char* v = value_of("--seconds=")) {
      char* end = nullptr;
      args.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(args.seconds >= 0) ||
          args.seconds > 600) {
        return Status::InvalidArgument("bad --seconds: " + arg);
      }
    } else if (const char* v = value_of("--out=")) {
      args.out = v;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  const auto& names = WorkloadNames();
  if (args.workload.empty() && !args.smoke) {
    return Status::InvalidArgument("--workload=<name> is required");
  }
  if (args.workload.empty() && !args.out.empty()) {
    return Status::InvalidArgument("--out needs --workload=<name>");
  }
  if (!args.workload.empty() &&
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Status::InvalidArgument("unknown workload '" + args.workload +
                                   "' (step_loop|visit_hoist|pagerank|fuzz)");
  }
  return args;
}

void Report::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Report::ToJson(const std::string& workload, uint64_t seed,
                           bool correct, int64_t attempted,
                           int64_t failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
    // JSON has no NaN or infinity; null makes a broken metric visible.
    if (std::isfinite(m.value)) {
      out << m.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}\n";
  return out.str();
}

Status CheckReportJson(
    const std::string& json,
    const std::vector<std::pair<std::string, std::string>>& expected) {
  StatusOr<json::Value> doc = json::Value::Parse(json);
  if (!doc.ok()) return doc.status();
  const json::Value* metrics = doc->Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::Internal("result JSON has no metrics object");
  }
  for (const auto& [name, unit] : expected) {
    const json::Value* m = metrics->Find(name);
    if (m == nullptr) return Status::Internal("metric missing: " + name);
    const json::Value* value = m->Find("value");
    if (value == nullptr || !value->is_number() ||
        !std::isfinite(value->number())) {
      return Status::Internal("metric without a finite value: " + name);
    }
    if (m->StringOr("unit", "") != unit) {
      return Status::Internal("metric " + name + " has unit '" +
                              m->StringOr("unit", "") + "', want '" + unit +
                              "'");
    }
  }
  return Status::Ok();
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

}  // namespace mitos::ledger
