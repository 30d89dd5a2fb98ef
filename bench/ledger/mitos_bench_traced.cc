// mitos_bench_traced: the ledger's per-layer metrics, timed from outside
// the runtime.
//
//   mitos_bench_traced --workload=<name> --seed=N [--seconds=S]
//                      [--out=FILE.json]
//   mitos_bench_traced --smoke
//
// A traced job drives the pipeline api::Run hides, one public entry point
// at a time: (fuzz only) lang::Parse of the case's source, lang::TypeCheck,
// ir::Normalize, ir::BuildSsa, ir::Verify, ir::EliminateDeadCode, ir::Verify,
// runtime::Translate, backend construction, runtime::ExecuteJob on a
// TimedBackend (timed_backend.h) around the real backend, backend
// destruction. Each stage is timed on its own, so the stage rows plus a
// residual (the glue between them) add up to the job's wall time. The
// ledger table is printed for each backend's traced job of median wall
// time, and the run fails (exit 2) when its residual exceeds 1% of it.
//
// Per unit of work (one input; fuzz: one generated case) the binary runs an
// untraced api::Run and a traced job on each backend. The untraced jobs
// give the allocation counts (a counting global operator new is linked in)
// and the base of trace.overhead_frac. DES jobs run twice per fuzz case,
// and every DES count (events, sends, operator tasks, allocations, chunks,
// control-plane counters) must repeat exactly across runs of the same input,
// or the run exits 1. Outputs are checked as in mitos_bench. At least 10
// units run, and more until S seconds have passed. Times are medians over
// all units, counts the median of per-job values over the first 10.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dataflow/graph.h"
#include "ir/dce.h"
#include "ir/normalize.h"
#include "ir/ssa.h"
#include "ir/verify.h"
#include "lang/parser.h"
#include "lang/type_check.h"
#include "runtime/executor.h"
#include "runtime/threads_backend.h"
#include "runtime/translator.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "testing/generator.h"
#include "timed_backend.h"
#include "workloads.h"

// ---- Counting allocator: every operator new of the process is tallied. --
namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocNoThrow(std::size_t n) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mitos::ledger {
namespace {

constexpr int kMinUnits = 10;
constexpr int kSmokeUnits = 5;
constexpr double kMaxLoopSeconds = 120;
constexpr double kClosureTolerance = 0.01;

struct MetricSpec {
  std::string name;
  std::string unit;
  bool fuzz_only = false;
};

const char* const kBackendPrefixes[] = {"thr", "des"};

// Every metric the traced binary reports, in print order.
const std::vector<MetricSpec>& Specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"lang.parse_us", "us", true},
        {"lang.typecheck_us", "us"},
        {"ir.normalize_us", "us"},
        {"ir.ssa_us", "us"},
        {"ir.verify_us", "us"},
        {"ir.dce_us", "us"},
        {"runtime.translate_us", "us"},
        {"dataflow.nodes", "count"},
        {"fuzz.generate_us", "us", true},
        {"fuzz.runs_per_case", "count", true},
    };
    for (const char* p : kBackendPrefixes) {
      const std::string b = p;
      for (const MetricSpec& m : std::vector<MetricSpec>{
               {".backend.construct_ms", "ms"},
               {".backend.destroy_ms", "ms"},
               {".executor.setup_ms", "ms"},
               {".executor.run_ms", "ms"},
               {".executor.teardown_ms", "ms"},
               {".op.calls", "count"},
               {".op.busy_ms", "ms"},
               {".op.queue_wait_ms", "ms"}}) {
        s.push_back({b + m.name, m.unit});
      }
      for (int k = 0; k < kNodeKinds; ++k) {
        s.push_back({b + ".op." +
                         dataflow::NodeKindName(
                             static_cast<dataflow::NodeKind>(k)) +
                         ".busy_ms",
                     "ms"});
      }
      for (const MetricSpec& m : std::vector<MetricSpec>{
               {".op.other.busy_ms", "ms"},
               {".channel.sends", "count"},
               {".channel.bytes", "bytes"},
               {".channel.deliver_busy_ms", "ms"},
               {".channel.queue_wait_ms", "ms"},
               {".host.elements", "count"},
               {".host.chunks", "count"},
               {".host.chunk_fallbacks", "count"},
               {".host.hoisted_reuses", "count"},
               {".host.peak_buffered_bytes", "bytes"},
               {".control.decisions", "count"},
               {".control.step_us", "us"},
               {".control.template_hits", "count"},
               {".control.template_misses", "count"},
               {".control.idle_callbacks", "count"},
               {".control.quiesce_wait_ms", "ms"},
               {".io.reads", "count"},
               {".io.read_busy_ms", "ms"},
               {".io.writes", "count"},
               {".io.write_busy_ms", "ms"},
               {".alloc.count", "count"},
               {".alloc.bytes", "bytes"},
               {".trace.overhead_frac", "ratio"},
               {".ledger.residual_ms", "ms"}}) {
        s.push_back({b + m.name, m.unit});
      }
    }
    for (const MetricSpec& m : std::vector<MetricSpec>{
             {"thr.busy_frac", "ratio"},
             {"thr.residual_ms", "ms"},
             {"des.sim.events", "count"},
             {"des.sim.barriers", "count"},
             {"des.residual_ms", "ms"},
             {"sim.virtual_s", "s"}}) {
      s.push_back(m);
    }
    return s;
  }();
  return specs;
}

// The DES substrate api::Run builds for one job.
struct DesSubstrate {
  explicit DesSubstrate(const sim::ClusterConfig& config)
      : cluster(&sim, config), backend(&sim, &cluster) {}
  sim::Simulator sim;
  sim::Cluster cluster;
  runtime::DesBackend backend;
};

sim::ClusterConfig LedgerCluster() {
  const api::RunConfig config = JobConfig(api::BackendKind::kDes);
  sim::ClusterConfig cluster = config.cluster;
  cluster.num_machines = config.machines;
  return cluster;
}

// The executor options api::Run uses for EngineKind::kMitos.
runtime::ExecutorOptions LedgerOptions() {
  const api::RunConfig config = JobConfig(api::BackendKind::kDes);
  runtime::ExecutorOptions options;
  options.launch_base = config.mitos_launch_base;
  options.launch_per_machine = config.mitos_launch_per_machine;
  options.max_path_len = config.max_path_len;
  options.operator_fusion = config.mitos_operator_fusion;
  options.step_templates = config.step_templates;
  options.columnar = config.columnar;
  return options;
}

// Wall seconds of one traced job, stage by stage.
struct Stages {
  double parse = 0;
  double typecheck = 0;
  double normalize = 0;
  double ssa = 0;
  double verify = 0;
  double dce = 0;
  double translate = 0;
  double construct = 0;
  double setup = 0;
  double run = 0;
  double teardown = 0;
  double destroy = 0;
  double total = 0;

  double Rows() const {
    return parse + typecheck + normalize + ssa + verify + dce + translate +
           construct + setup + run + teardown + destroy;
  }
};

struct TracedJob {
  Stages stages;
  int nodes = 0;
  std::array<int64_t, TimedBackend::kCategories> calls{};
  std::array<int64_t, TimedBackend::kCategories> busy_ns{};
  std::array<int64_t, TimedBackend::kCategories> wait_ns{};
  std::array<int64_t, kNodeKinds + 1> kind_busy_ns{};
  int64_t channel_bytes = 0;
  int64_t sim_events = 0;
  int64_t sim_barriers = 0;
  runtime::RunStats stats;

  int64_t TotalBusyNs() const {
    int64_t sum = 0;
    for (int64_t b : busy_ns) sum += b;
    return sum;
  }
};

double Since(int64_t start_ns) { return (ClockNs() - start_ns) * 1e-9; }

template <typename Fn>
void Timed(double* slot, Fn&& fn) {
  const int64_t start = ClockNs();
  fn();
  *slot += Since(start);
}

StatusOr<TracedJob> RunTraced(const Case& c, bool parse, bool threads,
                              sim::SimFileSystem* fs) {
  TracedJob job;
  Stages& s = job.stages;
  // Everything the stages produce outlives the timed job, so freeing it is
  // not part of any row.
  obs::TraceRecorder labels;
  const lang::Program* program = &c.program;
  StatusOr<lang::Program> parsed = Status::Internal("not parsed");
  StatusOr<lang::TypeCheckResult> types = Status::Internal("not checked");
  StatusOr<ir::NormalizeResult> normalized = Status::Internal("unset");
  StatusOr<ir::Program> ssa = Status::Internal("unset");
  StatusOr<ir::DceResult> dce = Status::Internal("unset");
  StatusOr<runtime::TranslateResult> translated = Status::Internal("unset");
  Status verified;
  // Declared before the backends so it outlives their worker threads.
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<runtime::ThreadsBackend> thr;
  std::unique_ptr<DesSubstrate> des;
  StatusOr<runtime::RunStats> stats = Status::Internal("not run");
  const sim::ClusterConfig cluster = LedgerCluster();
  const runtime::ExecutorOptions options = LedgerOptions();

  const int64_t t0 = ClockNs();
  if (parse) {
    Timed(&s.parse, [&] { parsed = lang::Parse(c.source); });
    if (!parsed.ok()) return parsed.status();
    program = &*parsed;
  }
  Timed(&s.typecheck, [&] { types = lang::TypeCheck(*program); });
  if (!types.ok()) return types.status();
  Timed(&s.normalize, [&] { normalized = ir::Normalize(*program); });
  if (!normalized.ok()) return normalized.status();
  Timed(&s.ssa, [&] {
    ssa = ir::BuildSsa(normalized->program, normalized->singleton_vars);
  });
  if (!ssa.ok()) return ssa.status();
  Timed(&s.verify, [&] { verified = ir::Verify(*ssa); });
  MITOS_RETURN_IF_ERROR(verified);
  Timed(&s.dce, [&] { dce = ir::EliminateDeadCode(*ssa); });
  if (!dce.ok()) return dce.status();
  Timed(&s.verify, [&] { verified = ir::Verify(dce->program); });
  MITOS_RETURN_IF_ERROR(verified);
  Timed(&s.translate,
        [&] { translated = runtime::Translate(dce->program, kMachines); });
  if (!translated.ok()) return translated.status();
  Timed(&s.construct, [&] {
    runtime::Backend* inner = nullptr;
    if (threads) {
      thr = std::make_unique<runtime::ThreadsBackend>(cluster);
      inner = thr.get();
    } else {
      des = std::make_unique<DesSubstrate>(cluster);
      inner = &des->backend;
    }
    timed = std::make_unique<TimedBackend>(inner, translated->graph, &labels);
  });
  const int64_t exec_entry = ClockNs();
  stats = runtime::ExecuteJob(timed.get(), fs, dce->program,
                              translated->graph, options);
  const int64_t exec_exit = ClockNs();
  if (!stats.ok()) return stats.status();
  s.setup = (timed->run_start_ns() - exec_entry) * 1e-9;
  s.run = (timed->run_end_ns() - timed->run_start_ns()) * 1e-9;
  s.teardown = (exec_exit - timed->run_end_ns()) * 1e-9;
  if (des != nullptr) {
    job.sim_events = des->sim.events_processed();
    job.sim_barriers = des->sim.barriers_fired();
  }
  Timed(&s.destroy, [&] {
    thr.reset();
    des.reset();
  });
  s.total = Since(t0);

  job.nodes = translated->graph.num_nodes();
  for (int k = 0; k < TimedBackend::kCategories; ++k) {
    const Tally& t = timed->tally(static_cast<TimedBackend::Category>(k));
    job.calls[static_cast<size_t>(k)] = t.calls.load();
    job.busy_ns[static_cast<size_t>(k)] = t.busy_ns.load();
    job.wait_ns[static_cast<size_t>(k)] = t.wait_ns.load();
  }
  for (int k = 0; k <= kNodeKinds; ++k) {
    job.kind_busy_ns[static_cast<size_t>(k)] = timed->kind_busy_ns(k);
  }
  job.channel_bytes = timed->channel_bytes();
  job.stats = std::move(*stats);
  return job;
}

struct UntracedJob {
  double seconds = 0;
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
};

StatusOr<UntracedJob> RunUntraced(const Case& c, bool threads,
                                  sim::SimFileSystem* fs) {
  const api::RunConfig config = JobConfig(
      threads ? api::BackendKind::kThreads : api::BackendKind::kDes);
  UntracedJob job;
  const int64_t a0 = g_allocs.load();
  const int64_t b0 = g_alloc_bytes.load();
  const int64_t t0 = ClockNs();
  StatusOr<api::RunResult> run =
      api::Run(api::EngineKind::kMitos, c.program, fs, config);
  job.seconds = Since(t0);
  job.allocs = g_allocs.load() - a0;
  job.alloc_bytes = g_alloc_bytes.load() - b0;
  if (!run.ok()) return run.status();
  return job;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

class TracedRunner {
 public:
  TracedRunner(const Workload& w, const Args& args)
      : w_(w), args_(args), fs_(w.inputs) {}

  // Exit code: kExitOk, kExitWrongOutput (outputs or counts), kExitInfra.
  int Run(Report* report, int64_t* attempted, int64_t* failed) {
    const int min_units = args_.smoke ? kSmokeUnits : kMinUnits;
    const double budget = args_.smoke ? 0 : args_.seconds;
    // Warm-up: lazy statics and allocator pools settle before counting.
    if (!RunUnit(0, /*record=*/false)) return kExitInfra;
    const double t_loop = NowSeconds();
    for (int u = 0;; ++u) {
      const double elapsed = NowSeconds() - t_loop;
      if (elapsed >= kMaxLoopSeconds) break;
      if (u >= min_units && elapsed >= budget) break;
      if (!RunUnit(static_cast<size_t>(u), /*record=*/true)) return kExitInfra;
    }
    *attempted = attempted_;
    *failed = failed_;
    if (!Emit(report)) return kExitInfra;
    PrintLedger();
    if (!closure_ok_) return kExitInfra;
    if (failed_ > 0 || !counts_exact_) return kExitWrongOutput;
    return kExitOk;
  }

 private:
  // One unit: untraced and traced jobs on both backends over case `u`.
  bool RunUnit(size_t u, bool record) {
    const size_t index = u % w_.cases.size();
    const Case& c = w_.cases[index];
    const int des_reps = w_.differential ? 2 : 1;
    if (w_.differential && record) {
      testing::GeneratorOptions gen;
      gen.seed = testing::CaseSeed(args_.seed, static_cast<int>(index));
      cpus_.PinNext();
      const int64_t t0 = ClockNs();
      testing::GeneratedCase regenerated = testing::GenerateCase(gen);
      Add("fuzz.generate_us", Since(t0) * 1e6);
      if (regenerated.source != c.source) {
        infra_ = Status::Internal("case " + std::to_string(index) +
                                  " did not regenerate identically");
        return false;
      }
      cpus_.Unpin();
      testing::DiffReport diff =
          testing::RunDifferential(c.program, FuzzOptions(c, false));
      ++attempted_;
      if (diff.verdict != testing::Verdict::kOk) {
        Fail("fuzz case " + std::to_string(index) + ": " + diff.ToString());
      }
      Counted(index, "fuzz.runs_per_case", diff.runs);
    }
    for (bool threads : {false, true}) {
      const char* p = threads ? "thr" : "des";
      for (int rep = 0; rep < (threads ? 1 : des_reps); ++rep) {
        Place(threads);
        ClearOutputs(&fs_, w_.inputs);
        StatusOr<UntracedJob> job = RunUntraced(c, threads, &fs_);
        if (!Check(job.status(), index, threads)) continue;
        if (!record) continue;
        Add(std::string(p) + ".untraced_ms", job->seconds * 1e3);
        Counted(index, std::string(p) + ".alloc.count",
                static_cast<double>(job->allocs));
        Counted(index, std::string(p) + ".alloc.bytes",
                static_cast<double>(job->alloc_bytes));
      }
    }
    for (bool threads : {false, true}) {
      for (int rep = 0; rep < (threads ? 1 : des_reps); ++rep) {
        Place(threads);
        ClearOutputs(&fs_, w_.inputs);
        StatusOr<TracedJob> job =
            RunTraced(c, w_.differential, threads, &fs_);
        if (!Check(job.status(), index, threads)) continue;
        if (!record) continue;
        Record(index, threads, *job);
      }
    }
    return infra_.ok();
  }

  // DES jobs are single-threaded and rotate over the CPUs; threads jobs
  // get all of them (CpuRotation in workloads.h).
  void Place(bool threads) {
    if (threads) {
      cpus_.Unpin();
    } else {
      cpus_.PinNext();
    }
  }

  // Checks one job's status and outputs; false when the job failed.
  bool Check(const Status& status, size_t index, bool threads) {
    ++attempted_;
    const std::string who = std::string(threads ? "threads" : "des") +
                            " job on case " + std::to_string(index);
    if (!status.ok()) {
      Fail(who + " failed: " + status.ToString());
      return false;
    }
    Files got = OutputFiles(fs_, w_.inputs);
    std::string diff;
    if (threads) {
      auto it = des_outputs_.find(index);
      diff = it == des_outputs_.end() ? "no verified DES output to compare"
                                      : CompareFiles(it->second, got, false);
    } else {
      auto ref = reference_.find(index);
      if (ref == reference_.end()) {
        StatusOr<Files> files = ReferenceOutputs(w_, w_.cases[index]);
        if (!files.ok()) {
          infra_ = files.status();
          return false;
        }
        ref = reference_.emplace(index, std::move(*files)).first;
      }
      diff = CompareFiles(ref->second, got, w_.keyed_tolerance);
      if (diff.empty()) des_outputs_.emplace(index, std::move(got));
    }
    if (!diff.empty()) {
      Fail(who + ": " + diff);
      return false;
    }
    return true;
  }

  void Fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "%s: wrong output: %s\n", w_.name.c_str(),
                 why.c_str());
  }

  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  // A count. Only the first kMinUnits cases, which every run covers, feed
  // its median, so that on fuzz it does not depend on how many cases the
  // time budget reached. A DES count is also checked against earlier runs
  // of the case.
  void Counted(size_t index, const std::string& name, double value) {
    if (index < static_cast<size_t>(kMinUnits)) Add(name, value);
    if (name.rfind("des.", 0) != 0) return;
    auto [it, inserted] = first_counts_[index].emplace(name, value);
    if (!inserted && it->second != value) {
      counts_exact_ = false;
      std::fprintf(stderr,
                   "%s: count %s not exact on case %zu: %.17g then %.17g\n",
                   w_.name.c_str(), name.c_str(), index, it->second, value);
    }
  }

  void Record(size_t index, bool threads, const TracedJob& job) {
    const Stages& s = job.stages;
    const std::string p = threads ? "thr" : "des";
    auto count = [&](const std::string& suffix, double value) {
      Counted(index, p + suffix, value);
    };
    using TB = TimedBackend;
    auto cat = [](TB::Category c) { return static_cast<size_t>(c); };

    if (w_.differential) Add("lang.parse_us", s.parse * 1e6);
    Add("lang.typecheck_us", s.typecheck * 1e6);
    Add("ir.normalize_us", s.normalize * 1e6);
    Add("ir.ssa_us", s.ssa * 1e6);
    Add("ir.verify_us", s.verify * 1e6);
    Add("ir.dce_us", s.dce * 1e6);
    Add("runtime.translate_us", s.translate * 1e6);
    Counted(index, "dataflow.nodes", job.nodes);

    Add(p + ".job_ms", s.total * 1e3);
    Add(p + ".backend.construct_ms", s.construct * 1e3);
    Add(p + ".backend.destroy_ms", s.destroy * 1e3);
    Add(p + ".executor.setup_ms", s.setup * 1e3);
    Add(p + ".executor.run_ms", s.run * 1e3);
    Add(p + ".executor.teardown_ms", s.teardown * 1e3);
    Add(p + ".ledger.residual_ms", (s.total - s.Rows()) * 1e3);

    count(".op.calls", job.calls[cat(TB::kOp)]);
    Add(p + ".op.busy_ms", Ms(job.busy_ns[cat(TB::kOp)]));
    Add(p + ".op.queue_wait_ms", Ms(job.wait_ns[cat(TB::kOp)]));
    for (int k = 0; k < kNodeKinds; ++k) {
      Add(p + ".op." +
              dataflow::NodeKindName(static_cast<dataflow::NodeKind>(k)) +
              ".busy_ms",
          Ms(job.kind_busy_ns[static_cast<size_t>(k)]));
    }
    Add(p + ".op.other.busy_ms", Ms(job.kind_busy_ns[kNodeKinds]));

    count(".channel.sends", job.calls[cat(TB::kChannel)]);
    count(".channel.bytes", job.channel_bytes);
    Add(p + ".channel.deliver_busy_ms", Ms(job.busy_ns[cat(TB::kChannel)]));
    Add(p + ".channel.queue_wait_ms", Ms(job.wait_ns[cat(TB::kChannel)]));

    const runtime::RunStats& st = job.stats;
    count(".host.elements", st.elements);
    count(".host.chunks", st.chunks);
    count(".host.chunk_fallbacks", st.chunk_fallbacks);
    count(".host.hoisted_reuses", st.hoisted_reuses);
    count(".host.peak_buffered_bytes", st.peak_buffered_bytes);

    count(".control.decisions", st.decisions);
    Add(p + ".control.step_us",
        st.decisions > 0 ? s.run * 1e6 / st.decisions : 0);
    count(".control.template_hits", st.template_hits);
    count(".control.template_misses", st.template_misses);
    count(".control.idle_callbacks", job.calls[cat(TB::kIdle)]);
    Add(p + ".control.quiesce_wait_ms", Ms(job.wait_ns[cat(TB::kIdle)]));

    count(".io.reads", job.calls[cat(TB::kRead)]);
    Add(p + ".io.read_busy_ms", Ms(job.busy_ns[cat(TB::kRead)]));
    count(".io.writes", job.calls[cat(TB::kWrite)]);
    Add(p + ".io.write_busy_ms", Ms(job.busy_ns[cat(TB::kWrite)]));

    const double busy_ms = Ms(job.TotalBusyNs());
    if (threads) {
      const double capacity_ms = kMachines * s.run * 1e3;
      Add("thr.busy_frac", capacity_ms > 0 ? busy_ms / capacity_ms : 0);
      Add("thr.residual_ms", capacity_ms - busy_ms);
    } else {
      count(".sim.events", static_cast<double>(job.sim_events));
      count(".sim.barriers", static_cast<double>(job.sim_barriers));
      Add("des.residual_ms", s.run * 1e3 - busy_ms);
      Add("sim.virtual_s", st.total_seconds);
    }
    (threads ? thr_jobs_ : des_jobs_).push_back(job);
  }

  bool Emit(Report* report) {
    for (const char* p : kBackendPrefixes) {
      const std::string b = p;
      auto traced = samples_.find(b + ".job_ms");
      auto untraced = samples_.find(b + ".untraced_ms");
      if (traced == samples_.end() || untraced == samples_.end()) {
        std::fprintf(stderr, "%s: no %s jobs recorded\n", w_.name.c_str(), p);
        return false;
      }
      Add(b + ".trace.overhead_frac",
          Median(traced->second) / Median(untraced->second) - 1.0);
    }
    for (const MetricSpec& spec : Specs()) {
      if (spec.fuzz_only && !w_.differential) continue;
      auto it = samples_.find(spec.name);
      if (it == samples_.end() || it->second.empty()) {
        std::fprintf(stderr, "%s: metric %s was not measured\n",
                     w_.name.c_str(), spec.name.c_str());
        return false;
      }
      report->Add(spec.name, Median(it->second), spec.unit);
    }
    return true;
  }

  // The job whose total is the median of its backend's traced jobs.
  static const TracedJob& MedianJob(std::vector<TracedJob>& jobs) {
    std::sort(jobs.begin(), jobs.end(),
              [](const TracedJob& a, const TracedJob& b) {
                return a.stages.total < b.stages.total;
              });
    return jobs[jobs.size() / 2];
  }

  void PrintLedger() {
    for (bool threads : {true, false}) {
      std::vector<TracedJob>& jobs = threads ? thr_jobs_ : des_jobs_;
      if (jobs.empty()) continue;
      const TracedJob& j = MedianJob(jobs);
      const Stages& s = j.stages;
      const char* p = threads ? "thr" : "des";
      std::printf("# ledger %s %s: traced job of median wall time (%zu jobs)\n",
                  w_.name.c_str(), p, jobs.size());
      std::vector<std::pair<const char*, double>> rows;
      if (w_.differential) rows.push_back({"lang.parse", s.parse});
      rows.insert(rows.end(), {
          {"lang.typecheck", s.typecheck},
          {"ir.normalize", s.normalize},
          {"ir.ssa", s.ssa},
          {"ir.verify", s.verify},
          {"ir.dce", s.dce},
          {"runtime.translate", s.translate},
          {"backend.construct", s.construct},
          {"executor.setup", s.setup},
          {"executor.run", s.run},
          {"executor.teardown", s.teardown},
          {"backend.destroy", s.destroy},
          {"residual", s.total - s.Rows()},
      });
      for (const auto& [name, sec] : rows) {
        std::printf("#   %-22s %12.4f ms %7.2f%%\n", name, sec * 1e3,
                    100.0 * sec / s.total);
      }
      std::printf("#   %-22s %12.4f ms\n", "total (measured)", s.total * 1e3);
      if (std::abs(s.total - s.Rows()) > kClosureTolerance * s.total) {
        closure_ok_ = false;
      }

      const double capacity =
          (threads ? kMachines : 1) * s.run * 1e3;  // ms
      std::printf("# capacity %s %s: %d %s x executor.run = %.4f ms\n",
                  w_.name.c_str(), p, threads ? kMachines : 1,
                  threads ? "workers" : "event loop", capacity);
      using TB = TimedBackend;
      auto busy = [&j](TB::Category c) {
        return Ms(j.busy_ns[static_cast<size_t>(c)]);
      };
      const std::pair<const char*, double> cap_rows[] = {
          {"operator tasks", busy(TB::kOp)},
          {"channel deliveries", busy(TB::kChannel)},
          {"disk reads", busy(TB::kRead)},
          {"disk writes", busy(TB::kWrite)},
          {"launch + idle callbacks", busy(TB::kLaunch) + busy(TB::kIdle)},
          {threads ? "residual (queues, wakeups, idle)"
                   : "residual (event loop, cost model)",
           capacity - Ms(j.TotalBusyNs())},
      };
      for (const auto& [name, ms] : cap_rows) {
        std::printf("#   %-34s %12.4f ms %7.2f%%\n", name, ms,
                    capacity > 0 ? 100.0 * ms / capacity : 0.0);
      }
    }
    std::printf("# exact DES counts: %s; ledger closure within %.0f%%: %s\n",
                counts_exact_ ? "ok" : "MISMATCH", kClosureTolerance * 100,
                closure_ok_ ? "ok" : "FAILED");
  }

  const Workload& w_;
  const Args& args_;
  CpuRotation cpus_;
  sim::SimFileSystem fs_;
  std::map<size_t, Files> reference_;
  std::map<size_t, Files> des_outputs_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<size_t, std::map<std::string, double>> first_counts_;
  std::vector<TracedJob> thr_jobs_;
  std::vector<TracedJob> des_jobs_;
  Status infra_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool counts_exact_ = true;
  bool closure_ok_ = true;
};

std::vector<std::pair<std::string, std::string>> ExpectedMetrics(
    bool differential) {
  std::vector<std::pair<std::string, std::string>> expected;
  for (const MetricSpec& spec : Specs()) {
    if (!spec.fuzz_only || differential) {
      expected.emplace_back(spec.name, spec.unit);
    }
  }
  return expected;
}

}  // namespace
}  // namespace mitos::ledger

int main(int argc, char** argv) {
  using namespace mitos::ledger;
  mitos::StatusOr<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "mitos_bench_traced: %s\n",
                 args.status().ToString().c_str());
    return kExitInfra;
  }
  std::vector<std::string> names = {args->workload};
  if (args->workload.empty()) names = WorkloadNames();

  const double t_start = NowSeconds();
  int exit_code = kExitOk;
  for (const std::string& name : names) {
    mitos::StatusOr<Workload> w = SetUp(name, args->seed, args->smoke);
    if (!w.ok()) {
      std::fprintf(stderr, "mitos_bench_traced: %s: %s\n", name.c_str(),
                   w.status().ToString().c_str());
      return kExitInfra;
    }
    std::printf("# workload %s seed %llu (traced)\n", name.c_str(),
                static_cast<unsigned long long>(args->seed));
    TracedRunner runner(*w, *args);
    Report report;
    int64_t attempted = 0;
    int64_t failed = 0;
    const int code = runner.Run(&report, &attempted, &failed);
    if (code == kExitInfra) return kExitInfra;
    report.Print();
    const std::string json = report.ToJson(name, args->seed,
                                           code == kExitOk, attempted, failed);
    if (args->smoke) {
      mitos::Status check =
          CheckReportJson(json, ExpectedMetrics(w->differential));
      if (!check.ok()) {
        std::fprintf(stderr, "mitos_bench_traced: smoke: %s: %s\n",
                     name.c_str(), check.ToString().c_str());
        return kExitInfra;
      }
    }
    if (!args->out.empty()) {
      mitos::Status written = WriteFile(args->out, json);
      if (!written.ok()) {
        std::fprintf(stderr, "mitos_bench_traced: %s\n",
                     written.ToString().c_str());
        return kExitInfra;
      }
    }
    if (code != kExitOk) exit_code = code;
  }
  if (args->smoke) {
    std::printf("# smoke: %zu workloads in %.1f s\n", names.size(),
                NowSeconds() - t_start);
  }
  return exit_code;
}
