// mitos_bench: the ledger's end-to-end metrics, tracing off.
//
//   mitos_bench --workload=<step_loop|visit_hoist|pagerank|fuzz> --seed=N
//               [--seconds=S] [--out=FILE.json]
//   mitos_bench --smoke        all four workloads at ~1/20 size, 5 pairs
//
// Closed loop, one client: jobs run back to back in this process. Set-up
// (inputs, programs, one compile each) is sampled five times and setup_s
// is the median. Three warm-up jobs per backend are discarded; then threads
// and DES jobs alternate strictly, so drift hits both backends and every job
// follows one of the other backend, for at least 100 pairs and until S
// seconds have passed. Single-threaded work (set-up, DES jobs) is pinned to
// one CPU at a time, rotating over all of them (CpuRotation in
// workloads.h). Every job's outputs are checked outside the timed region:
// DES against the reference interpreter, threads against the DES. A fuzz
// job is one testing::RunDifferential case (full matrix for job_ms, the
// DES-only matrix for des_job_ms) and must return kOk.
//
// Host normalisation. On a shared host the speed of every core drifts by
// 20-100% over minutes as neighbours come and go, which no number of jobs
// averages away. So each pair also times a calibration kernel, a fixed piece
// of this file's own work, on the DES job's CPU just before that job. A
// job's normalised time is its wall time times kReferenceCalibrationSeconds
// / (the calibration's wall time): what the job would take on a host that
// runs the kernel in the reference time. job_ms, des_job_ms and setup_s are
// normalised; the wall_* metrics are the same quantiles of raw wall time.
//
// Threads times are reported as p50 and p90, DES times also as p25: a DES
// job's time is bimodal on a shared host (a busy neighbour on the same
// physical core slows it by half), and the lower quartile stays in the
// fast mode. Prints one "name value unit" line per metric and writes the
// same as JSON to --out. Exit codes: 0 ok, 1 wrong output, 2
// infrastructure error.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "workloads.h"

namespace mitos::ledger {
namespace {

constexpr int kSetupSamples = 5;
// A set-up sample visits every CPU in turn and repeats the set-up there for
// at least this long; the sample is the mean over CPUs of the normalised
// per-set-up time. Microsecond set-ups (step_loop) are then not clock noise.
constexpr double kMinSetupSecondsPerCpu = 0.005;
constexpr int kWarmupPairs = 3;
constexpr int kMinPairs = 100;
constexpr int kSmokePairs = 5;
// Safety valve: stop adding pairs past this, whatever the minimum says.
constexpr double kMaxLoopSeconds = 120;
// About CalibrationSeconds() on an unloaded 4-vCPU Xeon (Sapphire Rapids)
// KVM guest, the host of the numbers in README.md.
constexpr double kReferenceCalibrationSeconds = 2.5e-3;

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"job_ms.p50", "ms"},          {"job_ms.p90", "ms"},
      {"des_job_ms.p25", "ms"},      {"des_job_ms.p50", "ms"},
      {"des_job_ms.p90", "ms"},      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},              {"error_rate", "ratio"},
      {"job_ms.samples", "count"},   {"des_job_ms.samples", "count"},
      {"wall_job_ms.p50", "ms"},     {"wall_job_ms.p90", "ms"},
      {"wall_des_job_ms.p25", "ms"}, {"wall_des_job_ms.p50", "ms"},
      {"wall_des_job_ms.p90", "ms"}, {"wall_setup_s", "s"},
      {"calibration_ms.p50", "ms"},
  };
  return metrics;
}

// ---- Calibration kernel -------------------------------------------------
// Four kinds of work the runtime also does, each 0.5-1 ms on the reference
// host: hashing, an ordered map keyed by strings, an event loop of
// std::function callbacks that schedule more callbacks, and formatting and
// parsing numbers as text. A kernel of one kind tracks some neighbours'
// interference and misses others; the sum tracks the DES jobs of all four
// workloads about three times more closely than wall time alone. It shares
// no code with the program under test, only the C++ standard library.

volatile uint64_t g_calibration_sink = 0;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashWork() {
  constexpr size_t kKeys = 1 << 12;
  uint64_t rng = 1;
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t& k : keys) k = SplitMix64(&rng);
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < kKeys; ++i) table[keys[i] % (kKeys / 2)] += i;
  uint64_t sum = 0;
  for (uint64_t k : keys) {
    auto it = table.find(k % kKeys);
    if (it != table.end()) sum += it->second;
  }
  std::sort(keys.begin(), keys.end());
  return sum + keys[kKeys / 2];
}

uint64_t OrderedMapWork() {
  uint64_t rng = 2;
  std::map<std::string, uint64_t> map;
  for (uint64_t i = 0; i < 1500; ++i) {
    map[std::to_string(SplitMix64(&rng) % 1000)] += i;
  }
  uint64_t sum = 0;
  for (int i = 0; i < 1500; ++i) {
    auto it = map.find(std::to_string(SplitMix64(&rng) % 2000));
    if (it != map.end()) sum += it->second;
  }
  return sum;
}

uint64_t EventLoopWork() {
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::map<uint64_t, std::vector<int>> state;
  uint64_t rng = 3;
  uint64_t seq = 0;
  uint64_t sum = 0;
  int budget = 6000;
  std::function<void(int, std::shared_ptr<const std::string>)> schedule =
      [&](int depth, std::shared_ptr<const std::string> tag) {
        if (--budget <= 0) return;
        const uint64_t r = SplitMix64(&rng);
        queue.push({seq + r % 1000, seq, [&, depth, tag, r] {
                      state[r % 97].push_back(depth);
                      sum += tag->size() + r % 13;
                      std::string child = *tag;
                      child.push_back('x');
                      for (uint64_t k = 0; k < r % 3; ++k) {
                        schedule(depth + 1,
                                 std::make_shared<const std::string>(child));
                      }
                    }});
        ++seq;
      };
  for (int i = 0; i < 64; ++i) {
    schedule(0, std::make_shared<const std::string>(std::to_string(i)));
  }
  while (!queue.empty()) {
    Event event = queue.top();
    queue.pop();
    event.fn();
  }
  return sum + state.size();
}

uint64_t TextWork() {
  uint64_t rng = 4;
  double sum = 0;
  for (int i = 0; i < 500; ++i) {
    std::ostringstream out;
    out << static_cast<double>(SplitMix64(&rng) % 100000) / 7.0 << ' ' << i;
    std::istringstream in(out.str());
    double a = 0;
    int b = 0;
    in >> a >> b;
    sum += a + b;
  }
  return static_cast<uint64_t>(sum);
}

// Wall seconds of one calibration kernel on the calling thread's CPU.
double CalibrationSeconds() {
  const double t0 = NowSeconds();
  g_calibration_sink =
      HashWork() + OrderedMapWork() + EventLoopWork() + TextWork();
  return NowSeconds() - t0;
}

double Normalised(double seconds, double calibration_seconds) {
  return seconds * kReferenceCalibrationSeconds / calibration_seconds;
}

struct Outcome {
  Report report;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Runs jobs of one workload and tallies failures. A data-workload job is
// one api::Run over a private copy of the inputs; a fuzz job is one
// differential case.
class Runner {
 public:
  Runner(const Workload& w, Outcome* outcome)
      : w_(w), outcome_(outcome), des_fs_(w.inputs), thr_fs_(w.inputs) {}

  Status Init() {
    if (w_.differential) return Status::Ok();
    StatusOr<Files> reference = ReferenceOutputs(w_, w_.cases[0]);
    if (!reference.ok()) return reference.status();
    reference_ = std::move(*reference);
    return Status::Ok();
  }

  // Wall seconds of the job's timed region.
  double RunJob(api::BackendKind backend, size_t index) {
    ++outcome_->attempted;
    const bool threads = backend == api::BackendKind::kThreads;
    if (w_.differential) {
      const Case& c = w_.cases[index % w_.cases.size()];
      const testing::DiffOptions options = FuzzOptions(c, !threads);
      const double t0 = NowSeconds();
      testing::DiffReport report = testing::RunDifferential(c.program, options);
      const double t1 = NowSeconds();
      if (report.verdict != testing::Verdict::kOk) {
        Fail("fuzz case " + std::to_string(index % w_.cases.size()) + ": " +
             report.ToString());
      }
      return t1 - t0;
    }
    sim::SimFileSystem* fs = threads ? &thr_fs_ : &des_fs_;
    ClearOutputs(fs, w_.inputs);
    const double t0 = NowSeconds();
    StatusOr<api::RunResult> run = api::Run(
        api::EngineKind::kMitos, w_.cases[0].program, fs, JobConfig(backend));
    const double t1 = NowSeconds();
    if (!run.ok()) {
      Fail(std::string(threads ? "threads" : "des") +
           " run failed: " + run.status().ToString());
      return t1 - t0;
    }
    Files got = OutputFiles(*fs, w_.inputs);
    std::string diff;
    if (threads) {
      // Threads must match the DES exactly; DES runs are deterministic, so
      // any verified DES output is the expectation.
      diff = des_outputs_.empty() ? "no verified DES output to compare"
                                  : CompareFiles(des_outputs_, got, false);
    } else {
      diff = CompareFiles(reference_, got, w_.keyed_tolerance);
      if (diff.empty() && des_outputs_.empty()) des_outputs_ = std::move(got);
    }
    if (!diff.empty()) {
      Fail(std::string(threads ? "threads vs des: " : "des vs reference: ") +
           diff);
    }
    return t1 - t0;
  }

 private:
  void Fail(const std::string& why) {
    ++outcome_->failed;
    std::fprintf(stderr, "%s: wrong output: %s\n", w_.name.c_str(),
                 why.c_str());
  }

  const Workload& w_;
  Outcome* outcome_;
  sim::SimFileSystem des_fs_;
  sim::SimFileSystem thr_fs_;
  Files reference_;
  Files des_outputs_;
};

// Job times of one backend, in milliseconds.
struct Samples {
  std::vector<double> wall;
  std::vector<double> normalised;

  void Add(double seconds, double calibration_seconds) {
    wall.push_back(seconds * 1e3);
    normalised.push_back(Normalised(seconds, calibration_seconds) * 1e3);
  }
};

StatusOr<Outcome> RunWorkload(const std::string& name, const Args& args) {
  Outcome outcome;
  CpuRotation cpus;
  std::vector<double> setup_wall;
  std::vector<double> setup_normalised;
  StatusOr<Workload> w = Status::Internal("no set-up ran");
  for (int i = 0; i < kSetupSamples; ++i) {
    double wall = 0;
    double normalised = 0;
    for (int cpu = 0; cpu < cpus.count(); ++cpu) {
      cpus.PinNext();
      const double calibration = CalibrationSeconds();
      const double t0 = NowSeconds();
      int reps = 0;
      double elapsed = 0;
      do {
        w = SetUp(name, args.seed, args.smoke);
        if (!w.ok()) return w.status();
        ++reps;
        elapsed = NowSeconds() - t0;
      } while (elapsed < kMinSetupSecondsPerCpu);
      wall += elapsed / reps;
      normalised += Normalised(elapsed / reps, calibration);
    }
    setup_wall.push_back(wall / cpus.count());
    setup_normalised.push_back(normalised / cpus.count());
  }

  Runner runner(*w, &outcome);
  MITOS_RETURN_IF_ERROR(runner.Init());
  // DES jobs (and the DES-only fuzz matrix) are single-threaded; threads
  // jobs get every CPU, and their workers inherit the calling thread's
  // affinity.
  auto des_job = [&](size_t index, double* calibration) {
    cpus.PinNext();
    *calibration = CalibrationSeconds();
    return runner.RunJob(api::BackendKind::kDes, index);
  };
  auto threads_job = [&](size_t index) {
    cpus.Unpin();
    return runner.RunJob(api::BackendKind::kThreads, index);
  };
  double calibration = 0;
  // The first DES job verifies the output every threads job must match.
  des_job(0, &calibration);
  for (int i = 0; i < kWarmupPairs; ++i) {
    threads_job(static_cast<size_t>(i));
    des_job(static_cast<size_t>(i), &calibration);
  }

  // A threads job is normalised by the calibration that directly follows
  // it, the DES job by the one that directly precedes it.
  Samples thr;
  Samples des;
  std::vector<double> calibration_ms;
  const int min_pairs = args.smoke ? kSmokePairs : kMinPairs;
  const double budget = args.smoke ? 0 : args.seconds;
  const double t_loop = NowSeconds();
  for (int pair = 0;; ++pair) {
    const double elapsed = NowSeconds() - t_loop;
    if (elapsed >= kMaxLoopSeconds) break;
    if (pair >= min_pairs && elapsed >= budget) break;
    const size_t index = static_cast<size_t>(kWarmupPairs + pair);
    const double thr_s = threads_job(index);
    const double des_s = des_job(index, &calibration);
    thr.Add(thr_s, calibration);
    des.Add(des_s, calibration);
    calibration_ms.push_back(calibration * 1e3);
  }

  Report& r = outcome.report;
  r.Add("job_ms.p50", Median(thr.normalised), "ms");
  r.Add("job_ms.p90", Quantile(thr.normalised, 0.9), "ms");
  r.Add("des_job_ms.p25", Quantile(des.normalised, 0.25), "ms");
  r.Add("des_job_ms.p50", Median(des.normalised), "ms");
  r.Add("des_job_ms.p90", Quantile(des.normalised, 0.9), "ms");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.Add("setup_s", Median(setup_normalised), "s");
  r.Add("error_rate",
        static_cast<double>(outcome.failed) /
            static_cast<double>(outcome.attempted),
        "ratio");
  r.Add("job_ms.samples", static_cast<double>(thr.wall.size()), "count");
  r.Add("des_job_ms.samples", static_cast<double>(des.wall.size()), "count");
  r.Add("wall_job_ms.p50", Median(thr.wall), "ms");
  r.Add("wall_job_ms.p90", Quantile(thr.wall, 0.9), "ms");
  r.Add("wall_des_job_ms.p25", Quantile(des.wall, 0.25), "ms");
  r.Add("wall_des_job_ms.p50", Median(des.wall), "ms");
  r.Add("wall_des_job_ms.p90", Quantile(des.wall, 0.9), "ms");
  r.Add("wall_setup_s", Median(setup_wall), "s");
  r.Add("calibration_ms.p50", Median(calibration_ms), "ms");
  return outcome;
}

}  // namespace
}  // namespace mitos::ledger

int main(int argc, char** argv) {
  using namespace mitos::ledger;
  mitos::StatusOr<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "mitos_bench: %s\n",
                 args.status().ToString().c_str());
    return kExitInfra;
  }
  std::vector<std::string> names = {args->workload};
  if (args->workload.empty()) names = WorkloadNames();

  const double t_start = NowSeconds();
  int exit_code = kExitOk;
  for (const std::string& name : names) {
    mitos::StatusOr<Outcome> outcome = RunWorkload(name, *args);
    if (!outcome.ok()) {
      std::fprintf(stderr, "mitos_bench: %s: %s\n", name.c_str(),
                   outcome.status().ToString().c_str());
      return kExitInfra;
    }
    std::printf("# workload %s seed %llu\n", name.c_str(),
                static_cast<unsigned long long>(args->seed));
    outcome->report.Print();
    const std::string json =
        outcome->report.ToJson(name, args->seed, outcome->failed == 0,
                               outcome->attempted, outcome->failed);
    if (args->smoke) {
      mitos::Status check = CheckReportJson(json, EndToEndMetrics());
      if (!check.ok()) {
        std::fprintf(stderr, "mitos_bench: smoke: %s: %s\n", name.c_str(),
                     check.ToString().c_str());
        return kExitInfra;
      }
    }
    if (!args->out.empty()) {
      mitos::Status written = WriteFile(args->out, json);
      if (!written.ok()) {
        std::fprintf(stderr, "mitos_bench: %s\n", written.ToString().c_str());
        return kExitInfra;
      }
    }
    if (outcome->failed > 0) exit_code = kExitWrongOutput;
  }
  if (args->smoke) {
    std::printf("# smoke: %zu workloads in %.1f s\n", names.size(),
                NowSeconds() - t_start);
  }
  return exit_code;
}
