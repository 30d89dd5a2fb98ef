// mitos_fuzz: generative differential testing of every engine.
//
// Generates seeded random control-flow programs (testing/generator.h), runs
// each on the full engine matrix (testing/differential.h) — Mitos on the
// DES and threads backends, the ablation engines, and the Flink-/Spark-style
// baselines — and cross-checks all outputs against
// the sequential reference interpreter, plus run-twice determinism and
// byte-identical fault-plan recovery. On divergence the failing program is
// greedily minimized (testing/shrink.h) and written as a self-contained
// repro file (testing/repro.h) that both mitos_fuzz --replay and mitos_run
// accept.
//
//   mitos_fuzz --seed=42 --count=150            # fuzz 150 programs
//   mitos_fuzz --replay=fuzz_repro.mitos        # re-run one finding
//   mitos_fuzz --corpus=tests/fixtures/fuzz     # replay the pinned corpus
//
// Flags:
//   --seed=N            base seed (default 1); case i uses CaseSeed(N, i)
//   --count=N           programs to generate (default 50)
//   --max-depth=N       control-flow nesting depth (default 3)
//   --budget=N          statement budget per program (default 14)
//   --engines=a,b       label-substring filter over the matrix (labels:
//                       mitos-des@3 mitos-des@1 mitos-des-boxed@3
//                       mitos-threads@3 mitos-nopipe@3 flink@3 spark@3);
//                       a piece that matches no label is an infra error
//   --faults-per-program=N  fault plans replayed per program (default 2)
//   --shrink / --no-shrink  minimize findings (default on)
//   --max-evals=N       shrink evaluation budget (default 300)
//   --repro-out=FILE    where to write the minimized repro
//                       (default fuzz_repro.mitos)
//   --replay=FILE       replay one repro file instead of generating
//   --corpus=DIR        replay every *.mitos in DIR instead of generating
//   --emit-corpus=DIR   also write every generated case to DIR in repro
//                       format (corpus curation: cases must still pass)
//   --time-budget=SECS  stop starting new cases after SECS wall seconds
//   --stats-out=FILE    write run statistics as JSON
//
// Exit codes (CI contract, also documented in README.md):
//   0  every case agreed on every engine
//   1  a divergence was found (the repro file holds the minimized case)
//   2  infrastructure error — the generator, reference interpreter, or the
//      harness itself broke; not an engine bug
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/repro.h"
#include "testing/shrink.h"

namespace {

using namespace mitos;

constexpr int kExitOk = 0;
constexpr int kExitMismatch = 1;
constexpr int kExitInfra = 2;

int Infra(const std::string& message) {
  std::fprintf(stderr, "mitos_fuzz: infra error: %s\n", message.c_str());
  return kExitInfra;
}

struct Stats {
  int cases = 0;
  int engine_runs = 0;
  int shrink_evals = 0;
  std::map<std::string, int> op_histogram;

  std::string ToJson(double elapsed_seconds) const {
    std::string out = "{\n";
    out += "  \"cases\": " + std::to_string(cases) + ",\n";
    out += "  \"engine_runs\": " + std::to_string(engine_runs) + ",\n";
    out += "  \"shrink_evals\": " + std::to_string(shrink_evals) + ",\n";
    out += "  \"elapsed_seconds\": " +
           std::to_string(elapsed_seconds) + ",\n";
    out += "  \"op_histogram\": {";
    bool first = true;
    for (const auto& [op, n] : op_histogram) {
      out += first ? "\n" : ",\n";
      out += "    \"" + op + "\": " + std::to_string(n);
      first = false;
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
  }
};

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool closed = std::fclose(f) == 0;
  return n == contents.size() && closed;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t base_seed = 1;
  int count = 50;
  int max_depth = 3;
  int budget = 14;
  int faults_per_program = 2;
  int max_evals = 300;
  bool shrink = true;
  double time_budget = 0;
  std::string engines_filter, repro_out = "fuzz_repro.mitos";
  std::string replay_path, corpus_dir, emit_corpus_dir, stats_out;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--seed=", 0) == 0) {
      base_seed = std::strtoull(value_of("--seed=").c_str(), nullptr, 0);
    } else if (arg.rfind("--count=", 0) == 0) {
      count = std::atoi(value_of("--count=").c_str());
    } else if (arg.rfind("--max-depth=", 0) == 0) {
      max_depth = std::atoi(value_of("--max-depth=").c_str());
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = std::atoi(value_of("--budget=").c_str());
    } else if (arg.rfind("--engines=", 0) == 0) {
      engines_filter = value_of("--engines=");
    } else if (arg.rfind("--faults-per-program=", 0) == 0) {
      faults_per_program =
          std::atoi(value_of("--faults-per-program=").c_str());
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg.rfind("--max-evals=", 0) == 0) {
      max_evals = std::atoi(value_of("--max-evals=").c_str());
    } else if (arg.rfind("--repro-out=", 0) == 0) {
      repro_out = value_of("--repro-out=");
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_path = value_of("--replay=");
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = value_of("--corpus=");
    } else if (arg.rfind("--emit-corpus=", 0) == 0) {
      emit_corpus_dir = value_of("--emit-corpus=");
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      time_budget = std::atof(value_of("--time-budget=").c_str());
    } else if (arg.rfind("--stats-out=", 0) == 0) {
      stats_out = value_of("--stats-out=");
    } else {
      return Infra("unknown flag: " + arg + " (see tools/mitos_fuzz.cc)");
    }
  }

  // Every piece must match: a stale label would otherwise silently shrink
  // the matrix to the pieces that still do.
  std::stringstream pieces(engines_filter);
  for (std::string piece; std::getline(pieces, piece, ',');) {
    if (!piece.empty() &&
        testing::FilterMatrix(testing::DefaultMatrix(), piece).empty()) {
      return Infra("--engines piece '" + piece +
                   "' matches no engine variant");
    }
  }
  testing::DiffOptions diff_options;
  diff_options.variants =
      testing::FilterMatrix(testing::DefaultMatrix(), engines_filter);
  if (diff_options.variants.empty()) {
    return Infra("--engines=" + engines_filter +
                 " matched no engine variant");
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  Stats stats;

  // ----- Replay modes -----
  if (!replay_path.empty() || !corpus_dir.empty()) {
    std::vector<std::string> paths;
    if (!replay_path.empty()) paths.push_back(replay_path);
    if (!corpus_dir.empty()) {
      std::vector<std::string> corpus = testing::ListCorpus(corpus_dir);
      if (corpus.empty()) {
        return Infra("--corpus=" + corpus_dir +
                     " holds no .mitos repro files");
      }
      paths.insert(paths.end(), corpus.begin(), corpus.end());
    }
    int exit_code = kExitOk;
    for (const std::string& path : paths) {
      auto repro = testing::LoadReproFile(path);
      if (!repro.ok()) return Infra(repro.status().ToString());
      testing::DiffOptions replay_options = diff_options;
      replay_options.fault_plans = repro->fault_plans;
      auto report = testing::RunDifferential(repro->program, replay_options);
      ++stats.cases;
      stats.engine_runs += report.runs;
      std::printf("%-52s %s\n", path.c_str(), report.ToString().c_str());
      if (report.verdict == testing::Verdict::kInfraError) {
        return Infra(path + ": " + report.ToString());
      }
      if (report.verdict == testing::Verdict::kMismatch) {
        exit_code = kExitMismatch;
      }
    }
    if (!stats_out.empty() &&
        !WriteTextFile(stats_out, stats.ToJson(elapsed()))) {
      return Infra("cannot write " + stats_out);
    }
    std::printf("replayed %d repro(s), %d engine runs: %s\n", stats.cases,
                stats.engine_runs,
                exit_code == kExitOk ? "all agree" : "DIVERGENCE");
    return exit_code;
  }

  // ----- Generative mode -----
  testing::GeneratorOptions gen_options;
  gen_options.max_depth = max_depth;
  gen_options.budget = budget;
  gen_options.fault_plans = faults_per_program;

  for (int i = 0; i < count; ++i) {
    if (time_budget > 0 && elapsed() >= time_budget) {
      std::printf("time budget (%.0fs) reached after %d cases\n",
                  time_budget, stats.cases);
      break;
    }
    gen_options.seed = testing::CaseSeed(base_seed, i);
    testing::GeneratedCase generated = testing::GenerateCase(gen_options);
    testing::DiffOptions case_options = diff_options;
    case_options.fault_plans = generated.fault_plans;

    auto report = testing::RunDifferential(generated.program, case_options);
    ++stats.cases;
    stats.engine_runs += report.runs;
    for (const auto& [op, n] : generated.op_histogram) {
      stats.op_histogram[op] += n;
    }
    if (!emit_corpus_dir.empty()) {
      testing::Repro entry;
      entry.seed = gen_options.seed;
      entry.fault_specs = generated.fault_specs;
      entry.source = generated.source;
      auto saved = testing::SaveReproFile(
          emit_corpus_dir + "/seed_" + std::to_string(gen_options.seed) +
              ".mitos",
          entry);
      if (!saved.ok()) return Infra(saved.ToString());
    }
    if (report.verdict == testing::Verdict::kInfraError) {
      std::fprintf(stderr, "case %d (seed %llu):\n%s\n", i,
                   static_cast<unsigned long long>(gen_options.seed),
                   generated.source.c_str());
      return Infra("case " + std::to_string(i) + ": " + report.ToString());
    }
    if (report.verdict == testing::Verdict::kOk) {
      if ((i + 1) % 25 == 0) {
        std::fprintf(stderr, "mitos_fuzz: %d/%d cases ok (%.1fs)\n", i + 1,
                     count, elapsed());
      }
      continue;
    }

    // ----- A finding: minimize and write the repro -----
    std::printf("case %d (seed %llu) DIVERGED:\n%s\n", i,
                static_cast<unsigned long long>(gen_options.seed),
                report.ToString().c_str());
    lang::Program minimized = generated.program;
    if (shrink) {
      auto still_fails = [&](const lang::Program& candidate) {
        auto r = testing::RunDifferential(candidate, case_options);
        stats.engine_runs += r.runs;
        return r.verdict == testing::Verdict::kMismatch;
      };
      testing::ShrinkOptions shrink_options;
      shrink_options.max_evals = max_evals;
      auto shrunk = testing::Shrink(minimized, still_fails, shrink_options);
      stats.shrink_evals += shrunk.evals;
      std::printf("shrink: %d -> %d statements in %d evals\n",
                  testing::CountStmts(generated.program),
                  testing::CountStmts(shrunk.program), shrunk.evals);
      minimized = shrunk.program;
    }
    // Re-run the minimized program for the repro's header diagnosis.
    auto final_report = testing::RunDifferential(minimized, case_options);
    stats.engine_runs += final_report.runs;
    testing::Repro repro;
    repro.seed = gen_options.seed;
    if (!final_report.mismatches.empty()) {
      repro.mismatch_label = final_report.mismatches[0].label;
      repro.detail = final_report.mismatches[0].detail;
      if (!final_report.mismatches[0].file.empty()) {
        repro.detail =
            final_report.mismatches[0].file + ": " + repro.detail;
      }
    } else if (!report.mismatches.empty()) {
      repro.mismatch_label = report.mismatches[0].label;
      repro.detail = report.mismatches[0].detail;
    }
    repro.fault_specs = generated.fault_specs;
    repro.source = lang::ToSource(minimized);
    auto saved = testing::SaveReproFile(repro_out, repro);
    if (!saved.ok()) return Infra(saved.ToString());
    std::printf("repro written to %s — replay with:\n"
                "  mitos_fuzz --replay=%s\n",
                repro_out.c_str(), repro_out.c_str());
    if (!stats_out.empty() &&
        !WriteTextFile(stats_out, stats.ToJson(elapsed()))) {
      return Infra("cannot write " + stats_out);
    }
    return kExitMismatch;
  }

  if (!stats_out.empty() &&
      !WriteTextFile(stats_out, stats.ToJson(elapsed()))) {
    return Infra("cannot write " + stats_out);
  }
  std::printf(
      "mitos_fuzz: %d cases, %d engine runs, %.1fs — all engines agree\n",
      stats.cases, stats.engine_runs, elapsed());
  return kExitOk;
}
