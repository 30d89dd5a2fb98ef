#include "testing/differential.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

namespace mitos::testing {
namespace {

DatumVector Sorted(DatumVector v) {
  std::sort(v.begin(), v.end(),
            [](const Datum& a, const Datum& b) { return a < b; });
  return v;
}

std::string Preview(const DatumVector& v, size_t limit = 4) {
  return mitos::ToString(v, limit);
}

// Elements of `a` not in `b`, as multisets.
DatumVector MultisetMinus(const DatumVector& a, const DatumVector& b) {
  DatumVector sorted_b = Sorted(b);
  DatumVector out;
  for (const Datum& d : a) {
    auto it = std::lower_bound(
        sorted_b.begin(), sorted_b.end(), d,
        [](const Datum& x, const Datum& y) { return x < y; });
    if (it != sorted_b.end() && *it == d) {
      sorted_b.erase(it);
    } else {
      out.push_back(d);
    }
  }
  return out;
}

std::string FileSetDetail(const std::vector<std::string>& want,
                          const std::vector<std::string>& got) {
  std::ostringstream out;
  out << "output file sets differ: expected {";
  for (size_t i = 0; i < want.size(); ++i) {
    out << (i ? ", " : "") << want[i];
  }
  out << "} got {";
  for (size_t i = 0; i < got.size(); ++i) {
    out << (i ? ", " : "") << got[i];
  }
  out << "}";
  return out.str();
}

// Compares `got` against `want`; appends a Mismatch per divergence.
// `exact` demands identical element order (determinism / fault replay);
// otherwise multiset equality per file.
void Compare(const std::string& label, const sim::SimFileSystem& want_fs,
             const sim::SimFileSystem& got_fs, bool exact,
             std::vector<Mismatch>* out) {
  const std::vector<std::string> want_files = want_fs.ListFiles();
  const std::vector<std::string> got_files = got_fs.ListFiles();
  if (want_files != got_files) {
    out->push_back({label, "", FileSetDetail(want_files, got_files)});
    return;
  }
  for (const std::string& name : want_files) {
    DatumVector want = *want_fs.Read(name);
    DatumVector got = *got_fs.Read(name);
    if (exact) {
      if (want == got) continue;
      std::ostringstream detail;
      if (Sorted(want) == Sorted(got)) {
        detail << "same elements, different order (" << want.size()
               << " elements): expected " << Preview(want) << " got "
               << Preview(got);
      } else {
        detail << "element mismatch: expected " << want.size()
               << " elements " << Preview(want) << ", got " << got.size()
               << " " << Preview(got);
      }
      out->push_back({label, name, detail.str()});
      continue;
    }
    DatumVector missing = MultisetMinus(want, got);
    DatumVector extra = MultisetMinus(got, want);
    if (missing.empty() && extra.empty()) continue;
    std::ostringstream detail;
    detail << "expected " << want.size() << " elements, got " << got.size();
    if (!missing.empty()) {
      detail << "; missing " << missing.size() << " e.g. "
             << Preview(missing);
    }
    if (!extra.empty()) {
      detail << "; extra " << extra.size() << " e.g. " << Preview(extra);
    }
    out->push_back({label, name, detail.str()});
  }
}

bool IsMitosEngine(api::EngineKind kind) {
  return kind == api::EngineKind::kMitos ||
         kind == api::EngineKind::kMitosNoPipelining ||
         kind == api::EngineKind::kMitosNoHoisting;
}

}  // namespace

std::vector<EngineVariant> DefaultMatrix() {
  using api::BackendKind;
  using api::EngineKind;
  return {
      // label, engine, backend, machines, columnar, twice, faults
      {"mitos-des@3", EngineKind::kMitos, BackendKind::kDes, 3,
       /*columnar=*/true, /*run_twice=*/true, /*fault_replay=*/true},
      {"mitos-des@1", EngineKind::kMitos, BackendKind::kDes, 1},
      // Boxed data plane: same engine, columnar ablation off. Catches any
      // divergence between the typed column kernels and the generic path.
      {"mitos-des-boxed@3", EngineKind::kMitos, BackendKind::kDes, 3,
       /*columnar=*/false},
      {"mitos-threads@3", EngineKind::kMitos, BackendKind::kThreads, 3,
       /*columnar=*/true, /*run_twice=*/true},
      {"mitos-nopipe@3", EngineKind::kMitosNoPipelining, BackendKind::kDes,
       3},
      {"flink@3", EngineKind::kFlink, BackendKind::kDes, 3},
      {"spark@3", EngineKind::kSpark, BackendKind::kDes, 3},
  };
}

std::vector<EngineVariant> FilterMatrix(std::vector<EngineVariant> matrix,
                                        const std::string& filter) {
  if (filter.empty()) return matrix;
  std::vector<std::string> wanted;
  std::stringstream stream(filter);
  std::string piece;
  while (std::getline(stream, piece, ',')) {
    if (!piece.empty()) wanted.push_back(piece);
  }
  std::vector<EngineVariant> kept;
  for (EngineVariant& v : matrix) {
    for (const std::string& w : wanted) {
      if (v.label.find(w) != std::string::npos) {
        kept.push_back(std::move(v));
        break;
      }
    }
  }
  return kept;
}

std::string DiffReport::ToString() const {
  std::ostringstream out;
  switch (verdict) {
    case Verdict::kOk:
      out << "ok (" << runs << " runs)";
      break;
    case Verdict::kInfraError:
      out << "infra error in " << infra_context << ": "
          << infra_status.ToString();
      break;
    case Verdict::kMismatch:
      out << mismatches.size() << " mismatch(es) over " << runs
          << " runs:";
      for (const Mismatch& m : mismatches) {
        out << "\n  [" << m.label << "]";
        if (!m.file.empty()) out << " " << m.file << ":";
        out << " " << m.detail;
      }
      break;
  }
  return out.str();
}

DiffReport RunDifferential(const lang::Program& program,
                           const DiffOptions& options) {
  DiffReport report;

  sim::SimFileSystem ref_fs;
  auto ref = api::Run(api::EngineKind::kReference, program, &ref_fs, {});
  ++report.runs;
  if (!ref.ok()) {
    report.verdict = Verdict::kInfraError;
    report.infra_status = ref.status();
    report.infra_context = "reference run";
    return report;
  }

  // Compile once per machine count: every run of a variant that executes
  // from a plan — rerun and fault replays included — shares it.
  std::map<int, StatusOr<runtime::Plan>> plans;
  auto run = [&](const EngineVariant& variant, const api::RunConfig& config,
                 sim::SimFileSystem* fs) -> StatusOr<api::RunResult> {
    if (!api::RunsFromPlan(variant.engine)) {
      return api::Run(variant.engine, program, fs, config);
    }
    auto it = plans.find(variant.machines);
    if (it == plans.end()) {
      it = plans
               .emplace(variant.machines,
                        api::Compile(program, {.machines = variant.machines}))
               .first;
    }
    if (!it->second.ok()) return it->second.status();
    return api::Execute(variant.engine, *it->second, fs, config);
  };

  for (const EngineVariant& variant : options.variants) {
    api::RunConfig config;
    config.machines = variant.machines;
    config.backend = variant.backend;
    config.columnar = variant.columnar;

    sim::SimFileSystem fs;
    auto first = run(variant, config, &fs);
    ++report.runs;
    if (!first.ok()) {
      // The reference accepted this program; an engine that rejects or
      // crashes on it diverges — that is a finding, not an infra error.
      report.mismatches.push_back(
          {variant.label, "", "run failed: " + first.status().ToString()});
      continue;
    }
    if (options.tamper) options.tamper(variant.label, &fs);
    Compare(variant.label, ref_fs, fs, /*exact=*/false,
            &report.mismatches);

    if (variant.run_twice) {
      sim::SimFileSystem fs2;
      auto rerun = run(variant, config, &fs2);
      ++report.runs;
      if (!rerun.ok()) {
        report.mismatches.push_back(
            {variant.label + ":rerun", "",
             "second run failed: " + rerun.status().ToString()});
      } else {
        Compare(variant.label + ":rerun", fs, fs2, /*exact=*/true,
                &report.mismatches);
      }
    }

    if (variant.fault_replay && !options.fault_plans.empty() &&
        variant.backend == api::BackendKind::kDes &&
        IsMitosEngine(variant.engine)) {
      for (size_t i = 0; i < options.fault_plans.size(); ++i) {
        api::RunConfig fault_config = config;
        fault_config.faults = &options.fault_plans[i];
        sim::SimFileSystem fault_fs;
        auto fault_run = run(variant, fault_config, &fault_fs);
        ++report.runs;
        const std::string label =
            variant.label + ":faults[" + std::to_string(i) + "]";
        if (!fault_run.ok()) {
          report.mismatches.push_back(
              {label, "",
               "faulted run failed: " + fault_run.status().ToString()});
          continue;
        }
        // Recovery must be byte-identical to the fault-free run.
        Compare(label, fs, fault_fs, /*exact=*/true, &report.mismatches);
      }
    }
  }

  report.verdict = report.mismatches.empty() ? Verdict::kOk
                                             : Verdict::kMismatch;
  return report;
}

}  // namespace mitos::testing
