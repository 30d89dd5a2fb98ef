#include "obs/analysis/analysis.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace mitos::obs::analysis {

namespace {

constexpr double kEps = 1e-12;

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  *out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

// A resource or operator span lifted out of the trace.
struct Span {
  double start = 0;
  double end = 0;
  int machine = -1;
  const TraceEvent* event = nullptr;
  size_t seq = 0;  // insertion index: the deterministic tie-breaker
};

// A coordination interval the control-flow timeline explains.
struct Window {
  double start = 0;
  double end = 0;
};

double Overlap(double a0, double a1, double b0, double b1) {
  double lo = std::max(a0, b0);
  double hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0;
}

const char* KindOfCat(const std::string& cat) {
  if (cat == "sim") return kCompute;
  if (cat == "core") return kCompute;  // wall-clock kernel exec (threads)
  if (cat == "net") return kNetwork;
  if (cat == "disk") return kDisk;
  return nullptr;
}

// "<op>.<phase>" -> "<op>"; names without a phase pass through.
std::string OperatorOfLabel(const std::string& label) {
  size_t dot = label.rfind('.');
  return dot == std::string::npos ? label : label.substr(0, dot);
}

// "op:<name>[<i>]" -> (<name>, <i>); returns false for other lanes.
bool ParseOperatorLane(const std::string& lane, std::string* name,
                       int* instance) {
  if (lane.rfind("op:", 0) != 0) return false;
  size_t open = lane.rfind('[');
  if (open == std::string::npos || lane.back() != ']') return false;
  *name = lane.substr(3, open - 3);
  *instance = std::atoi(lane.substr(open + 1, lane.size() - open - 2).c_str());
  return true;
}

class Analyzer {
 public:
  Analyzer(const TraceRecorder& trace, const MetricsRegistry* metrics)
      : trace_(trace), metrics_(metrics) {}

  RunAnalysis Run() {
    result_.wall_clock = trace_.clock() == TraceClock::kWall;
    CollectSpans();
    BuildCoordinationWindows();
    SweepCriticalPath();
    AttributeBags();
    ComputeStepBreakdowns();
    ComputeSkew();
    for (const CriticalSegment& seg : result_.critical_path) {
      result_.decomposition[seg.kind] += seg.seconds();
    }
    return std::move(result_);
  }

 private:
  void CollectSpans() {
    int max_machine = -1;
    for (const auto& [pid, name] : trace_.process_names()) {
      (void)name;
      max_machine = std::max(max_machine, pid - 1);
    }
    size_t seq = 0;
    for (const TraceEvent& event : trace_.events()) {
      const size_t my_seq = seq++;
      if (event.phase != 'X') continue;
      const double end = event.ts + event.dur;
      if (event.pid == kEnginePid) {
        if (std::string(event.cat) == "run") {
          run_end_ = std::max(run_end_, end);
        } else if (std::string(event.cat) == "job" && event.name == "launch") {
          launch_windows_.push_back({event.ts, end});
        } else if (std::string(event.cat) == "quiesce") {
          // The threads driver waiting for worker quiescence: the wall
          // analogue of the DES superstep barrier.
          barrier_windows_.push_back({event.ts, end});
        }
        continue;
      }
      const int machine = event.pid - 1;
      max_machine = std::max(max_machine, machine);
      if (std::string(event.cat) == "operator") {
        op_spans_.push_back({event.ts, end, machine, &event, my_seq});
        continue;
      }
      if (std::string(event.cat) == "queue") {
        // Enqueue→dequeue wait of one task (threads backend); classifies
        // idle gaps, never carries work itself.
        if (event.dur > 0) queue_windows_.push_back({event.ts, end});
        continue;
      }
      if (std::string(event.cat) == "idle") continue;  // the complement
      const char* kind = KindOfCat(event.cat);
      if (kind == nullptr || event.dur <= 0) continue;
      if (kind == kCompute) {
        result_.operator_busy[OperatorOfLabel(event.name)] += event.dur;
      }
      work_spans_.push_back({event.ts, end, machine, &event, my_seq});
      work_end_ = std::max(work_end_, end);
    }
    result_.num_machines = max_machine + 1;
    result_.total_seconds = run_end_ > 0 ? run_end_ : work_end_;
    // Within [0, total], the backward sweep must not chase trailing
    // background noise past the run span, so clamp the sweep start.
    sweep_end_ = result_.total_seconds;
  }

  void BuildCoordinationWindows() {
    if (metrics_ == nullptr) return;
    for (const StepRecord& step : metrics_->steps()) {
      const double release = step.broadcast_time - step.decision_overhead;
      if (step.barrier_wait > 0) {
        barrier_windows_.push_back({release - step.barrier_wait, release});
      }
      if (step.decision_overhead > 0) {
        broadcast_windows_.push_back({release, step.broadcast_time});
      }
    }
  }

  // Splits the idle gap [a, b] against the coordination windows, most
  // specific first: barrier-wait, then decision-broadcast, then job launch,
  // then queue-wait (wall-clock traces); anything unexplained is
  // straggler/idle slack.
  void ClassifyGap(double a, double b) {
    struct Piece {
      double start, end;
    };
    std::vector<Piece> uncovered = {{a, b}};
    struct Layer {
      const std::vector<Window>* windows;
      const char* kind;
    };
    const Layer layers[] = {{&barrier_windows_, kBarrierWait},
                            {&broadcast_windows_, kDecisionBroadcast},
                            {&launch_windows_, kLaunch},
                            {&queue_windows_, kQueueWait}};
    for (const Layer& layer : layers) {
      std::vector<Piece> next;
      for (const Piece& piece : uncovered) {
        std::vector<Piece> remaining = {piece};
        for (const Window& w : *layer.windows) {
          std::vector<Piece> split;
          for (const Piece& r : remaining) {
            double lo = std::max(r.start, w.start);
            double hi = std::min(r.end, w.end);
            if (hi <= lo + kEps) {
              split.push_back(r);
              continue;
            }
            Emit(lo, hi, layer.kind);
            if (lo > r.start + kEps) split.push_back({r.start, lo});
            if (r.end > hi + kEps) split.push_back({hi, r.end});
          }
          remaining = std::move(split);
        }
        next.insert(next.end(), remaining.begin(), remaining.end());
      }
      uncovered = std::move(next);
    }
    for (const Piece& piece : uncovered) {
      if (piece.end > piece.start + kEps) Emit(piece.start, piece.end, kSlack);
    }
  }

  void Emit(double start, double end, const char* kind, int machine = -1,
            std::string detail = {}) {
    CriticalSegment seg;
    seg.t_start = start;
    seg.t_end = end;
    seg.kind = kind;
    seg.machine = machine;
    seg.detail = std::move(detail);
    result_.critical_path.push_back(std::move(seg));
  }

  // Backward "last finisher" sweep: from the run's end, repeatedly jump to
  // the latest-ending work span at or before the cursor, attribute it, and
  // continue from its start; gaps go through ClassifyGap. Ties on end time
  // break deterministically (latest start, then insertion order).
  void SweepCriticalPath() {
    std::vector<Span> sorted = work_spans_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Span& x, const Span& y) {
                       if (x.end != y.end) return x.end < y.end;
                       if (x.start != y.start) return x.start < y.start;
                       return x.seq < y.seq;
                     });
    double cursor = sweep_end_;
    size_t hi = sorted.size();
    while (cursor > kEps) {
      while (hi > 0 && sorted[hi - 1].end > cursor + kEps) --hi;
      if (hi == 0) {
        ClassifyGap(0, cursor);
        break;
      }
      const Span& span = sorted[hi - 1];
      if (span.end < cursor - kEps) ClassifyGap(span.end, cursor);
      const char* kind = KindOfCat(span.event->cat);
      Emit(span.start, span.end, kind, span.machine, span.event->name);
      cursor = span.start;
    }
    std::stable_sort(result_.critical_path.begin(),
                     result_.critical_path.end(),
                     [](const CriticalSegment& x, const CriticalSegment& y) {
                       if (x.t_start != y.t_start) return x.t_start < y.t_start;
                       return x.t_end < y.t_end;
                     });
  }

  // Attributes critical compute segments to operators (by span label) and
  // to bag identifiers: the enclosing "<op>@<path_len>" operator span on
  // the same machine with the largest overlap.
  void AttributeBags() {
    for (CriticalSegment& seg : result_.critical_path) {
      if (seg.kind != kCompute && seg.kind != kNetwork &&
          seg.kind != kDisk) {
        continue;
      }
      if (seg.kind == kCompute) {
        result_.by_operator[OperatorOfLabel(seg.detail)] += seg.seconds();
      }
      const Span* best = nullptr;
      double best_overlap = 0;
      for (const Span& op : op_spans_) {
        if (op.machine != seg.machine) continue;
        double o = Overlap(seg.t_start, seg.t_end, op.start, op.end);
        if (o <= best_overlap + kEps) {
          // Prefer more overlap; on a tie, the tighter (shorter) span.
          if (best == nullptr || o < best_overlap - kEps) continue;
          double best_len = best->end - best->start;
          double op_len = op.end - op.start;
          if (op_len >= best_len) continue;
        }
        best = &op;
        best_overlap = o;
      }
      if (best != nullptr && best_overlap > kEps) {
        seg.bag = best->event->name;
        result_.by_bag[seg.bag] += seg.seconds();
      }
    }
  }

  // Step windows: previous broadcast -> this broadcast (the trace's "step"
  // spans use the same convention); the first window starts at 0.
  std::vector<Window> StepWindows() const {
    std::vector<Window> windows;
    if (metrics_ == nullptr) return windows;
    double prev = 0;
    for (const StepRecord& step : metrics_->steps()) {
      windows.push_back({prev, step.broadcast_time});
      prev = step.broadcast_time;
    }
    return windows;
  }

  void ComputeStepBreakdowns() {
    const std::vector<Window> windows = StepWindows();
    for (size_t i = 0; i < windows.size(); ++i) {
      StepBreakdown row;
      row.index = static_cast<int>(i);
      row.t_start = windows[i].start;
      row.t_end = windows[i].end;
      for (const CriticalSegment& seg : result_.critical_path) {
        double o = Overlap(seg.t_start, seg.t_end, row.t_start, row.t_end);
        if (o <= 0) continue;
        if (seg.kind == kCompute) row.compute += o;
        else if (seg.kind == kNetwork) row.network += o;
        else if (seg.kind == kDisk) row.disk += o;
        else if (seg.kind == kBarrierWait) row.barrier_wait += o;
        else if (seg.kind == kDecisionBroadcast) row.broadcast += o;
        else if (seg.kind == kLaunch) row.launch += o;
        else if (seg.kind == kQueueWait) row.queue_wait += o;
        else row.slack += o;
      }
      result_.steps.push_back(row);
    }
  }

  // Busy-CPU seconds of `machine` inside [a, b]; "sim" (virtual) and
  // "core" (wall) spans both count as compute.
  double BusyIn(int machine, double a, double b) const {
    double busy = 0;
    for (const Span& span : work_spans_) {
      if (span.machine != machine) continue;
      if (KindOfCat(span.event->cat) != kCompute) continue;
      busy += Overlap(span.start, span.end, a, b);
    }
    return busy;
  }

  // Dominant operator instance on `machine` in [a, b]: the operator-bag
  // span with the largest overlap; falls back to compute labels when no
  // operator span covers the window.
  void DominantOperator(int machine, double a, double b, std::string* op,
                        int* instance) const {
    const Span* best = nullptr;
    double best_overlap = 0;
    for (const Span& span : op_spans_) {
      if (span.machine != machine) continue;
      double o = Overlap(span.start, span.end, a, b);
      if (o > best_overlap + kEps) {
        best = &span;
        best_overlap = o;
      }
    }
    if (best != nullptr) {
      std::string lane = trace_.LaneName(best->event->pid, best->event->tid);
      if (ParseOperatorLane(lane, op, instance)) return;
      *op = best->event->name;
      *instance = -1;
      return;
    }
    std::map<std::string, double> by_label;
    for (const Span& span : work_spans_) {
      if (span.machine != machine) continue;
      if (KindOfCat(span.event->cat) != kCompute) continue;
      double o = Overlap(span.start, span.end, a, b);
      if (o > 0) by_label[OperatorOfLabel(span.event->name)] += o;
    }
    double best_busy = 0;
    for (const auto& [label, busy] : by_label) {
      if (busy > best_busy) {
        best_busy = busy;
        *op = label;
      }
    }
    *instance = -1;
  }

  void ComputeSkew() {
    const int machines = result_.num_machines;
    if (machines <= 0) return;
    result_.machine_busy.assign(static_cast<size_t>(machines), 0.0);
    for (const Span& span : work_spans_) {
      if (KindOfCat(span.event->cat) != kCompute) continue;
      result_.machine_busy[static_cast<size_t>(span.machine)] +=
          span.end - span.start;
    }
    double total = 0, max_busy = 0;
    for (int m = 0; m < machines; ++m) {
      double busy = result_.machine_busy[static_cast<size_t>(m)];
      total += busy;
      if (busy > max_busy) {
        max_busy = busy;
        result_.busiest_machine = m;
      }
    }
    double mean = total / machines;
    result_.busy_imbalance = mean > 0 ? max_busy / mean : 1;

    const std::vector<Window> windows = StepWindows();
    for (size_t i = 0; i < windows.size(); ++i) {
      StepSkew row;
      row.index = static_cast<int>(i);
      row.t_start = windows[i].start;
      row.t_end = windows[i].end;
      row.busy.assign(static_cast<size_t>(machines), 0.0);
      double sum = 0;
      for (int m = 0; m < machines; ++m) {
        double busy = BusyIn(m, row.t_start, row.t_end);
        row.busy[static_cast<size_t>(m)] = busy;
        sum += busy;
        if (busy > row.max_busy) {
          row.max_busy = busy;
          row.straggler = m;
        }
      }
      row.mean_busy = sum / machines;
      row.imbalance = row.mean_busy > 0 ? row.max_busy / row.mean_busy : 1;
      row.slack = row.max_busy - row.mean_busy;
      if (row.straggler >= 0) {
        DominantOperator(row.straggler, row.t_start, row.t_end, &row.op,
                         &row.instance);
      }
      result_.skew.push_back(std::move(row));
    }
  }

  const TraceRecorder& trace_;
  const MetricsRegistry* metrics_;
  RunAnalysis result_;

  std::vector<Span> work_spans_;
  std::vector<Span> op_spans_;
  std::vector<Window> launch_windows_;
  std::vector<Window> barrier_windows_;
  std::vector<Window> broadcast_windows_;
  std::vector<Window> queue_windows_;
  double run_end_ = 0;
  double work_end_ = 0;
  double sweep_end_ = 0;
};

}  // namespace

double RunAnalysis::DecompositionSeconds(const std::string& kind) const {
  auto it = decomposition.find(kind);
  return it == decomposition.end() ? 0 : it->second;
}

std::string RunAnalysis::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "=== critical-path report ===\n"
                "%s time: %.4fs over %d machines\n"
                "decomposition of the critical path:\n",
                wall_clock ? "wall" : "virtual", total_seconds,
                num_machines);
  out += buf;
  const char* kinds[] = {kCompute,           kNetwork, kDisk,
                         kBarrierWait,       kDecisionBroadcast,
                         kLaunch,            kQueueWait, kSlack};
  for (const char* kind : kinds) {
    double seconds = DecompositionSeconds(kind);
    double share = total_seconds > 0 ? 100.0 * seconds / total_seconds : 0;
    std::snprintf(buf, sizeof(buf), "  %-20s %10.4fs  %5.1f%%\n", kind,
                  seconds, share);
    out += buf;
  }

  // Top operators / bags by critical-path share, largest first.
  auto top = [&](const std::map<std::string, double>& table,
                 const char* title) {
    if (table.empty()) return;
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, seconds] : table) {
      rows.emplace_back(seconds, name);
    }
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    out += title;
    for (size_t i = 0; i < rows.size() && i < 10; ++i) {
      std::snprintf(buf, sizeof(buf), "  %10.4fs  %s\n", rows[i].first,
                    rows[i].second.c_str());
      out += buf;
    }
  };
  top(by_operator, "top operators on the critical path:\n");
  top(by_bag, "top bags (operator × path-prefix) on the critical path:\n");

  if (!steps.empty()) {
    out +=
        "per-step critical path (s):\n"
        "  step   compute   network      disk   barrier "
        "broadcast     queue     slack\n";
    const size_t kMaxRows = 40;
    for (size_t i = 0; i < steps.size() && i < kMaxRows; ++i) {
      const StepBreakdown& s = steps[i];
      std::snprintf(buf, sizeof(buf),
                    "  %4d %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n",
                    s.index, s.compute, s.network, s.disk, s.barrier_wait,
                    s.broadcast, s.queue_wait, s.slack);
      out += buf;
    }
    if (steps.size() > kMaxRows) {
      std::snprintf(buf, sizeof(buf), "  … %zu more steps (see JSON)\n",
                    steps.size() - kMaxRows);
      out += buf;
    }
  }

  if (!machine_busy.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "skew: busy-CPU imbalance %.3f (busiest m%d)\n",
                  busy_imbalance, busiest_machine);
    out += buf;
    for (size_t m = 0; m < machine_busy.size(); ++m) {
      std::snprintf(buf, sizeof(buf), "  m%-3zu %10.4fs busy\n", m,
                    machine_busy[m]);
      out += buf;
    }
  }
  if (!skew.empty()) {
    out +=
        "per-step stragglers:\n"
        "  step straggler imbalance     slack  responsible\n";
    const size_t kMaxRows = 40;
    for (size_t i = 0; i < skew.size() && i < kMaxRows; ++i) {
      const StepSkew& s = skew[i];
      std::string who = s.op;
      if (s.instance >= 0) who += "[" + std::to_string(s.instance) + "]";
      std::snprintf(buf, sizeof(buf), "  %4d %9d %9.3f %8.4fs  %s\n",
                    s.index, s.straggler, s.imbalance, s.slack, who.c_str());
      out += buf;
    }
    if (skew.size() > kMaxRows) {
      std::snprintf(buf, sizeof(buf), "  … %zu more steps (see JSON)\n",
                    skew.size() - kMaxRows);
      out += buf;
    }
  }
  return out;
}

std::string RunAnalysis::ToJson() const {
  std::string out = "{\"total_seconds\":";
  AppendDouble(&out, total_seconds);
  out += ",\"num_machines\":" + std::to_string(num_machines);
  out += ",\"clock\":\"";
  out += wall_clock ? "wall" : "virtual";
  out += '"';

  out += ",\"decomposition\":{";
  bool first = true;
  for (const auto& [kind, seconds] : decomposition) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(kind) + "\":";
    AppendDouble(&out, seconds);
  }
  out += "},\"by_operator\":{";
  first = true;
  for (const auto& [name, seconds] : by_operator) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":";
    AppendDouble(&out, seconds);
  }
  out += "},\"by_bag\":{";
  first = true;
  for (const auto& [name, seconds] : by_bag) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":";
    AppendDouble(&out, seconds);
  }
  out += "},\"operator_busy\":{";
  first = true;
  for (const auto& [name, seconds] : operator_busy) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":";
    AppendDouble(&out, seconds);
  }

  out += "},\"critical_path\":[";
  first = true;
  for (const CriticalSegment& seg : critical_path) {
    if (!first) out += ',';
    first = false;
    out += "{\"t_start\":";
    AppendDouble(&out, seg.t_start);
    out += ",\"t_end\":";
    AppendDouble(&out, seg.t_end);
    out += ",\"kind\":\"" + JsonEscape(seg.kind) + "\"";
    out += ",\"machine\":" + std::to_string(seg.machine);
    if (!seg.detail.empty()) {
      out += ",\"detail\":\"" + JsonEscape(seg.detail) + "\"";
    }
    if (!seg.bag.empty()) out += ",\"bag\":\"" + JsonEscape(seg.bag) + "\"";
    out += '}';
  }

  out += "],\"steps\":[";
  first = true;
  for (const StepBreakdown& s : steps) {
    if (!first) out += ',';
    first = false;
    out += "{\"index\":" + std::to_string(s.index) + ",\"t_start\":";
    AppendDouble(&out, s.t_start);
    out += ",\"t_end\":";
    AppendDouble(&out, s.t_end);
    out += ",\"compute\":";
    AppendDouble(&out, s.compute);
    out += ",\"network\":";
    AppendDouble(&out, s.network);
    out += ",\"disk\":";
    AppendDouble(&out, s.disk);
    out += ",\"barrier_wait\":";
    AppendDouble(&out, s.barrier_wait);
    out += ",\"broadcast\":";
    AppendDouble(&out, s.broadcast);
    out += ",\"launch\":";
    AppendDouble(&out, s.launch);
    out += ",\"queue_wait\":";
    AppendDouble(&out, s.queue_wait);
    out += ",\"slack\":";
    AppendDouble(&out, s.slack);
    out += '}';
  }

  out += "],\"skew\":{\"machine_busy\":[";
  first = true;
  for (double busy : machine_busy) {
    if (!first) out += ',';
    first = false;
    AppendDouble(&out, busy);
  }
  out += "],\"imbalance\":";
  AppendDouble(&out, busy_imbalance);
  out += ",\"busiest\":" + std::to_string(busiest_machine);
  out += ",\"steps\":[";
  first = true;
  for (const StepSkew& s : skew) {
    if (!first) out += ',';
    first = false;
    out += "{\"index\":" + std::to_string(s.index) +
           ",\"straggler\":" + std::to_string(s.straggler) +
           ",\"imbalance\":";
    AppendDouble(&out, s.imbalance);
    out += ",\"slack\":";
    AppendDouble(&out, s.slack);
    out += ",\"op\":\"" + JsonEscape(s.op) + "\"";
    out += ",\"instance\":" + std::to_string(s.instance);
    out += '}';
  }
  out += "]}}\n";
  return out;
}

RunAnalysis Analyze(const TraceRecorder& trace,
                    const MetricsRegistry* metrics) {
  return Analyzer(trace, metrics).Run();
}

}  // namespace mitos::obs::analysis
