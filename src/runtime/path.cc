#include "runtime/path.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace mitos::runtime {

void ExecutionPath::Append(ir::BlockId block) {
  MITOS_CHECK_GE(block, 0);
  const int pos = size();
  // The occurrence record is published before the entry that makes `pos`
  // visible, so a reader that sees length pos + 1 also sees it.
  while (occurrences_.size() <= block) {
    occurrences_.Next();
    occurrences_.Commit();
  }
  occurrences_.Mutable(block).push_back(pos);
  entries_.push_back(block);
}

int ExecutionPath::LongestPrefixEndingWith(ir::BlockId block,
                                           int max_len) const {
  const int limit = std::min(max_len, size());
  if (limit <= 0 || block < 0 || block >= occurrences_.size()) return 0;
  const Positions& occ = occurrences_[block];
  // The last occurrence below `limit`. Positions past this reader's view
  // may already be appended; they are >= limit and never chosen.
  int hi = occ.size();
  if (hi > 0 && occ[hi - 1] < limit) return occ[hi - 1] + 1;
  int lo = 0;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (occ[mid] < limit) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : occ[lo - 1] + 1;
}

std::string ExecutionPath::ToString() const {
  const int n = size();
  std::ostringstream out;
  out << '[';
  for (int i = 0; i < n; ++i) {
    if (i > 0) out << ' ';
    out << entries_[i];
  }
  out << (complete() ? "] (complete)" : "]");
  return out.str();
}

void ControlFlowManager::AdvanceTo(int new_len, bool complete) {
  // A listener may synchronously cause another delivery (e.g. an operator
  // reacting to the new position completes the next decision with zero
  // intervening simulated work). Queue instead of recursing so the
  // outermost call drains everything and listeners see positions in order.
  pending_.emplace_back(new_len, complete);
  if (advancing_) return;
  advancing_ = true;
  for (size_t next = 0; next < pending_.size(); ++next) {
    const auto [len, comp] = pending_[next];
    while (known_len_ < std::min(len, path_->size())) {
      int pos = known_len_++;
      ir::BlockId block = path_->at(pos);
      for (auto& listener : listeners_) listener(pos, block);
    }
    if (comp && !known_complete_ && known_len_ == path_->size()) {
      known_complete_ = true;
      for (auto& listener : completion_listeners_) listener();
    }
  }
  pending_.clear();
  advancing_ = false;
}

PathAuthority::PathAuthority(const ir::Program* program, Backend* backend,
                             ExecutionPath* path,
                             std::vector<ControlFlowManager*> managers,
                             Options options,
                             std::function<void(Status)> on_error)
    : program_(program),
      backend_(backend),
      managers_(std::move(managers)),
      options_(options),
      on_error_(std::move(on_error)),
      path_(path) {
  MITOS_CHECK(program != nullptr);
  MITOS_CHECK(backend != nullptr);
  MITOS_CHECK(path != nullptr);
  // Fault handling needs the simulator's background timers (ack-retry
  // backoff); it is rejected upstream for real-parallel backends.
  MITOS_CHECK(options_.faults == nullptr || backend->simulator() != nullptr);
}

PathAuthority::~PathAuthority() { *alive_ = false; }

void PathAuthority::Start(int machine) {
  if (path_->size() != 0) {
    // A non-empty path at job start means the caller reused the path
    // object across jobs — a wiring bug; report it instead of aborting.
    on_error_(Status::Internal(
        "PathAuthority::Start on a non-empty path (len " +
        std::to_string(path_->size()) + ")"));
    return;
  }
  AppendChain(program_->entry(), machine, /*initial=*/true);
}

void PathAuthority::OnDecision(ir::BlockId block, int at_len, bool value,
                               int machine) {
  if (path_->complete()) {
    on_error_(Status::Internal("decision after path completion"));
    return;
  }
  if (at_len != path_->size()) {
    on_error_(Status::Internal(
        "out-of-order control flow decision: path len " +
        std::to_string(path_->size()) + ", decision at " +
        std::to_string(at_len)));
    return;
  }
  const ir::Terminator& term = program_->block(block).term;
  if (term.kind != ir::Terminator::Kind::kBranch) {
    // A decision can only come from a condition node, which the translator
    // places in branch-terminated blocks — anything else means the plan the
    // runtime is executing disagrees with the IR it was built from.
    on_error_(Status::Internal(
        "control flow decision in block " + std::to_string(block) +
        " whose terminator is not a branch"));
    return;
  }
  ++decisions_;
  MITOS_VLOG(2) << "decision " << decisions_ - 1 << ": block " << block
                << " -> " << (value ? "true" : "false") << " (path len "
                << path_->size() << ", machine " << machine << ")";
  if (options_.trace != nullptr) {
    // One instant event per control-flow decision, on the machine whose
    // condition-node instance decided.
    int pid = obs::MachinePid(machine);
    options_.trace->Instant(
        pid, options_.trace->Lane(pid, "control-flow"), "decision",
        "control-flow", backend_->now(),
        {{"step", decisions_ - 1},
         {"block", block},
         {"value", value},
         {"path_len", at_len}});
  }
  if (options_.metrics != nullptr) options_.metrics->Inc("decisions");
  if (options_.event_log != nullptr) {
    options_.event_log->Append(backend_->now(), "decision",
                               {{"step", decisions_ - 1},
                                {"block", block},
                                {"value", value},
                                {"path_len", at_len},
                                {"machine", machine}});
  }
  const double now = backend_->now();
  pending_step_ = PendingStep{block, value, now, now};
  AppendChain(value ? term.target : term.target_else, machine);
}

void PathAuthority::RecordStep(bool initial) {
  const double now = backend_->now();
  const sim::ClusterMetrics cm = backend_->MetricsSnapshot();
  const int64_t elements =
      options_.elements_probe ? options_.elements_probe() : 0;
  if (!initial) {
    const int step = decisions_ - 1;
    // barrier_wait is the time the decision sat waiting for the superstep
    // barrier (zero for pipelined engines); decision_overhead is the
    // coordination cost charged after release (FLINK-3322-style).
    const double barrier_wait =
        pending_step_.release_time - pending_step_.decision_time;
    const double decision_overhead = now - pending_step_.release_time;
    if (options_.trace != nullptr) {
      // The step span covers everything since the previous broadcast: the
      // superstep in a barriered engine, and the (overlapping) slice of
      // work a pipelined engine finished while this decision raced ahead.
      options_.trace->Span(
          obs::kEnginePid, options_.trace->Lane(obs::kEnginePid, "steps"),
          "step" + std::to_string(step), "step", last_broadcast_time_, now,
          {{"block", pending_step_.block},
           {"value", pending_step_.value},
           {"path_len", path_->size()},
           {"barrier_wait", barrier_wait},
           {"decision_overhead", decision_overhead}});
    }
    if (options_.metrics != nullptr) {
      obs::StepRecord record;
      record.index = step;
      record.block = pending_step_.block;
      record.value = pending_step_.value;
      record.path_len = path_->size();
      record.decision_time = pending_step_.decision_time;
      record.broadcast_time = now;
      record.barrier_wait = barrier_wait;
      record.decision_overhead = decision_overhead;
      record.elements = elements - last_elements_;
      record.net_bytes = cm.network_bytes - last_net_bytes_;
      record.disk_bytes = cm.disk_bytes - last_disk_bytes_;
      options_.metrics->AddStep(record);
      options_.metrics->Observe("step_barrier_wait_seconds",
                                record.barrier_wait);
      options_.metrics->Observe("step_decision_overhead_seconds",
                                record.decision_overhead);
    }
    if (options_.event_log != nullptr) {
      options_.event_log->Append(
          now, "step_end",
          {{"step", step},
           {"block", pending_step_.block},
           {"value", pending_step_.value},
           {"path_len", path_->size()},
           {"barrier_wait", barrier_wait},
           {"decision_overhead", decision_overhead},
           {"elements", elements - last_elements_},
           {"net_bytes", cm.network_bytes - last_net_bytes_},
           {"disk_bytes", cm.disk_bytes - last_disk_bytes_}});
    }
  }
  last_broadcast_time_ = now;
  last_elements_ = elements;
  last_net_bytes_ = cm.network_bytes;
  last_disk_bytes_ = cm.disk_bytes;
  if (options_.event_log != nullptr && !path_->complete()) {
    // The next step starts at this broadcast: it runs until the next
    // decision's broadcast closes it with a matching step_end.
    options_.event_log->Append(
        now, "step_begin",
        {{"step", decisions_}, {"path_len", path_->size()}});
  }
  if (options_.on_step) options_.on_step(initial ? -1 : decisions_ - 1,
                                         initial);
}

void PathAuthority::AppendChain(ir::BlockId block, int machine,
                                bool initial) {
  // Collect the decided block and every block that follows unconditionally;
  // stop at a conditional branch (its condition node will decide later) or
  // at program exit.
  std::vector<ir::BlockId>& chain = chain_;
  chain.clear();
  bool complete = false;
  ir::BlockId current = block;
  while (true) {
    if (path_->size() + static_cast<int>(chain.size()) >=
        options_.max_path_len) {
      on_error_(Status::FailedPrecondition(
          "execution path exceeded max_path_len (runaway loop?)"));
      return;
    }
    chain.push_back(current);
    const ir::Terminator& term = program_->block(current).term;
    if (term.kind == ir::Terminator::Kind::kJump) {
      current = term.target;
      continue;
    }
    if (term.kind == ir::Terminator::Kind::kExit) complete = true;
    break;
  }

  for (ir::BlockId b : chain) path_->Append(b);
  if (complete) path_->MarkComplete();
  Broadcast(machine, initial);
}

void PathAuthority::SendControl(int from_machine, int machine, int new_len,
                                bool complete, int attempt) {
  ControlFlowManager* manager = managers_[static_cast<size_t>(machine)];
  std::shared_ptr<bool> alive = alive_;
  backend_->Send(from_machine, machine,
                 backend_->config().control_message_bytes,
                 [this, alive, manager, from_machine, machine, new_len,
                  complete] {
                   if (!*alive) return;
                   // AdvanceTo is idempotent, so a duplicate delivery from
                   // a retransmitted broadcast is harmless.
                   manager->AdvanceTo(new_len, complete);
                   backend_->Send(machine, from_machine,
                                  backend_->config().control_message_bytes,
                                  [this, alive, new_len, machine] {
                                    if (!*alive) return;
                                    acked_.emplace(new_len, machine);
                                  });
                 });
  // Retry on an unacked broadcast with exponential backoff. Background:
  // the timer watches the run, it must not hold the superstep barrier.
  const double backoff =
      options_.faults->retry_backoff * static_cast<double>(1 << attempt);
  backend_->simulator()->ScheduleBackgroundAfter(
      backoff,
      [this, alive, from_machine, machine, new_len, complete, attempt] {
        if (!*alive) return;
        if (acked_.count({new_len, machine}) > 0) return;
        if (attempt + 1 > options_.faults->max_broadcast_retries) {
          on_error_(Status::Unavailable(
              "path broadcast to machine " + std::to_string(machine) +
              " (len " + std::to_string(new_len) + ") unacknowledged after " +
              std::to_string(attempt + 1) + " attempts"));
          return;
        }
        SendControl(from_machine, machine, new_len, complete, attempt + 1);
      });
}

void PathAuthority::Broadcast(int from_machine, bool initial) {
  const int new_len = path_->size();
  const bool complete = path_->complete();

  auto do_broadcast = [this, new_len, complete, from_machine, initial] {
    if (options_.trace != nullptr || options_.metrics != nullptr ||
        options_.event_log != nullptr || options_.on_step) {
      RecordStep(initial);
    }
    const size_t bytes = backend_->config().control_message_bytes;
    for (int m = 0; m < static_cast<int>(managers_.size()); ++m) {
      ControlFlowManager* manager = managers_[static_cast<size_t>(m)];
      if (m == from_machine) {
        if (backend_->simulator() != nullptr) {
          // DES: the local manager learns immediately (same virtual
          // instant, no event scheduled — byte-identical traces).
          manager->AdvanceTo(new_len, complete);
        } else {
          // Real-parallel backend: machine state is thread-confined, and
          // this fan-out may run on the driver (superstep idle callback)
          // or another machine's worker. Advancing the local manager
          // inline would touch from_machine's hosts while its worker can
          // already be delivering chunks triggered by the remote sends
          // below, so the local advance goes through from_machine's own
          // queue like everyone else's (zero-byte self-send).
          backend_->Send(from_machine, from_machine, 0,
                         [manager, new_len, complete] {
                           manager->AdvanceTo(new_len, complete);
                         });
        }
        continue;
      }
      if (options_.faults != nullptr) {
        SendControl(from_machine, m, new_len, complete, /*attempt=*/0);
        continue;
      }
      backend_->Send(from_machine, m, bytes,
                     [manager, new_len, complete] {
                       manager->AdvanceTo(new_len, complete);
                     });
    }
    if (!initial && options_.on_checkpoint &&
        options_.faults != nullptr && options_.faults->checkpoint_every > 0 &&
        decisions_ % options_.faults->checkpoint_every == 0) {
      options_.on_checkpoint();
    }
  };

  if (options_.pipelining || initial) {
    if (options_.decision_overhead > 0 && !initial) {
      backend_->ScheduleAfter(options_.decision_overhead, do_broadcast);
    } else {
      do_broadcast();
    }
  } else {
    // Superstep barrier: wait for global quiescence, then charge the
    // per-step overhead, then release the decision.
    double overhead = options_.decision_overhead;
    backend_->ScheduleWhenIdle([this, overhead, do_broadcast, initial] {
      if (!initial) pending_step_.release_time = backend_->now();
      if (overhead > 0) {
        backend_->ScheduleAfter(overhead, do_broadcast);
      } else {
        do_broadcast();
      }
    });
  }
}

}  // namespace mitos::runtime
