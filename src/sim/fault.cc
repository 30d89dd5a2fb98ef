#include "sim/fault.h"

#include <cstdio>
#include <cstdlib>

namespace mitos::sim {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool ParseInt(const std::string& s, int* out) {
  double d;
  if (!ParseDouble(s, &d)) return false;
  *out = static_cast<int>(d);
  return static_cast<double>(*out) == d;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

std::string FaultPlan::ToString() const {
  // Built by appends only: g++ 12 reports a false -Wrestrict on
  // "literal" + std::string temporaries.
  std::string out;
  auto start = [&out](const char* key) {
    if (!out.empty()) out += "; ";
    out += key;
  };
  for (const Crash& c : crashes) {
    start("crash=");
    out += std::to_string(c.machine);
    out += '@';
    out += FormatDouble(c.at);
    if (c.restart_after >= 0) {
      out += '+';
      out += FormatDouble(c.restart_after);
    }
  }
  if (drop_probability > 0) {
    start("drop=");
    out += FormatDouble(drop_probability);
    out += '@';
    out += std::to_string(drop_seed);
  }
  for (const Slowdown& s : slowdowns) {
    start("slow=");
    out += std::to_string(s.machine);
    out += 'x';
    out += FormatDouble(s.multiplier);
    if (s.from > 0 || s.until != kForever) {
      out += '@';
      out += FormatDouble(s.from);
      if (s.until != kForever) {
        out += ':';
        out += FormatDouble(s.until);
      }
    }
  }
  if (checkpoint_every > 0) {
    start("ckpt=");
    out += std::to_string(checkpoint_every);
  }
  return out;
}

StatusOr<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    std::string piece = Trim(spec.substr(begin, end - begin));
    begin = end + 1;
    if (piece.empty()) continue;
    size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec clause without '=': " +
                                     piece);
    }
    std::string key = Trim(piece.substr(0, eq));
    std::string value = Trim(piece.substr(eq + 1));
    if (key == "crash") {
      // M@T[+R]
      size_t at = value.find('@');
      if (at == std::string::npos) {
        return Status::InvalidArgument("crash expects M@T[+R]: " + value);
      }
      Crash crash;
      std::string times = value.substr(at + 1);
      size_t plus = times.find('+');
      std::string t_str =
          plus == std::string::npos ? times : times.substr(0, plus);
      if (!ParseInt(value.substr(0, at), &crash.machine) ||
          !ParseDouble(t_str, &crash.at) || crash.machine < 0 ||
          crash.at < 0) {
        return Status::InvalidArgument("crash expects M@T[+R]: " + value);
      }
      if (plus != std::string::npos &&
          (!ParseDouble(times.substr(plus + 1), &crash.restart_after) ||
           crash.restart_after < 0)) {
        return Status::InvalidArgument("crash expects M@T[+R]: " + value);
      }
      plan.crashes.push_back(crash);
    } else if (key == "drop") {
      // P[@SEED]
      size_t at = value.find('@');
      std::string p_str =
          at == std::string::npos ? value : value.substr(0, at);
      if (!ParseDouble(p_str, &plan.drop_probability) ||
          plan.drop_probability < 0 || plan.drop_probability > 1) {
        return Status::InvalidArgument("drop expects P[@SEED] with P in "
                                       "[0,1]: " + value);
      }
      if (at != std::string::npos) {
        int seed;
        if (!ParseInt(value.substr(at + 1), &seed) || seed < 0) {
          return Status::InvalidArgument("drop expects P[@SEED]: " + value);
        }
        plan.drop_seed = static_cast<uint64_t>(seed);
      }
    } else if (key == "slow") {
      // MxF[@FROM[:UNTIL]]
      size_t x = value.find('x');
      size_t at = value.find('@');
      std::string f_str = at == std::string::npos
                              ? value.substr(x == std::string::npos
                                                 ? value.size()
                                                 : x + 1)
                              : value.substr(x + 1, at - x - 1);
      Slowdown slow;
      if (x == std::string::npos || (at != std::string::npos && at < x) ||
          !ParseInt(value.substr(0, x), &slow.machine) ||
          !ParseDouble(f_str, &slow.multiplier) || slow.machine < 0 ||
          slow.multiplier < 1.0) {
        return Status::InvalidArgument(
            "slow expects MxF[@FROM[:UNTIL]] with F >= 1: " + value);
      }
      if (at != std::string::npos) {
        std::string window = value.substr(at + 1);
        size_t colon = window.find(':');
        std::string from_str = colon == std::string::npos
                                   ? window
                                   : window.substr(0, colon);
        if (!ParseDouble(from_str, &slow.from) || slow.from < 0) {
          return Status::InvalidArgument(
              "slow expects MxF[@FROM[:UNTIL]]: " + value);
        }
        if (colon != std::string::npos &&
            (!ParseDouble(window.substr(colon + 1), &slow.until) ||
             slow.until <= slow.from)) {
          return Status::InvalidArgument(
              "slow expects MxF[@FROM[:UNTIL]] with UNTIL > FROM: " +
              value);
        }
      }
      plan.slowdowns.push_back(slow);
    } else if (key == "hb") {
      // I/T
      size_t slash = value.find('/');
      if (slash == std::string::npos ||
          !ParseDouble(value.substr(0, slash), &plan.heartbeat_interval) ||
          !ParseDouble(value.substr(slash + 1), &plan.heartbeat_timeout) ||
          plan.heartbeat_interval <= 0 || plan.heartbeat_timeout <= 0) {
        return Status::InvalidArgument("hb expects I/T: " + value);
      }
    } else if (key == "stall") {
      if (!ParseDouble(value, &plan.stall_timeout) ||
          plan.stall_timeout <= 0) {
        return Status::InvalidArgument("stall expects a positive duration: " +
                                       value);
      }
    } else if (key == "retry") {
      // B/N
      size_t slash = value.find('/');
      if (slash == std::string::npos ||
          !ParseDouble(value.substr(0, slash), &plan.retry_backoff) ||
          !ParseInt(value.substr(slash + 1), &plan.max_broadcast_retries) ||
          plan.retry_backoff <= 0 || plan.max_broadcast_retries < 0) {
        return Status::InvalidArgument("retry expects B/N: " + value);
      }
    } else if (key == "rto") {
      if (!ParseDouble(value, &plan.retransmit_delay) ||
          plan.retransmit_delay <= 0) {
        return Status::InvalidArgument("rto expects a positive duration: " +
                                       value);
      }
    } else if (key == "ckpt") {
      if (!ParseInt(value, &plan.checkpoint_every) ||
          plan.checkpoint_every < 0) {
        return Status::InvalidArgument("ckpt expects a non-negative step "
                                       "count: " + value);
      }
    } else if (key == "attempts") {
      if (!ParseInt(value, &plan.max_attempts) || plan.max_attempts < 1) {
        return Status::InvalidArgument("attempts expects a positive count: " +
                                       value);
      }
    } else {
      return Status::InvalidArgument("unknown fault spec key: " + key);
    }
  }
  return plan;
}

}  // namespace mitos::sim
