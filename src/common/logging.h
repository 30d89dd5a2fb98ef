// Logging and invariant-checking utilities for Mitos.
//
// Following Google style we do not use exceptions in core paths. Invariant
// violations abort with a readable message; recoverable errors use
// mitos::Status (see status.h).
//
// Leveled diagnostics (all env-gated, default silent except WARNING+):
//   MITOS_LOG(INFO) << "...";     severities INFO, WARNING, ERROR, FATAL
//   MITOS_VLOG(2)   << "...";     verbose logging at level n
// Environment:
//   MITOS_LOG_LEVEL=info|warning|error|fatal (or 0-3): minimum severity
//       printed. Default: warning. FATAL always prints and aborts.
//   MITOS_VLOG=N: print MITOS_VLOG(n) for n <= N. Default 0 (off).
// When a run's clock is attached to the logging thread (api::Run does this
// on its calling thread, and every ThreadsBackend worker on its own), log
// lines are stamped with the run's time, e.g. "[MITOS I 1.204s]".
#ifndef MITOS_COMMON_LOGGING_H_
#define MITOS_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace mitos {
namespace internal_logging {

// Severity values are macro-pasted: MITOS_LOG(INFO) -> kINFO.
enum Severity { kINFO = 0, kWARNING = 1, kERROR = 2, kFATAL = 3 };

// Minimum severity printed by MITOS_LOG, cached from MITOS_LOG_LEVEL.
int MinLogLevel();
// Verbosity for MITOS_VLOG, cached from MITOS_VLOG.
int VlogVerbosity();

// Run-clock hook, per thread: when attached, log lines written on this
// thread carry the clock's seconds. `now` must be a capture-free callable;
// `ctx` identifies the owner so a stale detach (from a different backend)
// is a no-op.
void AttachLogClock(const void* ctx, double (*now)(const void*));
void DetachLogClock(const void* ctx);
// True when a clock is attached on this thread; *seconds receives its
// current time.
bool VirtualNow(double* seconds);

// Accumulates one log line and writes it to stderr when destroyed;
// aborts for kFATAL.
class LogMessage {
 public:
  LogMessage(const char* file, int line, Severity severity);
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
  Severity severity_;
};

// Accumulates a message and aborts the process when destroyed. Used as the
// right-hand side of the MITOS_CHECK macros; never instantiate directly.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition) {
    stream_ << "[MITOS FATAL] " << file << ":" << line << " Check failed: "
            << condition << " ";
  }

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  ~FatalMessage() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Enables `MITOS_CHECK(x) << "detail"` to compile in both branches of the
// ternary used below.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace mitos

// Aborts with a message when `condition` is false. Streams extra detail:
//   MITOS_CHECK(a == b) << "a=" << a;
#define MITOS_CHECK(condition)                                              \
  (condition) ? (void)0                                                     \
              : ::mitos::internal_logging::Voidify() &                      \
                    ::mitos::internal_logging::FatalMessage(__FILE__,       \
                                                            __LINE__,       \
                                                            #condition)     \
                        .stream()

#define MITOS_CHECK_EQ(a, b) MITOS_CHECK((a) == (b))
#define MITOS_CHECK_NE(a, b) MITOS_CHECK((a) != (b))
#define MITOS_CHECK_LT(a, b) MITOS_CHECK((a) < (b))
#define MITOS_CHECK_LE(a, b) MITOS_CHECK((a) <= (b))
#define MITOS_CHECK_GT(a, b) MITOS_CHECK((a) > (b))
#define MITOS_CHECK_GE(a, b) MITOS_CHECK((a) >= (b))

// Marks unreachable code paths.
#define MITOS_UNREACHABLE() \
  MITOS_CHECK(false) << "unreachable code reached"

// True when a MITOS_LOG(severity) statement would print.
#define MITOS_LOG_IS_ON(severity)                 \
  (::mitos::internal_logging::k##severity >=     \
   ::mitos::internal_logging::MinLogLevel())

// Leveled logging: MITOS_LOG(INFO) << "msg". The stream expression is not
// evaluated when the severity is below the threshold.
#define MITOS_LOG(severity)                                                 \
  !MITOS_LOG_IS_ON(severity)                                                \
      ? (void)0                                                             \
      : ::mitos::internal_logging::Voidify() &                              \
            ::mitos::internal_logging::LogMessage(                          \
                __FILE__, __LINE__,                                         \
                ::mitos::internal_logging::k##severity)                     \
                .stream()

#define MITOS_VLOG_IS_ON(n) \
  ((n) <= ::mitos::internal_logging::VlogVerbosity())

// Verbose logging: MITOS_VLOG(2) << "msg", printed when MITOS_VLOG >= 2.
#define MITOS_VLOG(n)                                                       \
  !MITOS_VLOG_IS_ON(n)                                                      \
      ? (void)0                                                             \
      : ::mitos::internal_logging::Voidify() &                              \
            ::mitos::internal_logging::LogMessage(                          \
                __FILE__, __LINE__, ::mitos::internal_logging::kINFO)       \
                .stream()

#endif  // MITOS_COMMON_LOGGING_H_
