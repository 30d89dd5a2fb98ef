#include "common/logging.h"

#include <cctype>
#include <cstdio>
#include <cstring>

namespace mitos::internal_logging {

namespace {

int ParseLogLevel(const char* value) {
  if (value == nullptr || value[0] == '\0') return kWARNING;
  if (std::isdigit(static_cast<unsigned char>(value[0]))) {
    int level = std::atoi(value);
    if (level < kINFO) return kINFO;
    if (level > kFATAL) return kFATAL;
    return level;
  }
  char c =
      static_cast<char>(std::tolower(static_cast<unsigned char>(value[0])));
  switch (c) {
    case 'i': return kINFO;
    case 'w': return kWARNING;
    case 'e': return kERROR;
    case 'f': return kFATAL;
    default: return kWARNING;
  }
}

// The clock attached on this thread (the backend of the engine run this
// thread drives or works for). Per thread, so concurrent runs never read
// or clear each other's clock.
thread_local const void* g_clock_ctx = nullptr;
thread_local double (*g_clock_fn)(const void*) = nullptr;

}  // namespace

int MinLogLevel() {
  static const int level = ParseLogLevel(std::getenv("MITOS_LOG_LEVEL"));
  return level;
}

int VlogVerbosity() {
  static const int verbosity = [] {
    const char* value = std::getenv("MITOS_VLOG");
    return value == nullptr ? 0 : std::atoi(value);
  }();
  return verbosity;
}

void AttachLogClock(const void* ctx, double (*now)(const void*)) {
  g_clock_ctx = ctx;
  g_clock_fn = now;
}

void DetachLogClock(const void* ctx) {
  if (g_clock_ctx == ctx) {
    g_clock_ctx = nullptr;
    g_clock_fn = nullptr;
  }
}

bool VirtualNow(double* seconds) {
  if (g_clock_fn == nullptr) return false;
  *seconds = g_clock_fn(g_clock_ctx);
  return true;
}

LogMessage::LogMessage(const char* file, int line, Severity severity)
    : severity_(severity) {
  static const char kLetters[] = {'I', 'W', 'E', 'F'};
  stream_ << "[MITOS " << kLetters[severity];
  double now = 0;
  if (VirtualNow(&now)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.6fs", now);
    stream_ << buf;
  }
  // Basename only: full paths add noise.
  const char* base = std::strrchr(file, '/');
  stream_ << "] " << (base != nullptr ? base + 1 : file) << ':' << line
          << "] ";
}

LogMessage::~LogMessage() {
  std::cerr << stream_.str() << std::endl;
  if (severity_ == kFATAL) std::abort();
}

}  // namespace mitos::internal_logging
