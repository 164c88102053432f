#include "util/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {
namespace obs {

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

namespace {

using Clock = std::chrono::steady_clock;

/// Epoch of the current tracing session. Written by EnableTracing before
/// the enabled flag flips, read by recording threads after they observe
/// the flag — the flag's load/store pair orders the accesses in practice,
/// and an early read before the first Enable just yields offsets from
/// process start, still monotone within a session.
std::atomic<int64_t> g_epoch_ns{0};

/// One thread's span buffer. Owned jointly by the thread (thread_local
/// handle) and the global registry, so events survive thread exit until
/// the flush reads them.
struct ThreadTrace {
  uint32_t tid = 0;
  /// Set by SetThreadTraceName, may be empty. Guarded by the registry's
  /// mu (readers in WriteChromeTrace hold it; the writer takes it too) —
  /// spelled as a comment because the guarding mutex lives in a different
  /// struct, outside GUARDED_BY's reach.
  std::string name;
  /// Deliberately unguarded: appended only by the owning thread, read by
  /// the flush only after every recording thread has quiesced (the
  /// scheduler joins its workers before the CLI writes the trace). A
  /// mutex here would put a lock on every span record.
  std::vector<TraceEvent> events;
};

struct TraceRegistry {
  Mutex mu;
  std::vector<std::shared_ptr<ThreadTrace>> threads GUARDED_BY(mu);
  uint32_t next_tid GUARDED_BY(mu) = 1;
};

TraceRegistry& Registry() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

/// The calling thread's buffer, registered on first use. The shared_ptr
/// copy in the registry keeps the buffer alive after the thread exits.
ThreadTrace& LocalTrace() {
  thread_local std::shared_ptr<ThreadTrace> local = [] {
    auto trace = std::make_shared<ThreadTrace>();
    TraceRegistry& reg = Registry();
    MutexLock lock(reg.mu);
    trace->tid = reg.next_tid++;
    reg.threads.push_back(trace);
    return trace;
  }();
  return *local;
}

}  // namespace

uint64_t TraceNowNs() {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  const int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  return now > epoch ? static_cast<uint64_t>(now - epoch) : 0;
}

void RecordTraceEvent(const char* name, uint64_t start_ns, uint64_t dur_ns,
                      int64_t arg) {
  LocalTrace().events.push_back(TraceEvent{name, start_ns, dur_ns, arg});
}

}  // namespace internal

void EnableTracing() {
  ClearTrace();
  internal::g_epoch_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          internal::Clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  internal::g_tracing_enabled.store(true, std::memory_order_release);
}

void DisableTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_release);
}

void ClearTrace() {
  internal::TraceRegistry& reg = internal::Registry();
  MutexLock lock(reg.mu);
  // Thread names persist (they describe the thread, not the session);
  // events belong to the session and go.
  for (auto& thread : reg.threads) thread->events.clear();
}

void SetThreadTraceName(const std::string& name) {
  // Name it through the registry lock: WriteChromeTrace reads names under
  // reg.mu, and a worker naming itself while another thread flushes the
  // trace would otherwise race on the string. Cold path (once per thread).
  internal::ThreadTrace& trace = internal::LocalTrace();
  internal::TraceRegistry& reg = internal::Registry();
  MutexLock lock(reg.mu);
  trace.name = name;
}

size_t TraceEventCount() {
  internal::TraceRegistry& reg = internal::Registry();
  MutexLock lock(reg.mu);
  size_t count = 0;
  for (const auto& thread : reg.threads) count += thread->events.size();
  return count;
}

void WriteChromeTrace(std::ostream& out) {
  internal::TraceRegistry& reg = internal::Registry();
  MutexLock lock(reg.mu);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };
  const char* const pid = "1";
  // Exact decimal microseconds: a double through the stream's default 6
  // significant digits would round spans past the first second.
  const auto micros = [](uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return std::string(buf);
  };
  for (const auto& thread : reg.threads) {
    if (thread->events.empty()) continue;
    if (!thread->name.empty()) {
      comma();
      out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << thread->tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      // Thread names are code-chosen identifiers; escape defensively.
      for (const char c : thread->name) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
      }
      out << "\"}}";
    }
    for (const internal::TraceEvent& event : thread->events) {
      comma();
      // Chrome trace timestamps are microseconds; keep ns precision via
      // the fractional part.
      out << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << thread->tid
          << ",\"ts\":" << micros(event.start_ns)
          << ",\"dur\":" << micros(event.dur_ns)
          << ",\"name\":\"" << event.name << "\"";
      if (event.arg >= 0) out << ",\"args\":{\"v\":" << event.arg << "}";
      out << "}";
    }
  }
  out << "]}";
}

Status WriteChromeTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  WriteChromeTrace(out);
  out << "\n";
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace obs
}  // namespace faircap
