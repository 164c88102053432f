// Process-global metrics registry: named monotonic counters, gauges, and
// log2-bucketed histograms that every subsystem increments directly —
// scheduler task counts, PredicateIndex cache hits, engine-cache traffic,
// ingest rows, SIMD tier, per-estimation-method call splits. One registry
// is the single sink the CLI run report, the bench harnesses, and CI
// artifacts all read, so there are never bench-only shadow counters that
// can drift from what the library actually did.
//
// Hot-path contract: a metric handle (`Counter&`, `Gauge&`, `Histogram&`)
// is resolved ONCE (typically into a function-local static) and then
// updated with a single relaxed atomic op. Handles stay valid for the
// process lifetime — Reset() zeroes values in place and never invalidates
// a handle. Names follow "section.metric"; the run report groups by the
// section prefix (util/obs/run_report.h).

#ifndef FAIRCAP_UTIL_OBS_METRICS_H_
#define FAIRCAP_UTIL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace faircap {
namespace obs {

/// Monotonic counter. Relaxed increments: exact totals, no ordering.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (bytes held, worker count, phase
/// wall seconds). Doubles cover both byte counts (exact to 2^53) and
/// timings.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

/// Power-of-two bucketed histogram for duration-like values. Bucket b
/// counts observations in (2^(b-1), 2^b] (bucket 0: <= 1). Relaxed
/// per-bucket counters, so concurrent Observe() calls are exact in total.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Observe(double value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  void Reset();
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};  // relaxed CAS-add; exact enough for report
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// The process-global registry. GetX() interns the name on first request
/// and returns a stable reference; subsequent lookups are a mutex-guarded
/// hash probe, which is why call sites cache the handle in a static.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Snapshot accessors (0 / empty histogram when the name was never
  /// registered). For tests and report writers.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  /// Zeroes every registered metric IN PLACE: outstanding handles stay
  /// valid and simply observe the new zero. Tests isolate themselves with
  /// this; the CLI never calls it (one run per process).
  void Reset();

  /// Serializes the registry as one JSON object grouped by section
  /// ("section.metric" -> {"section": {"metric": value}}). Counters emit
  /// integers, gauges doubles, histograms {"count","sum","buckets"}
  /// objects. Sections and metrics are sorted, so the output is stable
  /// for a given set of registered names.
  void WriteJson(std::ostream& out) const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace obs
}  // namespace faircap

#endif  // FAIRCAP_UTIL_OBS_METRICS_H_
