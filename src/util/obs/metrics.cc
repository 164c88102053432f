#include "util/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {
namespace obs {

void Histogram::Observe(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS-add keeps the sum exact under concurrency (fetch_add on
  // atomic<double> is C++20; this is the portable C++17 spelling).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  size_t b = 0;
  if (value > 1.0) {
    b = static_cast<size_t>(std::ceil(std::log2(value)));
    if (b >= kBuckets) b = kBuckets - 1;
  }
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl {
  mutable Mutex mu;
  // Heap-allocated metrics owned by the deques: handed-out references
  // stay valid as the registry grows, and the atomic members (which make
  // the types immovable) never need to relocate. The registration state
  // is guarded by mu; the metric objects themselves are atomic and are
  // deliberately updated lock-free through the handed-out references.
  std::deque<std::unique_ptr<Counter>> counters GUARDED_BY(mu);
  std::deque<std::unique_ptr<Gauge>> gauges GUARDED_BY(mu);
  std::deque<std::unique_ptr<Histogram>> histograms GUARDED_BY(mu);
  std::unordered_map<std::string, Counter*> counter_by_name GUARDED_BY(mu);
  std::unordered_map<std::string, Gauge*> gauge_by_name GUARDED_BY(mu);
  std::unordered_map<std::string, Histogram*> histogram_by_name GUARDED_BY(mu);
};

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metrics handles are cached in static locals all
  // over the library and may be touched during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  Impl& i = impl();
  MutexLock lock(i.mu);
  auto it = i.counter_by_name.find(name);
  if (it != i.counter_by_name.end()) return *it->second;
  i.counters.emplace_back(new Counter());
  i.counter_by_name.emplace(name, i.counters.back().get());
  return *i.counters.back();
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  Impl& i = impl();
  MutexLock lock(i.mu);
  auto it = i.gauge_by_name.find(name);
  if (it != i.gauge_by_name.end()) return *it->second;
  i.gauges.emplace_back(new Gauge());
  i.gauge_by_name.emplace(name, i.gauges.back().get());
  return *i.gauges.back();
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& i = impl();
  MutexLock lock(i.mu);
  auto it = i.histogram_by_name.find(name);
  if (it != i.histogram_by_name.end()) return *it->second;
  i.histograms.emplace_back(new Histogram());
  i.histogram_by_name.emplace(name, i.histograms.back().get());
  return *i.histograms.back();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  Impl& i = impl();
  MutexLock lock(i.mu);
  const auto it = i.counter_by_name.find(name);
  return it == i.counter_by_name.end() ? 0 : it->second->value();
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  Impl& i = impl();
  MutexLock lock(i.mu);
  const auto it = i.gauge_by_name.find(name);
  return it == i.gauge_by_name.end() ? 0.0 : it->second->value();
}

void MetricsRegistry::Reset() {
  Impl& i = impl();
  MutexLock lock(i.mu);
  for (auto& c : i.counters) c->Reset();
  for (auto& g : i.gauges) g->Reset();
  for (auto& h : i.histograms) h->Reset();
}

namespace {

/// JSON-escapes a metric name (names are plain identifiers in practice,
/// but the writer must never emit malformed JSON).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Splits "section.metric" at the first dot ("" section when none).
std::pair<std::string, std::string> SplitSection(const std::string& name) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return {"", name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out) const {
  Impl& i = impl();
  MutexLock lock(i.mu);
  // section -> metric -> rendered JSON value, both levels sorted by the
  // std::map so the emitted schema is stable.
  std::map<std::string, std::map<std::string, std::string>> sections;
  for (const auto& [name, counter] : i.counter_by_name) {
    const auto [section, metric] = SplitSection(name);
    sections[section][metric] = std::to_string(counter->value());
  }
  for (const auto& [name, gauge] : i.gauge_by_name) {
    const auto [section, metric] = SplitSection(name);
    sections[section][metric] = JsonDouble(gauge->value());
  }
  for (const auto& [name, hist] : i.histogram_by_name) {
    const auto [section, metric] = SplitSection(name);
    std::ostringstream os;
    os << "{\"count\":" << hist->count()
       << ",\"sum\":" << JsonDouble(hist->sum()) << ",\"buckets\":[";
    // Emit up to the last non-empty bucket; trailing zeros carry nothing.
    size_t last = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (hist->bucket(b) != 0) last = b + 1;
    }
    for (size_t b = 0; b < last; ++b) {
      os << (b == 0 ? "" : ",") << hist->bucket(b);
    }
    os << "]}";
    sections[section][metric] = os.str();
  }
  out << "{";
  bool first_section = true;
  for (const auto& [section, metrics] : sections) {
    if (!first_section) out << ",";
    first_section = false;
    out << "\"" << JsonEscape(section) << "\":{";
    bool first_metric = true;
    for (const auto& [metric, value] : metrics) {
      if (!first_metric) out << ",";
      first_metric = false;
      out << "\"" << JsonEscape(metric) << "\":" << value;
    }
    out << "}";
  }
  out << "}";
}

}  // namespace obs
}  // namespace faircap
