#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace doppio {
namespace obs {

namespace {
constexpr double kSumScale = 1e6;  // micro-units per unit
}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  if (!std::isfinite(value)) value = 0;
  // Branchless-ish upper_bound over a handful of bounds; the vector is
  // small (<= ~24 entries) so a linear/binary scan is cache-resident.
  // lower_bound: first bound >= value, so bounds act as inclusive upper
  // bounds (the Prometheus `le` convention the header documents).
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(static_cast<int64_t>(value * kSumScale),
                        std::memory_order_relaxed);
}

int64_t Histogram::TotalCount() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const {
  return sum_micros_.load(std::memory_order_relaxed) / kSumScale;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
}

std::vector<double> LatencySecondsBuckets() {
  // 1us, 4us, 16us, ... x4 steps up to ~100s.
  std::vector<double> b;
  for (double v = 1e-6; v < 200.0; v *= 4.0) b.push_back(v);
  return b;
}

std::vector<double> DepthBuckets() {
  return {0, 1, 2, 4, 8, 16, 32, 64};
}

std::vector<double> MbpsBuckets() {
  std::vector<double> b;
  for (double v = 1.0; v < 3.0e4; v *= 2.0) b.push_back(v);
  return b;
}

std::vector<double> BytesBuckets() {
  std::vector<double> b;
  for (double v = 4096.0; v < 5.0e9; v *= 4.0) b.push_back(v);
  return b;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == Kind::kCounter ? it->second.counter.get()
                                             : nullptr;
  }
  Entry entry;
  entry.kind = Kind::kCounter;
  entry.help = std::string(help);
  entry.counter = std::make_unique<Counter>();
  Counter* raw = entry.counter.get();
  entries_.emplace(std::string(name), std::move(entry));
  return raw;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == Kind::kGauge ? it->second.gauge.get() : nullptr;
  }
  Entry entry;
  entry.kind = Kind::kGauge;
  entry.help = std::string(help);
  entry.gauge = std::make_unique<Gauge>();
  Gauge* raw = entry.gauge.get();
  entries_.emplace(std::string(name), std::move(entry));
  return raw;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == Kind::kHistogram ? it->second.histogram.get()
                                               : nullptr;
  }
  Entry entry;
  entry.kind = Kind::kHistogram;
  entry.help = std::string(help);
  entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* raw = entry.histogram.get();
  entries_.emplace(std::string(name), std::move(entry));
  return raw;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, entry] : entries_) {
    if (entry.kind == Kind::kCounter) w.Field(name, entry.counter->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, entry] : entries_) {
    if (entry.kind == Kind::kGauge) w.Field(name, entry.gauge->Value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, entry] : entries_) {
    if (entry.kind != Kind::kHistogram) continue;
    const Histogram& h = *entry.histogram;
    w.Key(name).BeginObject();
    w.Field("count", h.TotalCount());
    w.Field("sum", h.Sum());
    w.Key("bounds").BeginArray();
    for (double b : h.bounds()) w.Double(b);
    w.EndArray();
    w.Key("buckets").BeginArray();
    for (int64_t c : h.BucketCounts()) w.Int(c);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter: entry.counter->Reset(); break;
      case Kind::kGauge: entry.gauge->Reset(); break;
      case Kind::kHistogram: entry.histogram->Reset(); break;
    }
  }
}

}  // namespace obs
}  // namespace doppio
