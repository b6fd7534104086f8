// Process-wide metrics registry (counters, gauges, fixed-bucket
// histograms) for the job path: HAL queue depth, job latency, retries,
// fallback rows, per-engine utilization, functional throughput.
//
// Design constraints, in order:
//  * updates are lock-free (one relaxed atomic RMW) so instrumented sites
//    in the HAL/device can stay on without perturbing measurements;
//  * instruments are registered once under a mutex and cached at the call
//    site (function-local static), so steady state never takes the lock;
//  * scraping (ToJson) reads atomics only — safe to run from a
//    monitoring thread while queries execute (covered by the TSan CI job).
//
// All metrics are cumulative over the process lifetime; with multiple HAL
// instances in one process the per-engine series aggregate per engine id.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"

namespace doppio {
namespace obs {

class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// an implicit overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(Histogram);

  void Observe(double value);

  int64_t TotalCount() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<int64_t> BucketCounts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  /// Sum in micro-units to keep the hot path a single integer fetch_add
  /// (atomic<double>::fetch_add compiles to a CAS loop on x86).
  std::atomic<int64_t> sum_micros_{0};
};

/// Exponential latency buckets, 1 µs .. ~100 s.
std::vector<double> LatencySecondsBuckets();
/// Small-integer depth buckets, 0 .. 64.
std::vector<double> DepthBuckets();
/// Throughput buckets in MB/s, 1 .. ~16k.
std::vector<double> MbpsBuckets();
/// Byte-size buckets, 4 KiB .. ~4 GiB (segment/page-in sizes).
std::vector<double> BytesBuckets();

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented site uses.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  DOPPIO_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  /// Returns the named instrument, creating it on first use. The pointer
  /// is stable for the registry's lifetime; cache it. Requesting an
  /// existing name with a different kind returns nullptr.
  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds,
                          std::string_view help = "");

  /// JSON export: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;

  /// Zeroes every instrument (pointers stay valid). Test/bench isolation.
  void ResetAll();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace obs
}  // namespace doppio
