#include "hw/device_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {

DevicePool::DevicePool(const DevicePoolOptions& options, SharedArena* arena,
                       ThreadPool* pool) {
  DOPPIO_CHECK(options.num_devices >= 1);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int i = 0; i < options.num_devices; ++i) {
    DeviceConfig config = options.device;
    if (i < static_cast<int>(options.device_faults.size())) {
      config.faults = options.device_faults[static_cast<size_t>(i)];
    }
    if (i < static_cast<int>(options.device_engines.size()) &&
        options.device_engines[static_cast<size_t>(i)] > 0) {
      config.num_engines = options.device_engines[static_cast<size_t>(i)];
    }
    auto entry = std::make_unique<PerDevice>();
    entry->device =
        std::make_unique<FpgaDevice>(config, arena, pool, /*device_id=*/i);
    const std::string prefix =
        "doppio.hw.device." + std::to_string(i) + ".";
    entry->slices = registry.GetCounter(
        prefix + "slices", "job slices executed (or degraded) on this device");
    entry->rows = registry.GetCounter(
        prefix + "rows", "strings covered by this device's slices");
    entry->steals_in = registry.GetCounter(
        prefix + "steals_in",
        "queued slices this device stole from a busy device");
    entry->steals_out = registry.GetCounter(
        prefix + "steals_out",
        "queued slices stolen away from this device's backlog");
    // "in_flight", not "inflight": exported documents are asserted free of
    // the substring "inf" (NaN/Inf leak guards in obs tests).
    entry->inflight_gauge = registry.GetGauge(
        prefix + "in_flight", "slices submitted and not yet completed");
    total_engines_ += config.num_engines;
    devices_.push_back(std::move(entry));
  }
}

int DevicePool::free_engines(int i) const {
  const PerDevice& entry = *devices_[static_cast<size_t>(i)];
  const int engines = entry.device->config().num_engines;
  const int inflight = entry.inflight.load(std::memory_order_relaxed);
  return std::max(0, engines - inflight);
}

void DevicePool::NoteInflight(int i, int delta) {
  PerDevice& entry = *devices_[static_cast<size_t>(i)];
  entry.inflight.fetch_add(delta, std::memory_order_relaxed);
  entry.inflight_gauge->Set(entry.inflight.load(std::memory_order_relaxed));
}

std::vector<int> DevicePool::ShardCounts(int slices) const {
  const int n = size();
  std::vector<int> counts(static_cast<size_t>(n), 0);
  if (slices <= 0) return counts;

  std::vector<int> weights(static_cast<size_t>(n), 0);
  int total_weight = 0;
  for (int i = 0; i < n; ++i) {
    weights[static_cast<size_t>(i)] = free_engines(i);
    total_weight += weights[static_cast<size_t>(i)];
  }
  if (total_weight == 0) {
    // Everything busy: apportion by equal weight so no device is starved
    // of backlog (stealing rebalances later anyway).
    std::fill(weights.begin(), weights.end(), 1);
    total_weight = n;
  }

  // Largest-remainder apportionment: floor each share, then hand the
  // leftover slices to the largest fractional parts, lowest index first.
  int assigned = 0;
  std::vector<int64_t> remainder_num(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const int64_t num =
        static_cast<int64_t>(slices) * weights[static_cast<size_t>(i)];
    counts[static_cast<size_t>(i)] = static_cast<int>(num / total_weight);
    remainder_num[static_cast<size_t>(i)] = num % total_weight;
    assigned += counts[static_cast<size_t>(i)];
  }
  int leftover = slices - assigned;
  while (leftover > 0) {
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (best < 0 || remainder_num[static_cast<size_t>(i)] >
                          remainder_num[static_cast<size_t>(best)]) {
        best = i;
      }
    }
    ++counts[static_cast<size_t>(best)];
    remainder_num[static_cast<size_t>(best)] = -1;  // consumed
    --leftover;
  }
  return counts;
}

SimTime DevicePool::MaxNow() const {
  SimTime now = 0;
  for (const auto& entry : devices_) {
    now = std::max(now, entry->device->now());
  }
  return now;
}

void DevicePool::NoteSlice(int i, int64_t rows) {
  PerDevice& entry = *devices_[static_cast<size_t>(i)];
  entry.slices->Add();
  entry.rows->Add(rows);
}

void DevicePool::NoteSteal(int victim, int thief) {
  devices_[static_cast<size_t>(victim)]->steals_out->Add();
  devices_[static_cast<size_t>(thief)]->steals_in->Add();
}

int64_t DevicePool::slices_executed(int i) const {
  return devices_[static_cast<size_t>(i)]->slices->Value();
}
int64_t DevicePool::rows_executed(int i) const {
  return devices_[static_cast<size_t>(i)]->rows->Value();
}
int64_t DevicePool::steals_in(int i) const {
  return devices_[static_cast<size_t>(i)]->steals_in->Value();
}
int64_t DevicePool::steals_out(int i) const {
  return devices_[static_cast<size_t>(i)]->steals_out->Value();
}

}  // namespace doppio
