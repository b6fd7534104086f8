// Multi-device topology: a pool of N simulated HARP devices behind one
// CPU-side pinned shared region.
//
// Each pool member is a full FpgaDevice — its own virtual clock domain
// (SimScheduler), job ring, Job Distributor, memory arbiter, QPI endpoint
// and fault plan. The devices share the host arena (the paper's pinned
// CPU-FPGA region: one physical memory, N coherent links into it) and the
// host thread pool that accelerates the functional pass. Nothing about a
// single FpgaDevice changes: a pool of one wraps exactly the device the
// paper models, and every direct-submit code path keeps addressing it as
// device 0.
//
// The pool adds the topology-level services sharded execution needs:
//
//  * placement — ShardCounts() splits a partitioned submission's slices
//    across devices proportional to each device's currently free engines
//    (largest-remainder apportionment, lowest-index tiebreak: fully
//    deterministic for a given pool state);
//  * occupancy — callers account in-flight slices per device through
//    NoteInflight(), which free_engines() subtracts, so concurrent waves
//    see each other's load;
//  * observability — per-device doppio.hw.device.<i>.* counters (slices,
//    rows, jobs stolen in/out) and an inflight gauge, registered once at
//    pool construction.
//
// Clock domains are independent: device i's virtual now() only advances
// while a host thread waits on device i. There is no pool-wide total
// order of events across devices — cross-device time comparisons are
// meaningless, and per-query timing must be computed per clock domain and
// then reduced (see ExecuteScanPlan in db/hudf.h). MaxNow() exists only as a
// monotone pool-wide progress marker for throughput accounting.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "hw/device_config.h"
#include "hw/fpga_device.h"
#include "mem/arena.h"

namespace doppio {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

struct DevicePoolOptions {
  /// Pool size. 1 reproduces the paper's single-device deployment exactly.
  int num_devices = 1;

  /// Template configuration every device is built from. Program geometry
  /// (PUs, character matchers, state nodes) is uniform across the pool so
  /// one compiled configuration vector runs on any member.
  DeviceConfig device;

  /// Per-device fault plans (index i overrides `device.faults` for device
  /// i). Shorter than num_devices: remaining devices use the template's
  /// plan. Lets tests stall or degrade one pool member while the rest
  /// stay healthy.
  std::vector<FaultPlan> device_faults;

  /// Per-device engine-count overrides (0 or missing = template count).
  /// Engine count is deployment topology, not program geometry, so a
  /// heterogeneous pool still runs one compiled program everywhere.
  std::vector<int> device_engines;
};

class DevicePool {
 public:
  /// `arena`/`pool` are shared by every member device (one pinned region,
  /// one functional-pass host pool); both may be null for self-contained
  /// tests, exactly as with a bare FpgaDevice.
  DevicePool(const DevicePoolOptions& options, SharedArena* arena = nullptr,
             ThreadPool* pool = nullptr);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(DevicePool);

  int size() const { return static_cast<int>(devices_.size()); }
  FpgaDevice* device(int i) {
    return devices_[static_cast<size_t>(i)]->device.get();
  }
  const FpgaDevice* device(int i) const {
    return devices_[static_cast<size_t>(i)]->device.get();
  }

  /// Engines across the whole pool — the natural default partition count
  /// for a pooled submission (one slice per engine, paper §7.5 scaled out).
  int total_engines() const { return total_engines_; }

  /// Engines on device i not currently claimed by an in-flight slice
  /// (never negative). Devices with zero free engines still get work when
  /// the whole pool is busy — ShardCounts falls back to equal weights.
  int free_engines(int i) const;

  /// In-flight slice accounting, kept by the scan executor. Mirrored
  /// into the doppio.hw.device.<i>.in_flight gauge.
  void NoteInflight(int i, int delta);

  /// Splits `slices` across the pool proportional to free engines
  /// (largest-remainder method, lowest index wins ties). All-zero free
  /// engines degrade to equal weights. Deterministic for a given state;
  /// returns one count per device summing to `slices`.
  std::vector<int> ShardCounts(int slices) const;

  /// Pool-wide monotone progress marker: max virtual now() across clock
  /// domains. NOT a global clock — see the header comment.
  SimTime MaxNow() const;

  /// One slice executed (or degraded) on device i over `rows` strings.
  void NoteSlice(int i, int64_t rows);

  /// A queued slice moved from `victim`'s backlog to idle device `thief`.
  void NoteSteal(int victim, int thief);

  // Cumulative per-device counters (test/diagnostic view of the
  // doppio.hw.device.<i>.* metrics).
  int64_t slices_executed(int i) const;
  int64_t rows_executed(int i) const;
  int64_t steals_in(int i) const;
  int64_t steals_out(int i) const;

 private:
  struct PerDevice {
    std::unique_ptr<FpgaDevice> device;
    std::atomic<int> inflight{0};
    obs::Counter* slices = nullptr;
    obs::Counter* rows = nullptr;
    obs::Counter* steals_in = nullptr;
    obs::Counter* steals_out = nullptr;
    obs::Gauge* inflight_gauge = nullptr;
  };

  std::vector<std::unique_ptr<PerDevice>> devices_;
  int total_engines_ = 0;
};

}  // namespace doppio
