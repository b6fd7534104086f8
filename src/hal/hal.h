// Hardware Operator Abstraction Layer (paper §4.2).
//
// The HAL sits between the HUDF in the database and the Regex Engines: it
// bootstraps the (simulated) FPGA, owns the pinned CPU-FPGA shared region
// with its slab allocator, and provides the job API — create, execute and
// monitor jobs through shared-memory parameter/status structures and a job
// queue.
#pragma once

#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "bat/bat.h"
#include "bat/buffer.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "hal/aal.h"
#include "hal/job.h"
#include "hal/job_lifecycle.h"
#include "hw/config_compiler.h"
#include "hw/device_config.h"
#include "hw/device_pool.h"
#include "hw/fpga_device.h"
#include "mem/arena.h"
#include "mem/slab_allocator.h"

namespace doppio {

/// Allocator handed to MonetDB (§4.2.1). Two views exist over the same
/// slab: the *generic* view keeps requests below `malloc_threshold`
/// (16 KB: metadata and auxiliary structures the FPGA never touches) on
/// malloc, while the *BAT* view (threshold 0) places every BAT in the
/// shared region "even if their size is smaller than 256 KB".
class HalAllocator : public BufferAllocator {
 public:
  HalAllocator(SlabAllocator* slab, int64_t malloc_threshold = 16 * 1024);

  Result<void*> Allocate(int64_t bytes) override;
  Status Free(void* ptr) override;

  int64_t malloc_allocations() const { return malloc_allocs_; }
  int64_t shared_allocations() const { return shared_allocs_; }

 private:
  SlabAllocator* slab_;
  int64_t malloc_threshold_;
  std::mutex mutex_;
  std::set<void*> malloced_;
  int64_t malloc_allocs_ = 0;
  int64_t shared_allocs_ = 0;
};

class Hal {
 public:
  struct Options {
    /// Size of the pinned shared region; the prototype caps this at 4 GB
    /// after the paper's kernel-module change.
    int64_t shared_memory_bytes = int64_t{512} << 20;
    DeviceConfig device;
    /// Simulated devices behind this HAL. 1 (the default) is the paper's
    /// deployment and keeps every direct-submit path byte-identical;
    /// larger pools shard partitioned submissions across devices (see
    /// hw/device_pool.h and ExecuteScanPlan in db/hudf.h).
    int num_devices = 1;
    /// Per-device fault-plan overrides (index i replaces `device.faults`
    /// for pool member i; shorter vectors leave the rest on the template
    /// plan).
    std::vector<FaultPlan> device_faults;
    /// Host threads for the simulator's functional pass (0 = hardware
    /// concurrency).
    int functional_threads = 0;
    /// Deadline / retry / backoff policy applied by the HUDF when waiting
    /// on jobs. Defaults are generous enough that a fault-free device
    /// never expires a deadline.
    RetryPolicy retry;
  };

  explicit Hal(const Options& options);
  ~Hal();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(Hal);

  /// Generic allocator (metadata < 16 KB stays on malloc).
  HalAllocator* allocator() { return allocator_.get(); }
  /// BAT allocator: every request lands in the shared region, so even
  /// tiny BATs are FPGA-visible.
  HalAllocator* bat_allocator() { return bat_allocator_.get(); }
  /// The bootstrapped AAL session of device 0 (AFU handshake done, DSM
  /// live). Every pool member holds its own session; see aal(int).
  AalSession* aal() { return aal_sessions_.front().get(); }
  AalSession* aal(int i) { return aal_sessions_[static_cast<size_t>(i)].get(); }
  SharedArena* arena() { return arena_.get(); }
  /// Device 0 — the paper's direct-submit target. Single-device call
  /// sites keep this handle; pool-aware paths go through pool().
  FpgaDevice* device() { return pool_->device(0); }
  /// The full device topology behind this HAL.
  DevicePool* pool() { return pool_.get(); }
  /// Template configuration every pool member was built from. Program
  /// geometry (PUs, character matchers, states) is uniform across the
  /// pool, so compiling and cost-modeling against the template is always
  /// correct; per-device engine counts can differ — occupancy-sensitive
  /// code must read pool()->device(i)->config().
  const DeviceConfig& device_config() const { return options_.device; }
  const RetryPolicy& retry_policy() const { return options_.retry; }

  /// Creates and enqueues a regex job over a string BAT (steps 3-5 of
  /// Fig. 3). `result` must be a kInt16 BAT pre-sized to input.count()
  /// and allocated through allocator() (the engine writes straight into
  /// its tail). Returns a handle to monitor the job.
  Result<FpgaJob> CreateRegexJob(const Bat& input, Bat* result,
                                 const RegexConfig& config);

  /// Builds the shared-memory parameter block for a regex job without
  /// submitting it. The fault-tolerant lifecycle (hal/job_lifecycle.h)
  /// needs the params to outlive a single Submit so an expired attempt
  /// can be resubmitted.
  Result<JobParams> BuildRegexJobParams(const Bat& input, Bat* result,
                                        const RegexConfig& config) const;

  /// Compiles a pattern against the deployed geometry (fpga_regex_get_config).
  Result<RegexConfig> CompileConfig(std::string_view pattern,
                                    const CompileOptions& options = {}) {
    return CompileRegexConfig(pattern, options_.device, options);
  }

 private:
  Options options_;
  std::unique_ptr<SharedArena> arena_;
  std::unique_ptr<SlabAllocator> slab_;
  std::unique_ptr<HalAllocator> allocator_;
  std::unique_ptr<HalAllocator> bat_allocator_;
  std::unique_ptr<ThreadPool> thread_pool_;
  std::unique_ptr<DevicePool> pool_;
  std::vector<std::unique_ptr<AalSession>> aal_sessions_;
};

}  // namespace doppio
