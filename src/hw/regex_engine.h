// Regex Engine (paper §5): String Reader -> 16 PUs -> Output Collector.
//
// Execution is split into two coupled passes over the same block structure:
//  * the *functional* pass computes every string's 16-bit match index(es)
//    in input order and writes them into the result column. The PU
//    consumes one byte per cycle whatever the pattern, so any exact kernel
//    may compute the function (docs/PU_SEMANTICS.md, "Kernel selection"):
//    the job's program runs through the host backend the kernel-backend
//    registry picks for it (hw/kernel_backend.h), the same kernels a host
//    slice uses. Large jobs fan the blocks out over host threads, one
//    execution per worker for the whole job;
//  * the *timing* pass replays the block's cache-line traffic (offset
//    phase, heap phase, result lines) through the arbiter/QPI model on the
//    virtual clock, and paces the PUs at one byte per 400 MHz cycle. It
//    never observes which kernel computed the results.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/sim_scheduler.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "hw/arbiter.h"
#include "hw/device_config.h"
#include "hw/job.h"
#include "obs/metrics.h"

namespace doppio {

class RegexEngine {
 public:
  /// `pool` may be null (strictly single-threaded functional pass).
  RegexEngine(int id, const DeviceConfig& device, Arbiter* arbiter,
              SimScheduler* scheduler, ThreadPool* pool);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(RegexEngine);

  bool idle() const { return !busy_; }
  int id() const { return id_; }

  /// Starts `params` at the scheduler's current virtual time. The result
  /// column is filled immediately (functional pass); `status` fields and
  /// the done bit are updated when the virtual-time execution finishes, at
  /// which point `on_done` fires (on the scheduler).
  Status Start(JobParams* params, JobStatus* status,
               std::function<void()> on_done);

  /// Strings-per-host-thread threshold above which the functional pass
  /// parallelizes.
  static constexpr int64_t kParallelThreshold = 1 << 16;

 private:
  struct BlockTiming {
    int64_t offset_lines;
    int64_t heap_lines;
    int64_t string_bytes;
  };
  /// One timing event's worth of traffic. Transfers are capped at
  /// kChunkLines per virtual-time event so that concurrent engines
  /// interleave on the shared link instead of serializing whole reader
  /// blocks against each other.
  struct Chunk {
    int64_t lines;
    int64_t pu_bytes;  // payload the PUs chew on from this chunk
  };
  static constexpr int64_t kChunkLines = 2048;

  Status RunFunctional(JobParams* params, JobStatus* status,
                       std::vector<BlockTiming>* blocks);
  void BuildChunks();
  void ScheduleNextChunk(size_t chunk_index);
  void Finalize();

  int id_;
  DeviceConfig device_;
  Arbiter* arbiter_;
  SimScheduler* scheduler_;
  ThreadPool* pool_;

  // In-flight job state.
  bool busy_ = false;
  JobParams* params_ = nullptr;
  JobStatus* status_ = nullptr;
  std::function<void()> on_done_;
  std::vector<BlockTiming> blocks_;
  std::vector<Chunk> chunks_;
  SimTime pu_done_ = 0;

  // Per-engine instruments, resolved once at construction ("doppio.engine.
  // <id>.*"); updates are a single relaxed RMW per completed job.
  obs::Counter* metric_jobs_ = nullptr;
  obs::Counter* metric_bytes_ = nullptr;
  obs::Histogram* metric_functional_mbps_ = nullptr;
};

}  // namespace doppio
