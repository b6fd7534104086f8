// Shared-memory job queue (paper §3, steps 5-6 of Fig. 3).
//
// The HAL enqueues job descriptors — the addresses of the parameter and
// status structures — into a ring buffer that lives in the CPU-FPGA shared
// region; the Job Distributor on the FPGA polls it and hands descriptors
// to idle engines. The ring is single-producer (the HAL serializes
// submissions) / single-consumer (the distributor).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "common/status.h"
#include "mem/arena.h"

namespace doppio {

/// One cache line per descriptor, as the hardware reads them.
struct alignas(64) JobDescriptor {
  uint64_t params_addr = 0;  // JobParams* in shared/host memory
  uint64_t status_addr = 0;  // JobStatus*
  uint64_t job_id = 0;
  uint64_t reserved[5] = {0, 0, 0, 0, 0};
};
static_assert(sizeof(JobDescriptor) == 64, "descriptor must be one line");

class SharedJobQueue {
 public:
  /// Creates a ring of `capacity` descriptors inside `arena` (or on the
  /// heap when arena is null — device-only tests).
  static Result<std::unique_ptr<SharedJobQueue>> Create(SharedArena* arena,
                                                        int capacity = 64);
  ~SharedJobQueue();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(SharedJobQueue);

  /// Software side: enqueues a descriptor; false when the ring is full
  /// (the HAL retries / reports back-pressure).
  bool Push(const JobDescriptor& descriptor);

  /// Hardware side: dequeues the oldest descriptor; false when empty.
  bool Pop(JobDescriptor* out);

  bool Empty() const;
  bool Full() const;
  /// Descriptors currently in flight (pushed, not yet popped). Racy by
  /// nature across the producer/consumer, exact from either side alone;
  /// used for queue-depth metrics.
  int64_t Size() const {
    return head_->load(std::memory_order_acquire) -
           tail_->load(std::memory_order_acquire);
  }
  int capacity() const { return capacity_; }
  /// Base address of the ring storage (published through the DSM).
  const void* ring_address() const { return slots_; }

 private:
  SharedJobQueue(SharedArena* arena, PageRun run, int capacity);

  SharedArena* arena_;
  PageRun run_;
  int capacity_;
  // Layout inside the shared allocation: [head][tail][slots...]; head and
  // tail each own a cache line.
  std::atomic<int64_t>* head_;  // next write position (producer)
  std::atomic<int64_t>* tail_;  // next read position (consumer)
  JobDescriptor* slots_;
  uint8_t* heap_fallback_ = nullptr;
};

}  // namespace doppio
