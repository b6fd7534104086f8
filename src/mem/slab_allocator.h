// Slab allocator over the CPU-FPGA shared arena (paper §4.2.1).
//
// The HAL manages the pinned shared region with a slab allocator holding
// one free list per size class. MonetDB is redirected to this allocator for
// every BAT so that even tiny BATs live in FPGA-visible memory; requests
// below 16 KB are metadata and stay on malloc (handled by the caller, see
// hal::Hal::Allocate).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mem/arena.h"

namespace doppio {

struct SlabStats {
  int64_t allocations = 0;
  int64_t frees = 0;
  int64_t bytes_requested = 0;
  int64_t bytes_handed_out = 0;  // including size-class rounding
  int64_t slabs_created = 0;
};

class SlabAllocator {
 public:
  /// Size classes double from `min_class_bytes` (default 16 KiB) up to the
  /// page size; larger requests are served as whole page runs.
  explicit SlabAllocator(SharedArena* arena,
                         int64_t min_class_bytes = 16 * 1024);
  ~SlabAllocator();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(SlabAllocator);

  /// Allocates `bytes` from shared memory, rounded up to the best-fitting
  /// slab class. All returned pointers are 64-byte (cache-line) aligned.
  Result<void*> Allocate(int64_t bytes);

  /// Releases a pointer previously returned by Allocate.
  Status Free(void* ptr);

  /// Size class an allocation of `bytes` would be served from (page-run
  /// allocations report their rounded page size).
  int64_t ClassForSize(int64_t bytes) const;

  SlabStats stats() const;

 private:
  struct Allocation {
    int64_t size_class;   // bytes handed out
    int64_t class_index;  // -1 for whole-page-run allocations
    PageRun run;          // valid only for page-run allocations
  };

  Result<void*> AllocateFromClass(size_t class_index);

  SharedArena* arena_;
  std::vector<int64_t> class_sizes_;

  mutable std::mutex mutex_;
  std::vector<std::vector<void*>> free_lists_;  // per class
  std::map<void*, Allocation> live_;            // ptr -> bookkeeping
  std::vector<PageRun> slab_pages_;             // pages backing small classes
  SlabStats stats_;
};

}  // namespace doppio
