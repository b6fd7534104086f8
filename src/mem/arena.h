// CPU-FPGA shared memory arena.
//
// On the HARP v1 prototype, memory shared with the FPGA is allocated through
// Intel's AAL library at 2 MB granularity, pinned to contiguous physical
// regions (the FPGA cannot take page faults), and capped — 4 GB after the
// paper's kernel-module modification. This class models that region: a
// contiguous reservation carved into 2 MiB pages, with a page table that the
// simulated FPGA consults for its (constant-cost) virtual-to-physical
// translation. Capacity is configurable so tests can exercise exhaustion
// cheaply.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mem/page_table.h"

namespace doppio {

inline constexpr int64_t kSharedPageBytes = int64_t{2} << 20;  // 2 MiB

/// A contiguous run of pinned pages handed out by the arena.
struct PageRun {
  uint8_t* data = nullptr;
  int64_t num_pages = 0;
  int64_t first_page_index = -1;

  int64_t size_bytes() const { return num_pages * kSharedPageBytes; }
};

class SharedArena {
 public:
  /// Reserves `capacity_bytes` (rounded up to whole pages). The paper's
  /// platform caps this at 4 GB; tests use much smaller arenas.
  explicit SharedArena(int64_t capacity_bytes);
  ~SharedArena();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(SharedArena);

  /// Allocates a contiguous run of pages covering `min_bytes`.
  /// Fails with OutOfMemory when no contiguous run is free, mirroring the
  /// hard AAL limit (there is no eviction: pages are pinned).
  Result<PageRun> AllocatePages(int64_t min_bytes);

  /// Returns a run to the free pool.
  Status FreePages(const PageRun& run);

  /// True if [ptr, ptr+size) lies fully inside the arena reservation —
  /// i.e. the FPGA is allowed to touch it.
  bool Contains(const void* ptr, int64_t size = 1) const;

  int64_t capacity_bytes() const { return num_pages_ * kSharedPageBytes; }
  int64_t allocated_bytes() const;
  int64_t num_pages() const { return num_pages_; }

  /// The page table the simulated FPGA uses for address translation.
  const PageTable& page_table() const { return page_table_; }

  uint8_t* base() const { return base_; }

 private:
  uint8_t* base_ = nullptr;  // page-aligned reservation
  int64_t num_pages_;
  PageTable page_table_;

  mutable std::mutex mutex_;
  std::vector<bool> page_used_;  // guarded by mutex_
  int64_t used_pages_ = 0;       // guarded by mutex_
};

}  // namespace doppio
