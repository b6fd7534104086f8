// Byte-budgeted pager over the CPU-FPGA shared arena (ROADMAP item 4).
//
// Sealed segments live in a write-once spill file; the pager pins a
// bounded working set of them into the pinned `src/mem/` arena so the
// simulated FPGA can stream them (FpgaDevice::ValidateJob requires every
// job pointer inside the arena). Residency is managed with pin counts and
// LRU ticks, the idiom of classic database buffer managers:
//
//   Pin(segment)   — page the payload in if absent (evicting unpinned LRU
//                    victims while over budget or out of arena pages),
//                    bump the pin count, return the resident view.
//   Unpin(segment) — drop the pin; the payload stays cached until LRU
//                    eviction reclaims it.
//
// Because sealed payloads are immutable, page-out is simply FreePages —
// there is never a write-back — and a pinned segment can never be evicted
// (pin counts), so a query holding a window pinned is safe against any
// concurrent Pin pressure. Destruction is order-independent: a segment
// that dies first returns its pages and leaves the pager, and a pager
// that dies first frees every resident and detaches its live segments.
// All `doppio.store.*` metrics live here.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mem/arena.h"
#include "store/segment.h"

namespace doppio {

struct PagerOptions {
  /// Ceiling on resident payload bytes (page-granular accounting). The
  /// pager also respects the arena's own capacity: even under budget, an
  /// arena allocation failure triggers eviction.
  int64_t budget_bytes = int64_t{64} << 20;
};

/// A pinned segment's resident payload, laid out exactly like a Bat's
/// (tail, heap) pair. Valid until the matching Unpin.
struct PinnedSegment {
  const uint8_t* offsets = nullptr;  // rows x uint32, heap-relative
  const uint8_t* heap = nullptr;     // StringHeap image (64-byte header)
  int64_t heap_bytes = 0;
  int64_t rows = 0;
  bool paged_in = false;  // true when this Pin missed and hit the spill file
};

class Pager {
 public:
  explicit Pager(SharedArena* arena, PagerOptions options = {});
  ~Pager();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(Pager);

  /// Appends a freshly sealed segment's payload to the spill file and
  /// records its file offset. The payload is NOT kept resident — the
  /// first Pin pages it in.
  Status AdoptSealed(Segment* segment, const std::vector<uint8_t>& payload);

  /// Ensures `segment` is resident and pinned. Fails with
  /// ResourceExhausted when the working set cannot fit (everything else
  /// resident is pinned), InvalidArgument for unsealed/unadopted segments.
  Result<PinnedSegment> Pin(Segment* segment);

  /// Releases one pin. The payload stays resident (LRU) until evicted.
  void Unpin(Segment* segment);

  /// Evicts every unpinned resident segment (tests / shutdown pressure).
  void DropClean();

  int64_t budget_bytes() const { return options_.budget_bytes; }
  int64_t resident_bytes() const;
  int64_t spill_bytes() const;
  SharedArena* arena() const { return arena_; }

 private:
  /// Evicts unpinned residents (LRU first) until `needed_bytes` fits the
  /// budget, or returns false when nothing more can be evicted.
  bool EvictForLocked(int64_t needed_bytes);
  void EvictOneLocked(Segment* victim);
  /// Returns a resident victim's pages to the arena (no metrics).
  void FreeRunLocked(Segment* victim);
  Status PageInLocked(Segment* segment);

  friend class Segment;
  /// A dying segment leaves the pager (Segment::~Segment).
  void Forget(Segment* segment);

  SharedArena* const arena_;
  const PagerOptions options_;

  mutable std::mutex mutex_;
  std::FILE* spill_ = nullptr;       // write-once segment payloads
  int64_t spill_bytes_ = 0;          // file high-water mark
  int64_t resident_bytes_ = 0;       // page-granular resident accounting
  uint64_t lru_clock_ = 0;           // bumped on every Pin
  std::vector<Segment*> residents_;  // segments with a live PageRun
  std::unordered_set<Segment*> adopted_;  // live segments with pager_ == this
};

}  // namespace doppio
