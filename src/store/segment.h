// One 2 MB-aligned column segment: the paging unit of the out-of-core
// store (ROADMAP item 4).
//
// A segment has two lives. While OPEN it is a host-memory staging area —
// appended strings accumulate in a std::vector of offsets plus a regular
// StringHeap, invisible to queries. Seal() freezes it into an immutable
// payload with the layout
//
//   [offsets: rows x uint32, zero-padded to a 64-byte boundary]
//   [heap:    StringHeap image, 64-byte metadata header + strings]
//
// where each offset is heap-relative exactly as in a resident Bat, so a
// pinned segment feeds the FPGA job parameters (offsets ptr / heap ptr /
// heap_bytes / count) without any translation and every kernel backend
// runs on it unchanged. Sealed payloads are written once to the pager's
// spill file and never mutated again — page-out is just freeing the arena
// run, no write-back — which is what makes eviction safe under concurrent
// readers (pin counts, store/pager.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bat/string_heap.h"
#include "common/macros.h"
#include "common/status.h"
#include "mem/arena.h"

namespace doppio {

class Pager;

/// Pads an offsets span of `rows` uint32s to the 64-byte cache-line
/// boundary the heap image starts at.
int64_t SegmentOffsetsSpanBytes(int64_t rows);

class Segment {
 public:
  /// `id` must come from AcquireColumnId() so sealed segments can key the
  /// shared result cache without colliding with Bat ids.
  explicit Segment(uint64_t id);
  /// A segment that dies while its pager lives leaves the pager: its
  /// resident pages go back to the arena. Either may be destroyed first.
  ~Segment();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(Segment);

  uint64_t id() const { return id_; }
  /// Sealed segments are immutable; their cache version is always 1.
  static constexpr uint64_t kSealedVersion = 1;

  bool sealed() const { return sealed_; }
  int64_t rows() const { return rows_; }
  /// Size of the heap image (header + strings + padding). Valid once
  /// sealed; while open it tracks the staging heap.
  int64_t heap_bytes() const { return heap_bytes_; }
  /// Offsets span including the pad to the heap's 64-byte start.
  int64_t offsets_span_bytes() const { return SegmentOffsetsSpanBytes(rows_); }
  /// Total payload bytes: offsets span + heap image.
  int64_t payload_bytes() const { return offsets_span_bytes() + heap_bytes_; }

  // --- Staging (open segments only) ---------------------------------------
  Status Append(std::string_view value);
  /// Freezes the segment and returns the serialized payload. The staging
  /// memory is released; the caller (SegmentedColumn) hands the payload to
  /// the pager's spill file.
  Result<std::vector<uint8_t>> Seal();

  /// Reads string `i` from a resident payload base pointer (tests and
  /// host-side verification; queries go through JobParams).
  static std::string_view GetString(const uint8_t* payload, int64_t rows,
                                    int64_t i);

 private:
  friend class Pager;

  const uint64_t id_;
  bool sealed_ = false;
  int64_t rows_ = 0;
  int64_t heap_bytes_ = 0;

  // Staging state (discarded at seal).
  std::vector<uint32_t> staging_offsets_;
  std::unique_ptr<StringHeap> staging_heap_;

  // Residency state. Guarded by the owning Pager's mutex — never touched
  // outside it once the segment is registered.
  Pager* pager_ = nullptr;    // adopting pager; cleared when it dies first
  int64_t file_offset_ = -1;  // position in the pager's spill file
  PageRun run_;               // valid iff resident_
  bool resident_ = false;
  int pins_ = 0;
  uint64_t lru_tick_ = 0;
};

}  // namespace doppio
