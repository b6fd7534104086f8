// String Reader (paper §5.1): fetches a job's strings from the BAT heap.
//
// Operation alternates between two steps: read a block of offset cache
// lines (up to 512 lines — the depth of a BRAM FIFO), then use those
// offsets to fetch the strings from the heap. In hardware, parsed strings
// are forwarded round-robin to the per-PU input FIFOs.
//
// The functional side (ReadBlock) hands out parsed strings in input
// order; the static helpers compute the cache-line traffic each phase
// generates, which the engine's timing model feeds through the arbiter.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hw/job.h"

namespace doppio {

/// Offset cache lines fetched per reader phase: 512 lines x 16 offsets.
inline constexpr int64_t kReaderOffsetLinesPerBlock = 512;
inline constexpr int64_t kOffsetsPerLine = kCacheLineBytes / 4;
inline constexpr int64_t kStringsPerBlock =
    kReaderOffsetLinesPerBlock * kOffsetsPerLine;  // 8192

class StringReader {
 public:
  /// Binds the reader to a job's offset column and heap. In timing-only
  /// mode (throughput experiments) strings are not materialized; traffic
  /// is derived from the offset column alone.
  explicit StringReader(const JobParams& params);

  /// True while blocks remain.
  bool HasMore() const { return next_string_ < params_->count; }

  struct Block {
    int64_t first_string = 0;
    int64_t num_strings = 0;
    /// Parsed strings of this block, in input order (index i is string
    /// first_string + i). Views into the heap.
    std::vector<std::string_view> strings;
    /// Cache lines of offset-column traffic for this block.
    int64_t offset_lines = 0;
    /// Cache lines of heap traffic for this block.
    int64_t heap_lines = 0;
    /// Payload bytes streamed into the PUs.
    int64_t string_bytes = 0;
  };

  /// Reads the next block (offset phase + heap phase).
  Result<Block> ReadBlock();

  /// Total offset-column lines for a job of `count` strings.
  static int64_t TotalOffsetLines(int64_t count) {
    return (count * 4 + kCacheLineBytes - 1) / kCacheLineBytes;
  }

 private:
  const JobParams* params_;
  int64_t next_string_ = 0;
};

}  // namespace doppio
