// MonetDB-style string heap (paper Fig. 2).
//
// Variable-length values are stored out of line: a BAT of offsets points
// into a heap that holds NUL-terminated strings with metadata and alignment
// padding between them. String lengths are NOT stored — readers (including
// the FPGA's String Reader) scan to the terminator. The heap begins with a
// metadata block.
#pragma once

#include <cstdint>
#include <string_view>

#include "bat/buffer.h"
#include "common/status.h"

namespace doppio {

/// Bytes of heap metadata before the first string (MonetDB keeps hash/meta
/// information at the head of its string heaps).
inline constexpr int64_t kHeapHeaderBytes = 64;

/// Strings are stored at 8-byte aligned offsets; the gap after the NUL
/// terminator is the "padding" of Fig. 2.
inline constexpr int64_t kHeapAlignment = 8;

class StringHeap {
 public:
  explicit StringHeap(BufferAllocator* allocator = MallocAllocator::Default());

  /// Appends a string (with terminator and padding); returns its offset.
  Result<uint32_t> Append(std::string_view value);

  /// Reads the NUL-terminated string at `offset`.
  /// Returns InvalidArgument for offsets outside the written heap.
  Result<std::string_view> Get(uint32_t offset) const;

  /// Unchecked variant for hot loops; offset must come from Append.
  const char* GetUnchecked(uint32_t offset) const {
    return reinterpret_cast<const char*>(data_.data() + offset);
  }

  const uint8_t* data() const { return data_.data(); }
  int64_t size_bytes() const { return data_.size(); }

  /// Pre-reserves heap space for bulk loads.
  Status Reserve(int64_t bytes) { return data_.Reserve(bytes); }

 private:
  Buffer data_;
};

}  // namespace doppio
