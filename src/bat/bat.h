// Binary Association Tables — MonetDB's storage unit (paper §2.3.1).
//
// A BAT logically pairs (OID, value). Like modern MonetDB, the OID head is
// "void" (virtual: dense, starting at 0), so only the tail is materialized.
// Fixed-width tails store values directly; string tails store 32-bit offsets
// into a StringHeap. The HUDF receives exactly this representation: a
// pointer to the offset column, a pointer to the heap, the offset width and
// the tuple count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "bat/buffer.h"
#include "bat/string_heap.h"
#include "common/status.h"

namespace doppio {

enum class ValueType : int {
  kInt32,
  kInt64,
  kInt16,  // the HUDF result type ("short": match end position or 0)
  kString,
};

int64_t ValueTypeWidth(ValueType type);

/// Draws the next process-unique column identity (never 0, never reused).
/// Shared by Bat and store::SegmentedColumn so ids from either family can
/// key the same caches (sched/result_cache) without collision.
uint64_t AcquireColumnId();

class Bat {
 public:
  /// Creates an empty BAT with the given tail type. All backing memory
  /// (tail and heap) comes from `allocator`.
  explicit Bat(ValueType type,
               BufferAllocator* allocator = MallocAllocator::Default());

  /// Creates an empty BAT and reserves room for `capacity` tuples
  /// (mirrors BATnew(TYPE_void, tail_type, capacity, TRANSIENT)).
  static Result<std::unique_ptr<Bat>> New(
      ValueType type, int64_t capacity,
      BufferAllocator* allocator = MallocAllocator::Default());

  ValueType type() const { return type_; }
  int64_t count() const { return count_; }

  /// Process-unique column identity, assigned at construction. Never
  /// reused within a process, so caches keyed on it (sched/result_cache)
  /// cannot confuse a freed BAT's address with its successor's.
  uint64_t id() const { return id_; }

  /// Monotone content version, starting at 1 and bumped by every append.
  /// A (id, version) pair names an immutable snapshot of the column: the
  /// first `count` rows as of that version. Readable from any thread.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // --- Appends ------------------------------------------------------------
  Status AppendInt32(int32_t value);
  Status AppendInt64(int64_t value);
  Status AppendInt16(int16_t value);
  Status AppendString(std::string_view value);

  // --- Typed access (unchecked index, checked type in debug) ---------------
  int32_t GetInt32(int64_t i) const {
    return reinterpret_cast<const int32_t*>(tail_.data())[i];
  }
  int64_t GetInt64(int64_t i) const {
    return reinterpret_cast<const int64_t*>(tail_.data())[i];
  }
  int16_t GetInt16(int64_t i) const {
    return reinterpret_cast<const int16_t*>(tail_.data())[i];
  }
  /// Offset of the i-th string within the heap.
  uint32_t GetOffset(int64_t i) const {
    return reinterpret_cast<const uint32_t*>(tail_.data())[i];
  }
  /// The i-th string (views into the heap; valid until the BAT grows).
  std::string_view GetString(int64_t i) const {
    const char* p = heap_->GetUnchecked(GetOffset(i));
    return std::string_view(p);
  }

  // --- Raw access for the FPGA/HAL path ------------------------------------
  const uint8_t* tail_data() const { return tail_.data(); }
  uint8_t* mutable_tail_data() { return tail_.data(); }
  int64_t tail_bytes() const { return tail_.size(); }
  const StringHeap* heap() const { return heap_.get(); }
  /// Offset width in bytes as passed in the FPGA job parameters.
  int64_t offset_width() const { return sizeof(uint32_t); }

  /// Reserves tail (and optionally heap) space for `n` tuples of
  /// `avg_string_bytes` average payload.
  Status Reserve(int64_t n, int64_t avg_string_bytes = 0);

  /// Appends `count` zero-initialized fixed-width slots (used for result
  /// BATs the FPGA writes into).
  Status AppendZeros(int64_t n);

  BufferAllocator* allocator() const { return tail_.allocator(); }

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  ValueType type_;
  Buffer tail_;
  std::unique_ptr<StringHeap> heap_;  // only for kString
  int64_t count_ = 0;
  uint64_t id_;
  std::atomic<uint64_t> version_{1};
};

}  // namespace doppio
