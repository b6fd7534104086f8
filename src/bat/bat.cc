#include "bat/bat.h"

#include <atomic>

#include "common/logging.h"

namespace doppio {

int64_t ValueTypeWidth(ValueType type) {
  switch (type) {
    case ValueType::kInt32:
      return 4;
    case ValueType::kInt64:
      return 8;
    case ValueType::kInt16:
      return 2;
    case ValueType::kString:
      return 4;  // 32-bit heap offsets in the tail
  }
  return 0;
}

namespace {
/// Process-wide column-identity source (never 0, never reused).
std::atomic<uint64_t> next_column_id{1};
}  // namespace

uint64_t AcquireColumnId() {
  return next_column_id.fetch_add(1, std::memory_order_relaxed);
}

Bat::Bat(ValueType type, BufferAllocator* allocator)
    : type_(type), tail_(allocator), id_(AcquireColumnId()) {
  if (type_ == ValueType::kString) {
    heap_ = std::make_unique<StringHeap>(allocator);
  }
}

Result<std::unique_ptr<Bat>> Bat::New(ValueType type, int64_t capacity,
                                      BufferAllocator* allocator) {
  auto bat = std::make_unique<Bat>(type, allocator);
  DOPPIO_RETURN_NOT_OK(bat->Reserve(capacity));
  return bat;
}

Status Bat::AppendInt32(int32_t value) {
  DOPPIO_CHECK(type_ == ValueType::kInt32);
  DOPPIO_RETURN_NOT_OK(tail_.Append(&value, sizeof(value)));
  ++count_;
  BumpVersion();
  return Status::OK();
}

Status Bat::AppendInt64(int64_t value) {
  DOPPIO_CHECK(type_ == ValueType::kInt64);
  DOPPIO_RETURN_NOT_OK(tail_.Append(&value, sizeof(value)));
  ++count_;
  BumpVersion();
  return Status::OK();
}

Status Bat::AppendInt16(int16_t value) {
  DOPPIO_CHECK(type_ == ValueType::kInt16);
  DOPPIO_RETURN_NOT_OK(tail_.Append(&value, sizeof(value)));
  ++count_;
  BumpVersion();
  return Status::OK();
}

Status Bat::AppendString(std::string_view value) {
  DOPPIO_CHECK(type_ == ValueType::kString);
  DOPPIO_ASSIGN_OR_RETURN(uint32_t offset, heap_->Append(value));
  DOPPIO_RETURN_NOT_OK(tail_.Append(&offset, sizeof(offset)));
  ++count_;
  BumpVersion();
  return Status::OK();
}

Status Bat::Reserve(int64_t n, int64_t avg_string_bytes) {
  DOPPIO_RETURN_NOT_OK(tail_.Reserve(n * ValueTypeWidth(type_)));
  if (type_ == ValueType::kString && avg_string_bytes > 0) {
    // Account for terminator + alignment padding per string.
    DOPPIO_RETURN_NOT_OK(heap_->Reserve(
        kHeapHeaderBytes + n * (avg_string_bytes + kHeapAlignment)));
  }
  return Status::OK();
}

Status Bat::AppendZeros(int64_t n) {
  DOPPIO_CHECK(type_ != ValueType::kString);
  DOPPIO_RETURN_NOT_OK(tail_.AppendZeros(n * ValueTypeWidth(type_)));
  count_ += n;
  BumpVersion();
  return Status::OK();
}

}  // namespace doppio
