#include "store/segment.h"

#include <cstring>

#include "common/logging.h"
#include "store/pager.h"

namespace doppio {

namespace {
constexpr int64_t kPayloadAlignment = 64;  // cache line / heap header size
}  // namespace

int64_t SegmentOffsetsSpanBytes(int64_t rows) {
  const int64_t raw = rows * static_cast<int64_t>(sizeof(uint32_t));
  return (raw + kPayloadAlignment - 1) / kPayloadAlignment * kPayloadAlignment;
}

Segment::Segment(uint64_t id)
    : id_(id), staging_heap_(std::make_unique<StringHeap>()) {
  heap_bytes_ = staging_heap_->size_bytes();
}

Segment::~Segment() {
  if (pager_ != nullptr) pager_->Forget(this);
}

Status Segment::Append(std::string_view value) {
  if (sealed_) {
    return Status::InvalidArgument("append to a sealed segment");
  }
  DOPPIO_ASSIGN_OR_RETURN(uint32_t offset, staging_heap_->Append(value));
  staging_offsets_.push_back(offset);
  ++rows_;
  heap_bytes_ = staging_heap_->size_bytes();
  return Status::OK();
}

Result<std::vector<uint8_t>> Segment::Seal() {
  if (sealed_) {
    return Status::InvalidArgument("segment already sealed");
  }
  sealed_ = true;
  heap_bytes_ = staging_heap_->size_bytes();
  const int64_t span = offsets_span_bytes();
  std::vector<uint8_t> payload(static_cast<size_t>(span + heap_bytes_), 0);
  if (rows_ > 0) {
    std::memcpy(payload.data(), staging_offsets_.data(),
                static_cast<size_t>(rows_) * sizeof(uint32_t));
  }
  std::memcpy(payload.data() + span, staging_heap_->data(),
              static_cast<size_t>(heap_bytes_));
  staging_offsets_.clear();
  staging_offsets_.shrink_to_fit();
  staging_heap_.reset();
  return payload;
}

std::string_view Segment::GetString(const uint8_t* payload, int64_t rows,
                                    int64_t i) {
  DOPPIO_CHECK(i >= 0 && i < rows);
  const uint32_t* offsets = reinterpret_cast<const uint32_t*>(payload);
  const uint8_t* heap = payload + SegmentOffsetsSpanBytes(rows);
  return std::string_view(
      reinterpret_cast<const char*>(heap + offsets[i]));
}

}  // namespace doppio
