#include "bat/string_heap.h"

#include <cstring>

namespace doppio {

StringHeap::StringHeap(BufferAllocator* allocator) : data_(allocator) {
  // Metadata block at the head of the heap; zeroed.
  Status st = data_.AppendZeros(kHeapHeaderBytes);
  (void)st;
}

Result<uint32_t> StringHeap::Append(std::string_view value) {
  int64_t offset = data_.size();
  if (offset > UINT32_MAX) {
    return Status::CapacityExceeded("string heap exceeds 32-bit offsets");
  }
  DOPPIO_RETURN_NOT_OK(
      data_.Append(value.data(), static_cast<int64_t>(value.size())));
  // NUL terminator.
  const char zero = '\0';
  DOPPIO_RETURN_NOT_OK(data_.Append(&zero, 1));
  // Pad so the next string starts 8-byte aligned.
  int64_t misalign = data_.size() % kHeapAlignment;
  if (misalign != 0) {
    DOPPIO_RETURN_NOT_OK(data_.AppendZeros(kHeapAlignment - misalign));
  }
  return static_cast<uint32_t>(offset);
}

Result<std::string_view> StringHeap::Get(uint32_t offset) const {
  if (offset < kHeapHeaderBytes || offset >= data_.size()) {
    return Status::InvalidArgument("string offset outside heap");
  }
  const char* start = reinterpret_cast<const char*>(data_.data() + offset);
  // Bounded scan: the heap always ends with the final string's terminator
  // and padding, so memchr within the remaining bytes is safe.
  const void* nul = std::memchr(start, '\0',
                                static_cast<size_t>(data_.size() - offset));
  if (nul == nullptr) {
    return Status::Internal("unterminated string in heap");
  }
  return std::string_view(
      start, static_cast<size_t>(static_cast<const char*>(nul) - start));
}

}  // namespace doppio
