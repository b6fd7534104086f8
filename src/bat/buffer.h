// Growable byte buffer with pluggable allocation.
//
// MonetDB places BATs in the CPU-FPGA shared region via the HAL's slab
// allocator (paper §4.2.1); tests and software-only paths use malloc. The
// BufferAllocator interface is the seam between the two.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "common/status.h"

namespace doppio {

/// Allocation interface for BAT backing memory.
class BufferAllocator {
 public:
  virtual ~BufferAllocator() = default;
  virtual Result<void*> Allocate(int64_t bytes) = 0;
  virtual Status Free(void* ptr) = 0;
};

/// Default allocator: plain malloc (not FPGA-visible).
class MallocAllocator : public BufferAllocator {
 public:
  Result<void*> Allocate(int64_t bytes) override {
    void* p = std::malloc(static_cast<size_t>(bytes));
    if (p == nullptr) return Status::OutOfMemory("malloc failed");
    return p;
  }
  Status Free(void* ptr) override {
    std::free(ptr);
    return Status::OK();
  }

  /// Process-wide instance for default-constructed buffers.
  static MallocAllocator* Default();
};

inline MallocAllocator* MallocAllocator::Default() {
  static MallocAllocator instance;
  return &instance;
}

/// Contiguous, growable, allocator-backed byte buffer.
class Buffer {
 public:
  explicit Buffer(BufferAllocator* allocator = MallocAllocator::Default())
      : allocator_(allocator) {}

  ~Buffer() { Release(); }

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(Buffer);

  Buffer(Buffer&& other) noexcept { *this = std::move(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      Release();
      allocator_ = other.allocator_;
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = other.capacity_ = 0;
    }
    return *this;
  }

  /// Ensures capacity for at least `bytes`; contents are preserved.
  Status Reserve(int64_t bytes) {
    if (bytes <= capacity_) return Status::OK();
    int64_t new_cap = capacity_ == 0 ? 1024 : capacity_;
    while (new_cap < bytes) new_cap *= 2;
    DOPPIO_ASSIGN_OR_RETURN(void* fresh, allocator_->Allocate(new_cap));
    const int64_t old_size = size_;
    if (old_size > 0) {
      std::memcpy(fresh, data_, static_cast<size_t>(old_size));
    }
    Release();
    data_ = static_cast<uint8_t*>(fresh);
    size_ = old_size;
    capacity_ = new_cap;
    return Status::OK();
  }

  /// Appends `bytes` bytes from `src`, growing as needed.
  Status Append(const void* src, int64_t bytes) {
    DOPPIO_RETURN_NOT_OK(Reserve(size_ + bytes));
    std::memcpy(data_ + size_, src, static_cast<size_t>(bytes));
    size_ += bytes;
    return Status::OK();
  }

  /// Grows the logical size by `bytes` of zeroed content.
  Status AppendZeros(int64_t bytes) {
    // An empty buffer has no storage yet: memset(nullptr, 0, 0) is UB.
    if (bytes == 0) return Status::OK();
    DOPPIO_RETURN_NOT_OK(Reserve(size_ + bytes));
    std::memset(data_ + size_, 0, static_cast<size_t>(bytes));
    size_ += bytes;
    return Status::OK();
  }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  int64_t size() const { return size_; }
  int64_t capacity() const { return capacity_; }
  BufferAllocator* allocator() const { return allocator_; }

 private:
  void Release() {
    if (data_ != nullptr) {
      Status st = allocator_->Free(data_);
      (void)st;  // Allocator mismatches are caught by allocator tests.
      data_ = nullptr;
    }
    size_ = capacity_ = 0;
  }

  BufferAllocator* allocator_ = nullptr;
  uint8_t* data_ = nullptr;
  int64_t size_ = 0;
  int64_t capacity_ = 0;
};

}  // namespace doppio
