// Size and rate unit helpers shared across the performance models.
#pragma once

#include <cstdint>

namespace doppio {

inline constexpr int64_t kKiB = int64_t{1} << 10;
inline constexpr int64_t kMiB = int64_t{1} << 20;
inline constexpr int64_t kGiB = int64_t{1} << 30;

inline constexpr int64_t kKB = 1000;
inline constexpr int64_t kMB = 1000 * 1000;
inline constexpr int64_t kGB = 1000 * 1000 * 1000;

/// One CPU-FPGA cache line as seen by the QPI endpoint: 512 bits.
inline constexpr int64_t kCacheLineBytes = 64;

}  // namespace doppio
