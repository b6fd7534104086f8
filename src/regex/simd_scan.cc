#include "regex/simd_scan.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define DOPPIO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace doppio {
namespace simd {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

SimdLevel DetectedSimdLevel() {
#ifdef DOPPIO_SIMD_X86
  static const SimdLevel detected = [] {
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    return SimdLevel::kSse2;  // x86-64 baseline
  }();
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() {
  SimdLevel level = DetectedSimdLevel();
  const char* cap = std::getenv("DOPPIO_SIMD_LEVEL");
  if (cap != nullptr) {
    if (std::strcmp(cap, "scalar") == 0) {
      level = SimdLevel::kScalar;
    } else if (std::strcmp(cap, "sse2") == 0 && level > SimdLevel::kSse2) {
      level = SimdLevel::kSse2;
    } else if (std::strcmp(cap, "avx2") == 0) {
      // Cap at avx2 == no cap; unknown values are also ignored.
    }
  }
  return level;
}

void ByteSet::Insert(uint8_t byte) {
  if (member_[byte] != 0) return;
  member_[byte] = 1;
  if (size_ < kMaxCompareBytes) few_[static_cast<size_t>(size_)] = byte;
  ++size_;
  const int hi = byte >> 4;
  std::array<uint8_t, 16>& table = hi < 8 ? low_table_ : high_table_;
  table[byte & 0x0f] |= static_cast<uint8_t>(1u << (hi & 7));
}

/// The scan implementations' view of a ByteSet's tables.
struct ScanAccess {
  static const uint8_t* member(const ByteSet& set) {
    return set.member_.data();
  }
  static const uint8_t* few(const ByteSet& set) { return set.few_.data(); }
  static const uint8_t* low_table(const ByteSet& set) {
    return set.low_table_.data();
  }
  static const uint8_t* high_table(const ByteSet& set) {
    return set.high_table_.data();
  }
};

namespace {

constexpr size_t kNpos = std::string_view::npos;

size_t FindByteSetScalar(std::string_view haystack, size_t from,
                         const ByteSet& set) {
  if (from >= haystack.size() || set.empty()) return kNpos;
  if (set.size() == 1) {
    // libc's memchr is itself vectorized: the fast path for one byte.
    const void* hit = std::memchr(haystack.data() + from,
                                  ScanAccess::few(set)[0],
                                  haystack.size() - from);
    return hit == nullptr ? kNpos
                          : static_cast<size_t>(
                                static_cast<const char*>(hit) -
                                haystack.data());
  }
  const uint8_t* member = ScanAccess::member(set);
  for (size_t i = from; i < haystack.size(); ++i) {
    if (member[static_cast<uint8_t>(haystack[i])] != 0) return i;
  }
  return kNpos;
}

#ifdef DOPPIO_SIMD_X86

// Every vector loop below scans blocks starting at `i`; once fewer than a
// block's bytes remain it re-reads the haystack's last full block and
// shifts away the lanes before `i`, so no load leaves the haystack.

/// Compare-OR over 16-byte blocks; requires a set of at most
/// kMaxCompareBytes members, i < size and size >= 16.
size_t FindCompareSse2(const char* data, size_t size, size_t i,
                       const ByteSet& set) {
  const uint8_t* few = ScanAccess::few(set);
  const int n = set.size();
  __m128i needles[ByteSet::kMaxCompareBytes];
  for (int k = 0; k < n; ++k) {
    needles[k] = _mm_set1_epi8(static_cast<char>(few[k]));
  }
  while (true) {
    const size_t at = std::min(i, size - 16);
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + at));
    __m128i hit = _mm_cmpeq_epi8(v, needles[0]);
    for (int k = 1; k < n; ++k) {
      hit = _mm_or_si128(hit, _mm_cmpeq_epi8(v, needles[k]));
    }
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(hit)) >> (i - at);
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
    i = at + 16;
    if (i >= size) return kNpos;
  }
}

size_t FindByteSetSse2(std::string_view haystack, size_t from,
                       const ByteSet& set) {
  if (haystack.size() < 16 || set.size() > ByteSet::kMaxCompareBytes) {
    return FindByteSetScalar(haystack, from, set);
  }
  if (from >= haystack.size() || set.empty()) return kNpos;
  return FindCompareSse2(haystack.data(), haystack.size(), from, set);
}

/// Membership mask of one 16-byte block through the nibble tables.
__attribute__((target("avx2"))) inline unsigned NibbleMask16(
    __m128i v, __m128i low, __m128i high, __m128i bits) {
  const __m128i nibble = _mm_set1_epi8(0x0f);
  const __m128i top = _mm_set1_epi8(static_cast<char>(0x80));
  // Lanes >= 0x80 read 0 from `low`; lanes < 0x80 read 0 from `high`.
  const __m128i row = _mm_or_si128(
      _mm_shuffle_epi8(low, v), _mm_shuffle_epi8(high, _mm_xor_si128(v, top)));
  const __m128i col =
      _mm_shuffle_epi8(bits, _mm_and_si128(_mm_srli_epi16(v, 4), nibble));
  const __m128i miss =
      _mm_cmpeq_epi8(_mm_and_si128(row, col), _mm_setzero_si128());
  return ~static_cast<unsigned>(_mm_movemask_epi8(miss)) & 0xffffu;
}

__attribute__((target("avx2"))) inline uint32_t NibbleMask32(
    __m256i v, __m256i low, __m256i high, __m256i bits) {
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i top = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i row =
      _mm256_or_si256(_mm256_shuffle_epi8(low, v),
                      _mm256_shuffle_epi8(high, _mm256_xor_si256(v, top)));
  const __m256i col = _mm256_shuffle_epi8(
      bits, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
  const __m256i miss =
      _mm256_cmpeq_epi8(_mm256_and_si256(row, col), _mm256_setzero_si256());
  return ~static_cast<uint32_t>(_mm256_movemask_epi8(miss));
}

__attribute__((target("avx2"))) size_t FindByteSetAvx2(
    std::string_view haystack, size_t from, const ByteSet& set) {
  const char* data = haystack.data();
  const size_t size = haystack.size();
  if (size < 16) return FindByteSetScalar(haystack, from, set);
  if (from >= size || set.empty()) return kNpos;
  size_t i = from;

  if (set.size() <= ByteSet::kMaxCompareBytes) {
    if (size < 32) return FindCompareSse2(data, size, i, set);
    const uint8_t* few = ScanAccess::few(set);
    const int n = set.size();
    __m256i needles[ByteSet::kMaxCompareBytes];
    for (int k = 0; k < n; ++k) {
      needles[k] = _mm256_set1_epi8(static_cast<char>(few[k]));
    }
    while (true) {
      const size_t at = std::min(i, size - 32);
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + at));
      __m256i hit = _mm256_cmpeq_epi8(v, needles[0]);
      for (int k = 1; k < n; ++k) {
        hit = _mm256_or_si256(hit, _mm256_cmpeq_epi8(v, needles[k]));
      }
      const uint32_t mask =
          static_cast<uint32_t>(_mm256_movemask_epi8(hit)) >> (i - at);
      if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
      i = at + 32;
      if (i >= size) return kNpos;
    }
  }

  const __m128i low = _mm_load_si128(
      reinterpret_cast<const __m128i*>(ScanAccess::low_table(set)));
  const __m128i high = _mm_load_si128(
      reinterpret_cast<const __m128i*>(ScanAccess::high_table(set)));
  const __m128i bits = _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4,
                                     8, 16, 32, 64, -128);
  if (size < 32) {
    while (true) {
      const size_t at = std::min(i, size - 16);
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + at));
      const unsigned mask = NibbleMask16(v, low, high, bits) >> (i - at);
      if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
      i = at + 16;
      if (i >= size) return kNpos;
    }
  }
  // vpshufb looks up within each 128-bit lane: both lanes get the table.
  const __m256i low2 = _mm256_broadcastsi128_si256(low);
  const __m256i high2 = _mm256_broadcastsi128_si256(high);
  const __m256i bits2 = _mm256_broadcastsi128_si256(bits);
  while (true) {
    const size_t at = std::min(i, size - 32);
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + at));
    const uint32_t mask = NibbleMask32(v, low2, high2, bits2) >> (i - at);
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
    i = at + 32;
    if (i >= size) return kNpos;
  }
}

#endif  // DOPPIO_SIMD_X86

}  // namespace

size_t FindByteSetAtLevel(std::string_view haystack, size_t from,
                          const ByteSet& set, SimdLevel level) {
  if (level > DetectedSimdLevel()) level = DetectedSimdLevel();
#ifdef DOPPIO_SIMD_X86
  switch (level) {
    case SimdLevel::kAvx2:
      return FindByteSetAvx2(haystack, from, set);
    case SimdLevel::kSse2:
      return FindByteSetSse2(haystack, from, set);
    case SimdLevel::kScalar:
      break;
  }
#endif
  return FindByteSetScalar(haystack, from, set);
}

size_t FindByteSet(std::string_view haystack, size_t from,
                   const ByteSet& set) {
  return FindByteSetAtLevel(haystack, from, set, ActiveSimdLevel());
}

}  // namespace simd
}  // namespace doppio
