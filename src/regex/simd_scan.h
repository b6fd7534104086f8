// SIMD byte-scan primitive for the host-side matcher backends.
//
// One scan: given a haystack and an exact set of target bytes (a
// ByteSet, built once per program or stage), return the first position
// at or after `from` whose byte is in the set. The callers
// (regex/bitparallel, hw/kernel_backend) use it as a candidate finder and
// verify candidates with exact logic, but the scan itself is exact at
// every level, so the three implementations return identical positions
// for every set — bytes >= 0x80 included:
//
//   * avx2   — sets of at most ByteSet::kMaxCompareBytes members compare
//              each member and OR the hits (cheapest for tiny sets); any
//              larger set goes through a nibble lookup: one vpshufb on
//              the low nibble into a table whose bits index the high
//              nibble. vpshufb zeroes a lane whose index byte has its top
//              bit set, so bytes 0x80-0xff use a second table indexed by
//              the byte XOR 0x80.
//   * sse2   — compare-OR for small sets (SSE2 has no byte shuffle);
//              larger sets use the scalar table walk.
//   * scalar — memchr for one member, otherwise a 256-entry table walk;
//              the reference the vector paths are tested against.
//
// Vector loads never leave the haystack (host-slice strings are not
// padded): the final partial block is re-read as an overlapping full
// block ending at the haystack's last byte, and haystacks shorter than
// one block take the narrower or scalar path.
//
// Dispatch is by runtime CPUID (GCC/Clang function multi-targeting with
// __builtin_cpu_supports), so one binary runs the widest path the host
// supports and falls back to scalar everywhere else. The active level can
// be capped for testing with DOPPIO_SIMD_LEVEL=scalar|sse2|avx2 — the
// equivalence sweeps run every reachable level against the scalar
// reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace doppio {
namespace simd {

/// Widest vector path a scan may take, in increasing order.
enum class SimdLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Stable short tag ("scalar" / "sse2" / "avx2") for stats and benches.
const char* SimdLevelName(SimdLevel level);

/// What the CPU supports (CPUID; computed once). x86-64 always reports at
/// least kSse2; other architectures report kScalar.
SimdLevel DetectedSimdLevel();

/// DetectedSimdLevel() capped by DOPPIO_SIMD_LEVEL when set (unknown
/// values are ignored). Read per call so tests can flip the cap.
SimdLevel ActiveSimdLevel();

/// An exact set of byte values together with the lookup tables every
/// scan level reads. Insert keeps the tables current, so a set is ready
/// to scan at any point; build it once, outside per-string loops.
class ByteSet {
 public:
  /// Sets with at most this many members scan by compare-OR.
  static constexpr int kMaxCompareBytes = 4;

  void Insert(uint8_t byte);
  bool Contains(uint8_t byte) const { return member_[byte] != 0; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  friend struct ScanAccess;

  std::array<uint8_t, 256> member_{};  // 1 = in the set (scalar walk)
  /// Nibble tables: bit (hi & 7) of low_table_[lo] is set when byte
  /// (hi << 4 | lo) is a member, hi in 0..7 for low_table_ and 8..15 for
  /// high_table_.
  alignas(16) std::array<uint8_t, 16> low_table_{};
  alignas(16) std::array<uint8_t, 16> high_table_{};
  std::array<uint8_t, kMaxCompareBytes> few_{};  // members while small
  int size_ = 0;
};

/// First index >= `from` whose byte is in `set`, or npos (also for an
/// empty set). All levels return identical results.
size_t FindByteSet(std::string_view haystack, size_t from,
                   const ByteSet& set);

/// Same, at an explicit level (per-string loops resolve the level once;
/// levels above DetectedSimdLevel() are clamped to it).
size_t FindByteSetAtLevel(std::string_view haystack, size_t from,
                          const ByteSet& set, SimdLevel level);

}  // namespace simd
}  // namespace doppio
