// Bit-parallel (Baeza-Yates–Gonnet Shift-And) execution of chain-shaped
// PU programs on the host CPU.
//
// A chain-shaped token NFA (regex/token_nfa.h AnalyzeChainShape) is an
// ordered sequence of fixed-length token chains glued by '.*' latches —
// LIKE '%t1%t2%...%' where each t_i is a sequence of character specs, not
// just exact bytes. Each stage becomes one Shift-And machine: the match
// state is a single word whose bit j means "the first j+1 positions of
// the chain match, ending at the current byte", stepped with two ALU ops
// per byte:
//
//     D' = ((D << 1) | 1) & B[byte]
//
// where B is the 256-entry position-mask table built from the CharSpecs.
// On top of that, every stage with a *rare* position — a spec matching at
// most kMaxAnchorBytes distinct bytes — skips via the SIMD candidate scan
// (regex/simd_scan.h): find the next occurrence of the rare byte(s),
// verify the fixed-length window around it directly. Text that cannot
// contain the stage then streams at memchr speed instead of byte-at-a-
// time automaton speed. Shift-And itself already costs about 1 ns/byte,
// so only a rare anchor pays for the scan.
//
// Results are bit-identical to the PU kernels by construction: stages are
// fixed-length, so greedy earliest-occurrence search per stage yields the
// same first-accept position as the NFA semantics (the same argument the
// literal kernel relies on), and the verification logic is the CharSpec
// masks themselves.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "regex/simd_scan.h"
#include "regex/token_nfa.h"

namespace doppio {

class BitParallelProgram {
 public:
  /// Widest spec a stage anchors its candidate scan on.
  static constexpr int kMaxAnchorBytes = 4;

  /// Compiles a chain-shaped token NFA whose every stage fits a 64-bit
  /// word; nullopt when the shape or the word bound does not hold.
  static std::optional<BitParallelProgram> Compile(const TokenNfa& nfa);

  /// PU ProcessString semantics: 1-based position of the first match's
  /// last character saturated at 65535, or 0 for no match. Callers in a
  /// per-string loop should resolve simd::ActiveSimdLevel() once and pass
  /// it explicitly — the level lookup reads the environment.
  uint16_t Find(std::string_view input) const {
    return Find(input, simd::ActiveSimdLevel());
  }
  uint16_t Find(std::string_view input, simd::SimdLevel level) const;

  int num_stages() const { return static_cast<int>(stages_.size()); }
  /// Stages whose rare-position anchor enables the SIMD candidate scan.
  int num_anchored_stages() const;

 private:
  struct Stage {
    std::array<uint64_t, 256> masks;  // bit j: byte matches chain pos j
    int length = 0;
    uint64_t accept_bit = 0;  // 1 << (length - 1)
    /// Rare position driving the candidate scan; -1 = none (plain
    /// Shift-And loop).
    int anchor_offset = -1;
    simd::ByteSet anchor_bytes;

    /// One-past-end index of the earliest occurrence starting at or
    /// after `from`, or npos.
    size_t FindEnd(std::string_view input, size_t from,
                   simd::SimdLevel level) const;
  };

  std::vector<Stage> stages_;
};

}  // namespace doppio
