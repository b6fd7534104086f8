// Compiled PU kernels: specialized functional-path executors selected per
// configuration vector.
//
// The cycle-level interpreter in hw/processing_unit.cc walks every
// (trigger token, state) edge for every input byte — faithful, but it caps
// the simulator's wall-clock throughput far below what the modeled
// hardware sustains. When a job's ConfigVector is loaded, this layer
// analyzes the decoded TokenNfa once and picks the cheapest equivalent
// backend:
//
//   1. literal    — the token graph reduces to ordered substring search
//                   (single needle, or needles glued by '.*' latches);
//                   dispatches to regex/substring_search.
//   2. lazy-dfa   — RE2-style subset construction over the PU machine
//                   state, memoizing (state, byte-class) -> state
//                   transitions on demand in a bounded cache.
//   3. nfa-loop   — the original bit-parallel edge interpreter; general
//                   case and the fallback when the DFA cache overflows.
//
// The compiled program is immutable and shared (shared_ptr) by all PUs of
// an engine and by every worker thread of the host-parallel path, so the
// per-job ConfigVector::Decode() and 256-entry byte-mask table builds
// happen exactly once per job instead of once per PU.
//
// Functional-path optimization only: simulated timing (BlockTiming,
// arbiter, scheduler) never looks at which kernel ran.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hw/config_vector.h"
#include "hw/device_config.h"
#include "regex/simd_scan.h"
#include "regex/substring_search.h"
#include "regex/token_nfa.h"

namespace doppio {

enum class PuKernelKind { kLiteral, kLazyDfa, kNfaLoop };

/// Stable short tag ("literal", "lazy-dfa", "nfa-loop") for stats/benches.
const char* PuKernelName(PuKernelKind kind);

struct PuKernelOptions {
  /// kAuto picks literal when the graph reduces to substring search and
  /// lazy-dfa otherwise; the forced choices exist for equivalence tests
  /// and baseline benchmarks.
  enum class Force { kAuto, kLazyDfa, kNfaLoop };
  Force force = Force::kAuto;

  /// Lazy-DFA subset-state cache bound (per PU). Once full, a transition
  /// miss makes the PU re-run the current string through the NFA loop;
  /// cached territory keeps serving fast.
  int max_dfa_states = 4096;
};

/// The SIMD backend's two exact skips around a lazy-DFA run
/// (CompiledPuProgram::dfa_skips()).
struct LazyDfaSkips {
  /// Reset-state skip: the start set (1..CompiledPuProgram::kMaxSkipBytes
  /// members).
  simd::ByteSet start;
  /// One accept edge's trigger token, anchored on its chain position
  /// that matches the fewest bytes. Candidates are occurrences of an
  /// anchor byte, verified against the edge's byte_mask window.
  struct AcceptToken {
    int edge;    // index into CompiledPuProgram::edges()
    int anchor;  // chain position
  };
  /// Accept-token row filter (CompiledPuProgram::MayAccept): one entry
  /// per distinct accept token; empty — no filter — when the union of
  /// the anchor bytes exceeds CompiledPuProgram::kMaxSkipBytes.
  std::vector<AcceptToken> accept_tokens;
  simd::ByteSet accept_anchors;
};

/// The immutable, shareable compilation of one configuration vector:
/// decoded token NFA, the bit-parallel edge tables the interpreter and
/// lazy DFA execute over, the byte-class partition, and — when eligible —
/// the literal stages.
class CompiledPuProgram {
 public:
  /// One (trigger token, state) edge of the bit-parallel machine.
  struct Edge {
    int state;
    int chain_len;
    bool start_gated;
    uint64_t fired_bit;
    uint64_t pred_mask;                   // predecessor-state bitmask
    std::array<uint64_t, 256> byte_mask;  // chain positions matching byte
  };

  /// One stage of the literal kernel: LIKE-style ordered substring.
  struct LiteralStage {
    BoyerMooreMatcher matcher;  // owns the needle; used when folding case
    bool case_insensitive;
  };

  /// Decodes, validates against the geometry, builds the edge tables and
  /// byte classes, and selects the kernel. Fails exactly where the old
  /// per-PU Configure failed (CapacityExceeded and structural errors).
  static Result<std::shared_ptr<const CompiledPuProgram>> Compile(
      const ConfigVector& config, const DeviceConfig& device,
      const PuKernelOptions& options = {});

  PuKernelKind kernel() const { return kernel_; }
  const TokenNfa& nfa() const { return nfa_; }

  const std::vector<Edge>& edges() const { return edges_; }
  uint64_t latch_mask() const { return latch_mask_; }
  uint64_t accept_mask() const { return accept_mask_; }

  /// Tagged output streams (1 for ordinary programs; K for set-compiled
  /// unions, docs/PATTERN_SETS.md). Executors emit one 16-bit match index
  /// per stream per string, each saturated independently.
  int num_patterns() const { return num_patterns_; }
  /// Accept-state bitmask of one output stream (accept_mask() is their OR).
  uint64_t pattern_accept_mask(int pattern) const {
    return pattern_accept_masks_[static_cast<size_t>(pattern)];
  }

  const std::vector<LiteralStage>& literal_stages() const {
    return literal_stages_;
  }

  int num_byte_classes() const { return num_byte_classes_; }
  uint16_t byte_class(uint8_t byte) const { return byte_classes_[byte]; }
  const std::array<uint16_t, 256>& byte_classes() const {
    return byte_classes_;
  }
  /// Per-edge byte masks of one byte class (all bytes of a class share
  /// them by construction).
  const std::vector<uint64_t>& class_edge_masks(int byte_class) const {
    return class_edge_masks_[static_cast<size_t>(byte_class)];
  }

  int max_dfa_states() const { return max_dfa_states_; }

  /// State indices in chain order when the graph is chain-shaped
  /// (regex/token_nfa.h AnalyzeChainShape); empty otherwise. The literal
  /// kernel and the bit-parallel host backend both key off this.
  const std::vector<int>& chain_state_order() const { return chain_states_; }

  /// True when every member of a set-compiled union is chain-shaped (for
  /// single-pattern programs: the whole graph is). The SIMD backend's
  /// bit-parallel-set route keys off this — each member then runs its own
  /// Shift-And engine, which is exactly the tagged-stream semantics since
  /// union members are disjoint.
  bool members_chain_shaped() const { return members_chain_shaped_; }

  /// Bytes that can move the machine out of the empty (reset) state: the
  /// first-position bytes of every start-gated edge. While no state is
  /// active, any byte outside this set provably leaves the machine in the
  /// reset state, so host backends may skip-scan to the next occurrence
  /// (dfa_skips()->start is the same set, ready to scan).
  const std::vector<uint8_t>& start_bytes() const { return start_bytes_; }

  /// Largest start set (and accept-anchor union) the SIMD backend's
  /// lazy-DFA skips take. The skip wins where start bytes are rare in
  /// the text and loses where they are common; an eighth of the byte
  /// space keeps the wide-set losses measured on the address corpus out
  /// (docs/BACKENDS.md).
  static constexpr int kMaxSkipBytes = 32;

  /// The SIMD backend's exact skips around this program's lazy DFA,
  /// analyzed once here; null when the program is not eligible. Eligible
  /// means a lazy-DFA program whose start set has 1..kMaxSkipBytes
  /// members — the one predicate both CpuSimdBackend::Supports and the
  /// SIMD execution read.
  const LazyDfaSkips* dfa_skips() const {
    return dfa_skips_.has_value() ? &*dfa_skips_ : nullptr;
  }

  /// The accept-token row filter: false only when no accept edge's
  /// trigger token occurs anywhere in `input`. A stream first accepts when
  /// an accept state's trigger edge fires, which needs that edge's whole
  /// token chain to match the bytes ending there — so false proves every
  /// stream's result is 0. True means "run the DFA", and is the answer
  /// for every program without the filter (dfa_skips() null or its
  /// accept_tokens empty).
  bool MayAccept(std::string_view input, simd::SimdLevel level) const;

 private:
  CompiledPuProgram() = default;

  TokenNfa nfa_;
  PuKernelKind kernel_ = PuKernelKind::kNfaLoop;
  std::vector<Edge> edges_;
  uint64_t latch_mask_ = 0;
  uint64_t accept_mask_ = 0;
  int num_patterns_ = 1;
  std::vector<uint64_t> pattern_accept_masks_;
  std::vector<LiteralStage> literal_stages_;
  std::array<uint16_t, 256> byte_classes_{};
  int num_byte_classes_ = 0;
  std::vector<std::vector<uint64_t>> class_edge_masks_;
  int max_dfa_states_ = 0;
  std::vector<int> chain_states_;
  bool members_chain_shaped_ = false;
  std::vector<uint8_t> start_bytes_;
  std::optional<LazyDfaSkips> dfa_skips_;
};

/// Candidate scan installed in front of a lazy-DFA run: while the DFA
/// sits in the reset state, skip to the next byte of `bytes` — any byte
/// outside it provably keeps the machine reset. `bytes` is a program's
/// LazyDfaSkips::start (CompiledPuProgram::start_bytes() as a scan set).
struct StartBytePrefilter {
  const simd::ByteSet* bytes = nullptr;
  /// Vector width for the scan; resolved once by the owner (the level
  /// lookup reads the environment — too slow for per-string loops).
  /// FindByteSetAtLevel clamps to the host's detected capability.
  simd::SimdLevel level = simd::SimdLevel::kAvx2;
};

/// Lazy-DFA transition memo over a compiled program. The DFA state is the
/// full PU machine state (every edge's chain shift register plus the
/// active-state mask), so the construction is exact — not an
/// approximation of the NFA semantics. Mutable and intentionally NOT
/// thread-safe: each host thread owns one through its ProcessingUnit; the
/// program underneath is shared and immutable.
class LazyDfaCache {
 public:
  explicit LazyDfaCache(const CompiledPuProgram* program);

  /// Executes `input` through the memoized DFA. Returns false when the
  /// bounded state cache overflowed before the string finished (the
  /// caller falls back to the NFA loop); true otherwise, with
  /// *match_index set to the PU result (0 = no match, 1-based end
  /// position saturated at 65535). A non-null `prefilter` skip-scans the
  /// reset state with SIMD; results are identical with or without it.
  bool Run(std::string_view input, uint16_t* match_index,
           const StartBytePrefilter* prefilter = nullptr);

  /// Set-program variant: fills match[0 .. program->num_patterns()) with
  /// each tagged stream's first-accept index (0 = no match, saturation per
  /// stream). The scan continues past earlier streams' accepts until every
  /// stream has matched, so the DFA may intern states Run() never reaches;
  /// overflow semantics are the same (false = fall back to the NFA loop).
  bool RunSet(std::string_view input, uint16_t* match,
              const StartBytePrefilter* prefilter = nullptr);

  /// Subset states materialized so far (observability for tests).
  size_t num_states() const { return regs_.size(); }

 private:
  /// Interns the machine state, returning its dense id; -1 when the cache
  /// is full and the state is new.
  int32_t Intern(std::vector<uint64_t> regs);
  /// Computes and caches the transition; -1 when the cache is full and
  /// the target state is not already materialized.
  int32_t Step(int32_t from, int byte_class);

  const CompiledPuProgram* program_;
  /// The hot path runs entirely over these flat arrays: one dependent
  /// load per input byte (`trans_[sid * classes + class]`) plus the
  /// accept flag — the interning map is only touched on cache misses.
  std::vector<int32_t> trans_;   // num_states x num_byte_classes; -1 = miss
  std::vector<uint8_t> accept_;  // per state id
  std::vector<uint64_t> accept_tags_;  // per state id: accepting streams
  std::vector<std::vector<uint64_t>> regs_;  // per state id: machine state
  std::map<std::vector<uint64_t>, int32_t> ids_;
};

}  // namespace doppio
