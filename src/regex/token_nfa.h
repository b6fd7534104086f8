// Token-level NFA: the abstract machine implemented by the FPGA's
// Processing Unit (paper §6).
//
// A *token* is a chain of Character Matchers — each matching an exact byte
// (possibly with case/collation alternatives) or a [lo-hi] range, the
// latter realized by a coupled matcher pair. The *State Graph* is a set of
// states where
//   * a state is activated when one of its trigger tokens completes AND one
//     of its predecessor states was active when that token started
//     (states with no predecessors are start-gated: always enabled),
//   * a state with the `latch` flag stays active once activated — this is
//     how '.*' glue costs no character matchers,
//   * a state may be its own predecessor (re-trigger), which implements '+'
//     over a token,
//   * match is signalled the first time an accept state activates; the
//     reported value is the 1-based position of the match's last character.
//
// TokenNfaMatcher executes these semantics in plain software and is the
// reference model the cycle-level PU simulator is tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "regex/matcher.h"

namespace doppio {

/// One Character Matcher position within a token chain.
struct CharSpec {
  /// Matches any byte (wildcard '.'); costs a coupled matcher pair.
  bool any = false;
  /// Inclusive byte ranges; a single exact byte is {c, c}. A spec with k
  /// entries needs k compare registers (2 per true range via pairing).
  struct Range {
    uint8_t lo;
    uint8_t hi;
    auto operator<=>(const Range&) const = default;
  };
  std::vector<Range> ranges;

  bool Test(uint8_t c) const {
    if (any) return true;
    for (const Range& r : ranges) {
      if (c >= r.lo && c <= r.hi) return true;
    }
    return false;
  }

  /// Character-matcher slots consumed (paper §6.3: a range couples two
  /// matchers; an exact byte uses one). Case/collation alternatives are
  /// free: every deployed matcher carries the extra compare registers
  /// whether or not a query uses them (paper §6.4), so a pair of
  /// single-byte ranges that are case counterparts costs one slot.
  int MatcherCost() const {
    if (any) return 2;
    int cost = 0;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const Range& r = ranges[i];
      if (r.lo != r.hi) {
        cost += 2;
        continue;
      }
      // Case-counterpart single byte already charged with its partner?
      bool is_collation_alt = false;
      for (size_t j = 0; j < i; ++j) {
        const Range& p = ranges[j];
        if (p.lo == p.hi && (p.lo ^ 0x20) == r.lo) {
          is_collation_alt = true;
          break;
        }
      }
      if (!is_collation_alt) cost += 1;
    }
    return cost;
  }

  auto operator<=>(const CharSpec&) const = default;
};

struct HwToken {
  std::vector<CharSpec> chain;

  int length() const { return static_cast<int>(chain.size()); }
  int MatcherCost() const {
    int cost = 0;
    for (const CharSpec& spec : chain) cost += spec.MatcherCost();
    return cost;
  }
  auto operator<=>(const HwToken&) const = default;
};

struct HwState {
  /// Tokens whose completion can activate this state.
  std::vector<int> trigger_tokens;
  /// Predecessor states gating the trigger chains; empty = start-gated.
  /// May contain the state's own index (re-trigger / '+').
  std::vector<int> pred_states;
  bool latch = false;
  bool accept = false;
  /// Member-pattern tag for set-compiled programs (union-NFA with tagged
  /// accepts, docs/PATTERN_SETS.md): accept activation reports a match for
  /// output stream `pattern_tag`. 0 for ordinary single-pattern programs.
  /// Bounded to [0, 63] so a set's streams fit one uint64 mask.
  int pattern_tag = 0;
};

/// The runtime-parameterizable program of one Processing Unit.
struct TokenNfa {
  std::vector<HwToken> tokens;
  std::vector<HwState> states;

  int NumStates() const { return static_cast<int>(states.size()); }
  /// Number of tagged output streams: max pattern_tag + 1. A plain
  /// single-pattern program reports 1.
  int NumPatterns() const {
    int max_tag = 0;
    for (const HwState& s : states) max_tag = std::max(max_tag, s.pattern_tag);
    return max_tag + 1;
  }
  /// Total character-matcher slots the configuration occupies.
  int TotalMatchers() const {
    int cost = 0;
    for (const HwToken& t : tokens) cost += t.MatcherCost();
    return cost;
  }

  /// Human-readable dump for debugging and golden tests.
  std::string ToString() const;

  /// Structural sanity checks (indices in range, accept reachable, ...).
  Status Validate() const;
};

/// If the state graph is a single chain s_0 -> s_1 -> ... -> s_{k-1}
/// where s_0 is start-gated, every non-final state latches (the '.*'
/// glue) and only the final state accepts, each state has exactly one
/// trigger token, and there is no fan-in, fan-out or self-loop, returns
/// the state indices in chain order; nullopt otherwise.
///
/// Such a program is exactly LIKE '%t_0%t_1%...%' over fixed-length
/// token chains: ordered, non-overlapping occurrences, and greedy
/// earliest matching per stage yields the same first-accept position as
/// the NFA semantics. This one analysis backs both the literal PU kernel
/// (hw/pu_kernel) and the bit-parallel host backend (regex/bitparallel).
std::optional<std::vector<int>> AnalyzeChainShape(const TokenNfa& nfa);

/// Builds the union automaton of `members` with tagged accepts: member k's
/// states are copied with pattern_tag = k, predecessor indices rebased, and
/// structurally identical tokens deduplicated across members (the trigger
/// bitmask makes a shared token free). Members stay fully disjoint in the
/// state graph, so each tagged stream behaves exactly as the member run
/// alone. Fails with InvalidArgument for an empty set, a member that is
/// itself a set, or more than 64 members; CapacityExceeded when the union
/// overflows the config-vector format (255 tokens/states).
Result<TokenNfa> BuildUnionNfa(const std::vector<const TokenNfa*>& members);

/// Extracts member `pattern_tag` of a union back out as a standalone
/// single-pattern NFA (tags cleared, tokens/states renumbered). Inverse of
/// BuildUnionNfa per member; used by the SIMD backend to run chain-shaped
/// members bit-parallel.
Result<TokenNfa> ExtractMemberNfa(const TokenNfa& union_nfa, int pattern_tag);

/// Software execution of the PU semantics (the reference model).
class TokenNfaMatcher : public StringMatcher {
 public:
  explicit TokenNfaMatcher(TokenNfa nfa);

  MatchResult Find(std::string_view input) const override;

  /// Set semantics over a tagged union: per-stream first-accept positions
  /// (index = pattern_tag, size = nfa().NumPatterns()). The scan runs until
  /// every stream has matched or the input ends; stream p of the result is
  /// bit-identical to Find() on member p alone.
  std::vector<MatchResult> FindSet(std::string_view input) const;

  const TokenNfa& nfa() const { return nfa_; }

 private:
  struct Edge {
    int token;
    int state;
    int chain_len;
    uint64_t fired_bit;
  };

  TokenNfa nfa_;
  std::vector<Edge> edges_;
};

}  // namespace doppio
