// Common matcher interface shared by every regular-expression execution
// strategy (software backtracking / NFA simulation / lazy DFA, and the
// simulated hardware PU).
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace doppio {

/// Result of an unanchored search over one string.
///
/// `end` follows the paper's HUDF convention: the 1-based position of the
/// match's last character (equivalently: bytes consumed when the match
/// completed). 0 together with matched=true denotes an empty match at the
/// start of the string; matched=false always has end==0.
struct MatchResult {
  bool matched = false;
  int32_t end = 0;

  bool operator==(const MatchResult& other) const {
    return matched == other.matched && end == other.end;
  }
};

/// Compilation options shared by all strategies.
struct CompileOptions {
  /// ASCII case-insensitive matching (ILIKE / case-insensitive collation).
  bool case_insensitive = false;
  /// Pattern must match starting at the first byte.
  bool anchor_start = false;
  /// Pattern must match up to the last byte.
  bool anchor_end = false;
  /// User-specified collation (paper §6.4): pairs of bytes treated as
  /// equivalent in both directions — e.g. {'a', 0xE4} lets 'a' in the
  /// pattern also match 'ä' (latin-1). Applied symmetrically on top of
  /// case folding. In hardware these live in the character matchers'
  /// extra compare registers.
  std::vector<std::pair<uint8_t, uint8_t>> collation_equivalents;
};

class StringMatcher {
 public:
  virtual ~StringMatcher() = default;

  /// Finds the earliest-ending match in `input` (strategies differ only in
  /// cost, not in the matched/unmatched outcome).
  virtual MatchResult Find(std::string_view input) const = 0;

  /// Convenience: true if the pattern occurs in `input`.
  bool Matches(std::string_view input) const { return Find(input).matched; }
};

}  // namespace doppio
