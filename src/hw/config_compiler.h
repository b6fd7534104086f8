// Software-side compiler: SQL pattern -> configuration vector, with the
// deployed geometry's capacity checks (paper §6.4, §7.9).
//
// This is the fpga_regex_get_config() step of the UDF pseudo-code: it runs
// on the CPU and fails with CapacityExceeded when the pattern needs more
// character matchers or state-graph nodes than the deployment provides —
// the signal that drives hybrid execution.
//
// Cost: the paper measures < 1 µs. Here, on a 4-core x86 VM (Release),
// a warm compile of Q1-Q4 takes 1.6-6 µs (median of 20 000 calls; the
// over-capacity QH fails in about 8 µs). Between scans, where the
// simulator's functional pass has evicted the caches, one compile takes
// 8-21 µs (hudf_sql statement mix). A statement compiles its pattern
// once; doppio.regex.config_compiles counts every call.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hw/config_vector.h"
#include "hw/device_config.h"
#include "regex/matcher.h"
#include "regex/pattern_ast.h"
#include "regex/token_nfa.h"

namespace doppio {

struct RegexConfig {
  ConfigVector vector;
  TokenNfa nfa;  // decoded view, used by the simulator and for stats
  int states_used = 0;
  int matchers_used = 0;
  /// CPU time spent generating the vector (the Fig. 10 "Config. Gen." bar).
  double compile_seconds = 0;
};

/// Compiles a regex-dialect pattern against a deployment geometry.
Result<RegexConfig> CompileRegexConfig(std::string_view pattern,
                                       const DeviceConfig& device,
                                       const CompileOptions& options = {});

/// Same, from an already-parsed AST.
Result<RegexConfig> CompileRegexConfig(const AstNode& ast,
                                       const DeviceConfig& device,
                                       const CompileOptions& options = {});

/// Checks an extracted token NFA against a geometry.
Status CheckCapacity(const TokenNfa& nfa, const DeviceConfig& device);

/// Compiles a *set* of already-compiled member configs into one combined
/// config: the union NFA with tagged accepts (docs/PATTERN_SETS.md).
/// Member k's matches surface on output stream k. Fails with
/// CapacityExceeded when the merged token/trigger/transition program does
/// not fit one PU (token dedup across members is applied first) — the
/// signal that sends the batch back to the multi-pass planner.
Result<RegexConfig> CompileRegexSetConfig(
    const std::vector<const TokenNfa*>& members, const DeviceConfig& device);

}  // namespace doppio
