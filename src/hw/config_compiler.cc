#include "hw/config_compiler.h"

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "regex/pattern_parser.h"
#include "regex/token_extractor.h"

namespace doppio {

namespace {

obs::Counter& ConfigCompilesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "doppio.regex.config_compiles",
      "single-pattern configuration-vector compiles (CompileRegexConfig)");
  return *counter;
}

Result<RegexConfig> CompileAst(const AstNode& ast, const DeviceConfig& device,
                               const CompileOptions& options) {
  Stopwatch watch;
  DOPPIO_ASSIGN_OR_RETURN(TokenNfa nfa, ExtractTokenNfa(ast, options));
  DOPPIO_RETURN_NOT_OK(CheckCapacity(nfa, device));
  DOPPIO_ASSIGN_OR_RETURN(ConfigVector vector, ConfigVector::Encode(nfa));

  RegexConfig config;
  config.states_used = nfa.NumStates();
  config.matchers_used = nfa.TotalMatchers();
  config.vector = std::move(vector);
  config.nfa = std::move(nfa);
  config.compile_seconds = watch.ElapsedSeconds();
  return config;
}

}  // namespace

Status CheckCapacity(const TokenNfa& nfa, const DeviceConfig& device) {
  const int matchers = nfa.TotalMatchers();
  if (matchers > device.max_chars) {
    return Status::CapacityExceeded(
        "pattern needs " + std::to_string(matchers) +
        " character matchers, deployment has " +
        std::to_string(device.max_chars));
  }
  const int states = nfa.NumStates();
  if (states > device.max_states) {
    return Status::CapacityExceeded(
        "pattern needs " + std::to_string(states) +
        " states, deployment has " + std::to_string(device.max_states));
  }
  return Status::OK();
}

Result<RegexConfig> CompileRegexConfig(const AstNode& ast,
                                       const DeviceConfig& device,
                                       const CompileOptions& options) {
  ConfigCompilesCounter().Add();
  return CompileAst(ast, device, options);
}

Result<RegexConfig> CompileRegexSetConfig(
    const std::vector<const TokenNfa*>& members, const DeviceConfig& device) {
  Stopwatch watch;
  DOPPIO_ASSIGN_OR_RETURN(TokenNfa nfa, BuildUnionNfa(members));
  DOPPIO_RETURN_NOT_OK(CheckCapacity(nfa, device));
  if (nfa.NumStates() > 64) {
    // CompiledPuProgram would reject it later; fail at compile time so the
    // scheduler falls back to the multi-pass planner up front.
    return Status::CapacityExceeded("pattern-set union exceeds 64 states");
  }
  DOPPIO_ASSIGN_OR_RETURN(ConfigVector vector, ConfigVector::Encode(nfa));

  RegexConfig config;
  config.states_used = nfa.NumStates();
  config.matchers_used = nfa.TotalMatchers();
  config.vector = std::move(vector);
  config.nfa = std::move(nfa);
  config.compile_seconds = watch.ElapsedSeconds();
  return config;
}

Result<RegexConfig> CompileRegexConfig(std::string_view pattern,
                                       const DeviceConfig& device,
                                       const CompileOptions& options) {
  ConfigCompilesCounter().Add();
  Stopwatch watch;
  // '^'/'$' anchors become compile flags; the extractor rejects them
  // (the hardware searches unanchored), routing such patterns to software.
  DOPPIO_ASSIGN_OR_RETURN(AnchoredPattern parsed,
                          ParseAnchoredPattern(pattern));
  DOPPIO_ASSIGN_OR_RETURN(
      RegexConfig config,
      CompileAst(*parsed.ast, device, parsed.Options(options)));
  config.compile_seconds = watch.ElapsedSeconds();
  return config;
}

}  // namespace doppio
