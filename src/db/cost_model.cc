#include "db/cost_model.h"

#include <algorithm>

#include "common/random.h"
#include "common/stopwatch.h"
#include "hw/perf_model.h"
#include "hw/pu_kernel.h"
#include "regex/backtrack_matcher.h"
#include "regex/bitparallel.h"
#include "regex/dfa_matcher.h"
#include "regex/like_translator.h"
#include "regex/pattern_parser.h"
#include "regex/substring_search.h"

namespace doppio {

OperatorCostModel::Calibration OperatorCostModel::Measure(int cpu_cores) {
  Calibration cal;
  cal.cpu_cores = cpu_cores;

  // Synthetic corpus: a few hundred KB of address-like text.
  Rng rng(123);
  std::vector<std::string> corpus;
  int64_t bytes = 0;
  while (bytes < 400'000) {
    corpus.push_back(rng.FromAlphabet(
        "abcdefghijklmnopqrstuvwxyz|0123456789 ", 64));
    bytes += 64;
  }

  {
    BoyerMooreMatcher bm("Strasse");
    Stopwatch watch;
    size_t sink = 0;
    for (const auto& s : corpus) sink += bm.Find(s) != std::string::npos;
    cal.like_bytes_per_sec =
        static_cast<double>(bytes) / std::max(1e-9, watch.ElapsedSeconds());
    (void)sink;
  }
  {
    auto dfa = DfaMatcher::Compile("(st|ra).*(s[0-9]e)");
    Stopwatch watch;
    size_t sink = 0;
    for (const auto& s : corpus) sink += (*dfa)->Matches(s);
    cal.dfa_bytes_per_sec =
        static_cast<double>(bytes) / std::max(1e-9, watch.ElapsedSeconds());
    (void)sink;
  }
  {
    // Bit-parallel SIMD backend over a word-sized automaton stage
    // ("s[0-9]e"-shaped: rare anchor byte + mask verification).
    TokenNfa nfa;
    HwToken token;
    token.chain.push_back(CharSpec{false, {{'s', 's'}}});
    token.chain.push_back(CharSpec{false, {{'0', '9'}}});
    token.chain.push_back(CharSpec{false, {{'e', 'e'}}});
    nfa.tokens.push_back(std::move(token));
    HwState state;
    state.trigger_tokens = {0};
    state.accept = true;
    nfa.states.push_back(std::move(state));
    std::optional<BitParallelProgram> bp = BitParallelProgram::Compile(nfa);
    Stopwatch watch;
    size_t sink = 0;
    for (const auto& s : corpus) sink += bp->Find(s) != 0;
    cal.simd_bytes_per_sec =
        static_cast<double>(bytes) / std::max(1e-9, watch.ElapsedSeconds());
    (void)sink;
  }
  {
    // Scalar regex path: compile + match per tuple.
    Stopwatch watch;
    size_t sink = 0;
    const int kSamples = 500;
    for (int i = 0; i < kSamples; ++i) {
      auto matcher =
          BacktrackMatcher::Compile("(st|ra).*(s[0-9]e)");
      sink += (*matcher)->Matches(corpus[static_cast<size_t>(i) %
                                         corpus.size()]);
    }
    cal.regexp_tuple_seconds = watch.ElapsedSeconds() / kSamples;
    (void)sink;
  }
  return cal;
}

OperatorCostModel::OperatorCostModel(const DeviceConfig& device,
                                     Calibration calibration)
    : device_(device), calibration_(calibration) {}

double OperatorCostModel::PredictLike(const TableStats& stats) const {
  return static_cast<double>(stats.heap_bytes) /
         (calibration_.like_bytes_per_sec *
          static_cast<double>(calibration_.cpu_cores));
}

double OperatorCostModel::PredictRegexpLike(const TableStats& stats) const {
  return static_cast<double>(stats.rows) * calibration_.regexp_tuple_seconds /
         static_cast<double>(calibration_.cpu_cores);
}

double OperatorCostModel::PredictFpga(const RegexConfig& /*config*/,
                                      const TableStats& stats) const {
  return EstimateJob(device_, stats.rows, stats.heap_bytes, /*engines=*/1)
      .seconds;
}

double OperatorCostModel::PredictHybrid(const HybridPlan& plan,
                                        const TableStats& stats,
                                        double prefix_selectivity) const {
  const double dfa_pass =
      static_cast<double>(stats.heap_bytes) /
      (calibration_.dfa_bytes_per_sec *
       static_cast<double>(calibration_.cpu_cores));
  if (plan.strategy == HybridStrategy::kSoftwareOnly) {
    return dfa_pass;  // automaton pass over everything
  }
  const double fpga = PredictFpga(*plan.fpga_config, stats);
  if (plan.strategy == HybridStrategy::kFpgaOnly) return fpga;
  return fpga + prefix_selectivity * dfa_pass;
}

Result<OperatorCostModel::HostPrediction> OperatorCostModel::PredictHostProgram(
    const CompiledPuProgram& program, const TableStats& stats) const {
  HostPrediction out;
  out.backend = BackendRegistry::Global().ChooseHost(program).id();
  double bytes_per_sec = calibration_.dfa_bytes_per_sec;
  if (out.backend == BackendId::kCpuSimd &&
      calibration_.simd_bytes_per_sec > 0) {
    bytes_per_sec = calibration_.simd_bytes_per_sec;
  } else if (program.kernel() == PuKernelKind::kLiteral &&
             calibration_.like_bytes_per_sec > 0) {
    bytes_per_sec = calibration_.like_bytes_per_sec;
  }
  if (bytes_per_sec <= 0) {
    return Status::Internal("cost model is not calibrated");
  }
  // One pool worker runs the slice: no core scaling here.
  out.seconds = static_cast<double>(stats.heap_bytes) / bytes_per_sec;
  return out;
}

namespace {

// If `ast` is literals glued only by '.*' — i.e. an ordered multi-
// substring search — returns the equivalent LIKE pattern (%s1%s2%...%).
bool RegexAsLikePattern(const AstNode& ast, std::string* like_pattern) {
  std::vector<const AstNode*> parts;
  if (ast.kind == AstKind::kLiteral) {
    parts.push_back(&ast);
  } else if (ast.kind == AstKind::kConcat) {
    for (const auto& child : ast.children) parts.push_back(child.get());
  } else {
    return false;
  }
  std::string out = "%";
  bool any_literal = false;
  for (const AstNode* part : parts) {
    if (part->kind == AstKind::kLiteral) {
      for (char c : part->literal) {
        if (c == '%' || c == '_' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      out.push_back('%');
      any_literal = true;
      continue;
    }
    bool is_dot_star = part->kind == AstKind::kRepeat &&
                       part->repeat_min == 0 && part->repeat_max == -1 &&
                       part->children[0]->kind == AstKind::kCharClass &&
                       part->children[0]->char_class == CharSet::AnyChar();
    if (!is_dot_star) return false;
    // '.*' between literals is already implied by the '%' separators.
  }
  if (!any_literal) return false;
  *like_pattern = out;
  return true;
}

}  // namespace

OperatorCostModel::Choice OperatorCostModel::Choose(
    const StringFilterSpec& spec, const TableStats& stats,
    const HybridPlan* plan) const {
  // Determine the regex-dialect pattern, and whether the substring fast
  // path applies (with the pattern it would need).
  std::string pattern = spec.pattern;
  bool like_fast_path = false;
  std::string like_pattern;

  if (spec.op == StringFilterSpec::Op::kLike) {
    auto like = TranslateLike(spec.pattern);
    if (like.ok()) {
      pattern = like->regex;
      if (!like->anchored_start && !like->anchored_end &&
          like->is_multi_substring && !spec.case_insensitive) {
        like_fast_path = true;
        like_pattern = spec.pattern;  // already in LIKE syntax
      }
    }
  } else if (!spec.case_insensitive) {
    auto ast = ParsePattern(spec.pattern);
    if (ast.ok() && RegexAsLikePattern(**ast, &like_pattern)) {
      like_fast_path = true;
    }
  }

  Choice best;
  best.op = StringFilterSpec::Op::kRegexpLike;
  best.predicted_seconds = PredictRegexpLike(stats);
  best.reason = "scalar regex baseline";

  if (like_fast_path) {
    double seconds = PredictLike(stats);
    if (seconds < best.predicted_seconds) {
      best = {StringFilterSpec::Op::kLike, seconds, "substring fast path",
              spec.op == StringFilterSpec::Op::kLike ? "" : like_pattern};
    }
  }
  if (plan != nullptr) {
    const std::string rewritten =
        spec.op == StringFilterSpec::Op::kLike ? pattern : "";
    if (plan->strategy == HybridStrategy::kFpgaOnly) {
      const double fpga = PredictFpga(*plan->fpga_config, stats);
      if (fpga < best.predicted_seconds) {
        best = {StringFilterSpec::Op::kRegexpFpga, fpga,
                "hardware engine (fits deployed geometry)", rewritten};
      }
    } else {
      const double hybrid = PredictHybrid(*plan, stats);
      if (hybrid < best.predicted_seconds) {
        best = {StringFilterSpec::Op::kHybrid, hybrid,
                "hybrid: FPGA prefix + CPU post-processing", rewritten};
      }
    }
  }
  return best;
}

}  // namespace doppio
