#include "db/hybrid_executor.h"

#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "obs/metrics.h"
#include "regex/pattern_parser.h"
#include "sched/result_cache.h"

namespace doppio {

namespace {

obs::Counter& HybridStrategyCounter(HybridStrategy strategy) {
  static obs::Counter* fpga = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hybrid.plans_fpga_only", "hybrid plans served fully on FPGA");
  static obs::Counter* split = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hybrid.plans_split",
      "hybrid plans split FPGA prefix + CPU postprocess");
  static obs::Counter* software = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hybrid.plans_software_only",
      "hybrid plans served fully in software");
  switch (strategy) {
    case HybridStrategy::kFpgaOnly: return *fpga;
    case HybridStrategy::kHybrid: return *split;
    case HybridStrategy::kSoftwareOnly: break;
  }
  return *software;
}

bool IsDotStarNode(const AstNode& node) {
  return node.kind == AstKind::kRepeat && node.repeat_min == 0 &&
         node.repeat_max == -1 &&
         node.children[0]->kind == AstKind::kCharClass &&
         node.children[0]->char_class == CharSet::AnyChar();
}

// Clones children [begin, end) of a concat into a new concat AST.
AstNodePtr ConcatRange(const AstNode& concat, size_t begin, size_t end) {
  std::vector<AstNodePtr> parts;
  parts.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    parts.push_back(concat.children[i]->Clone());
  }
  return AstNode::Concat(std::move(parts));
}

// The part of a concat before a cut.
AstNodePtr ConcatPrefix(const AstNode& concat, size_t cut) {
  return ConcatRange(concat, 0, cut);
}

// The part of a concat after a cut (the cut's own '.*' excluded).
AstNodePtr ConcatSuffix(const AstNode& concat, size_t cut) {
  return ConcatRange(concat, cut + 1, concat.children.size());
}

// A split plan's suffix never runs on the PU, so it compiles against the
// host kernels' limits instead of the deployed geometry's: 64 states, the
// width of CompiledPuProgram's state masks, and 255 characters, the most
// the configuration vector's one-byte token and chain counts encode.
constexpr int kHostKernelMaxChars = 255;
constexpr int kHostKernelMaxStates = 64;

// Compiles a split plan's suffix into a host program; null when it does
// not compile (beyond the host kernels' limits, or able to match the empty
// string).
std::shared_ptr<const CompiledPuProgram> CompileHostSuffix(
    const AstNode& suffix, const DeviceConfig& device,
    const CompileOptions& options) {
  DeviceConfig host = device;
  host.max_chars = kHostKernelMaxChars;
  host.max_states = kHostKernelMaxStates;
  Result<RegexConfig> config = CompileRegexConfig(suffix, host, options);
  if (!config.ok()) return nullptr;
  auto program = CompiledPuProgram::Compile(config->vector, host);
  return program.ok() ? std::move(*program) : nullptr;
}

// Full-pattern scan on the software matchers (the planner's software
// strategy, and the degradation target when the hardware path fails with
// a fallback-eligible error). Shares the implementation with the
// scheduler's CPU route for patterns with no device part (db/hudf.h).
Result<HybridResult> RunSoftwareScan(const Bat& input,
                                     std::string_view pattern,
                                     const CompileOptions& options) {
  DOPPIO_ASSIGN_OR_RETURN(HudfResult scan,
                          RunDfaScanInSoftware(input, pattern, options));
  HybridResult out;
  out.result = std::move(scan.result);
  out.stats = std::move(scan.stats);
  return out;
}

// Runs `config` over `input` as one scan query reported as `route`: rows
// `hit` covers are served from its block, the rest run on `source` —
// device slices with the paper's HUDF geometry (one partition on pool
// device 0, span "regexp_fpga"), or one host slice. A `continuation`
// resumes the values into the full pattern's. The executor offers the
// complete result back to `cache`.
Result<HybridResult> ScanPlanned(Hal* hal, const Bat& input,
                                 const RegexConfig& config,
                                 const CacheHit& hit, sched::ResultCache* cache,
                                 SliceSource source, std::string route,
                                 const ScanContinuation* continuation) {
  ScanPlan plan;
  plan.hal = hal;
  plan.cache = cache;
  ScanQuery& query = plan.queries.emplace_back();
  DOPPIO_RETURN_NOT_OK(query.SetView(input));
  HybridResult out;
  DOPPIO_ASSIGN_OR_RETURN(
      out.result, ZeroedInt16Bat(query.view_rows, hal->bat_allocator()));
  query.result = out.result.get();
  query.config = &config;
  query.continuation = continuation;
  query.snapshot = {input.id(), input.version()};
  if (source == SliceSource::kDevice) query.span_name = "regexp_fpga";
  query.route = std::move(route);
  query.AddSlices(hit, 0, query.view_rows, source);
  DOPPIO_RETURN_NOT_OK(ExecuteScanPlan(&plan));
  out.stats = std::move(query.stats);
  out.cpu_postprocessed = query.resumed;
  return out;
}

// Pre-filter subsumption (docs/RESULT_CACHE.md): a cached scan of a
// '.*'-cut prefix of `pattern` is a *complete* candidate set for it — the
// full unanchored pattern can only match rows where the prefix matched —
// so the cached block serves as the prefix's values and the cut's suffix
// resumes each candidate from its cached match index. Probes the cut
// prefixes longest-first on the same column snapshot; returns the result
// on a hit, nullopt when no usable entry exists. Best-effort by design:
// internal failures fall through to the normal offload rather than
// surfacing as errors.
std::optional<HybridResult> TryPrefilterRefine(sched::ResultCache* cache,
                                               Hal* hal, const Bat& input,
                                               const HybridPlan& plan) {
  const AstNode& ast = *plan.ast;
  if (ast.kind != AstKind::kConcat) return std::nullopt;
  const ColumnSnapshot column{input.id(), input.version()};
  const int64_t rows = input.count();
  std::vector<size_t> cut_points;
  for (size_t i = 0; i < ast.children.size(); ++i) {
    if (IsDotStarNode(*ast.children[i])) cut_points.push_back(i);
  }

  bool probed = false;
  for (auto it = cut_points.rbegin(); it != cut_points.rend(); ++it) {
    if (*it == 0) continue;  // empty prefix subsumes nothing
    AstNodePtr prefix = ConcatPrefix(ast, *it);
    auto prefix_config =
        CompileRegexConfig(*prefix, hal->device_config(), plan.options);
    if (!prefix_config.ok()) continue;
    probed = true;
    CacheHit hit =
        ResolveCached(cache, *prefix_config, column, rows, {.prefix = false});
    if (hit.block == nullptr) continue;

    Stopwatch suffix_watch;
    ScanContinuation continuation = ContinuationOf(plan);
    continuation.suffix = CompileHostSuffix(*ConcatSuffix(ast, *it),
                                            hal->device_config(), plan.options);
    continuation.full_config = &*plan.fpga_config;
    const double compile_seconds =
        prefix_config->compile_seconds + suffix_watch.ElapsedSeconds();
    Result<HybridResult> refined =
        ScanPlanned(hal, input, *prefix_config, hit, cache, SliceSource::kHost,
                    "fpga+cache_prefilter", &continuation);
    if (!refined.ok()) break;
    cache->CountPrefilterUse(rows - refined->cpu_postprocessed);
    refined->strategy = HybridStrategy::kFpgaOnly;
    // The hit's prefix and suffix compiles join the plan's config phase.
    refined->stats.config_gen_seconds += compile_seconds;
    return std::move(*refined);
  }
  if (probed) cache->CountPrefilterReject();
  return std::nullopt;
}

}  // namespace

Result<HybridPlan> PlanHybrid(std::string_view pattern,
                              const DeviceConfig& device,
                              const CompileOptions& options) {
  HybridPlan plan;
  plan.full_pattern = std::string(pattern);

  DOPPIO_ASSIGN_OR_RETURN(AnchoredPattern parsed,
                          ParseAnchoredPattern(pattern));
  plan.ast = std::move(parsed.ast);
  plan.options = parsed.Options(options);
  if (parsed.anchor_start || parsed.anchor_end) {
    // The hardware searches unanchored, and splitting an anchored pattern
    // would change its semantics: software handles it end to end.
    plan.strategy = HybridStrategy::kSoftwareOnly;
    return plan;
  }
  Stopwatch compile_watch;
  const AstNode& ast = *plan.ast;
  auto full = CompileRegexConfig(ast, device, plan.options);
  if (full.ok()) {
    plan.strategy = HybridStrategy::kFpgaOnly;
    plan.fpga_pattern = plan.full_pattern;
    plan.fpga_config = std::move(*full);
    plan.compile_seconds = compile_watch.ElapsedSeconds();
    return plan;
  }
  if (!full.status().IsCapacityExceeded()) return full.status();

  // Split at '.*' boundaries: try the longest prefix first.
  plan.strategy = HybridStrategy::kSoftwareOnly;
  if (ast.kind == AstKind::kConcat) {
    std::vector<size_t> cut_points;  // index of each top-level dot-star
    for (size_t i = 0; i < ast.children.size(); ++i) {
      if (IsDotStarNode(*ast.children[i])) cut_points.push_back(i);
    }
    for (auto it = cut_points.rbegin(); it != cut_points.rend(); ++it) {
      if (*it == 0) continue;  // empty prefix
      AstNodePtr prefix = ConcatPrefix(ast, *it);
      auto attempt = CompileRegexConfig(*prefix, device, plan.options);
      if (attempt.ok()) {
        plan.strategy = HybridStrategy::kHybrid;
        plan.fpga_pattern = prefix->ToString();
        plan.fpga_config = std::move(*attempt);
        AstNodePtr suffix = ConcatSuffix(ast, *it);
        plan.cpu_pattern = suffix->ToString();
        plan.cpu_suffix = CompileHostSuffix(*suffix, device, plan.options);
        break;
      }
      if (!attempt.status().IsCapacityExceeded()) return attempt.status();
    }
  }
  plan.compile_seconds = compile_watch.ElapsedSeconds();
  return plan;
}

ScanContinuation ContinuationOf(const HybridPlan& plan) {
  ScanContinuation continuation;
  continuation.suffix = plan.cpu_suffix;
  continuation.pattern = plan.full_pattern;
  continuation.options = plan.options;
  return continuation;
}

Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   std::string_view pattern,
                                   const CompileOptions& options,
                                   sched::ResultCache* cache) {
  DOPPIO_ASSIGN_OR_RETURN(HybridPlan plan,
                          PlanHybrid(pattern, hal->device_config(), options));
  return ExecuteHybrid(hal, input, plan, cache);
}

Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   const HybridPlan& plan,
                                   sched::ResultCache* cache) {
  const std::string& pattern = plan.full_pattern;
  const CompileOptions& options = plan.options;

  HybridResult out;
  out.strategy = plan.strategy;
  HybridStrategyCounter(plan.strategy).Add();

  // Every exit charges the plan's compiles to the config phase, once; the
  // scans below run the planned program and compile nothing.
  auto finish = [&](HybridResult result) {
    result.stats.config_gen_seconds += plan.compile_seconds;
    return result;
  };

  if (plan.strategy == HybridStrategy::kSoftwareOnly) {
    DOPPIO_ASSIGN_OR_RETURN(HybridResult sw,
                            RunSoftwareScan(input, pattern, options));
    sw.strategy = plan.strategy;
    return finish(std::move(sw));
  }

  // Admission snapshot for cache keying: the column identity and version
  // observed now. A concurrent append bumps the version, so entries
  // written under this snapshot can never serve the grown column.
  const ColumnSnapshot column{input.id(), input.version()};
  const int64_t rows = input.count();
  const RegexConfig& config = *plan.fpga_config;
  const bool full = plan.strategy == HybridStrategy::kFpgaOnly;

  // An exact hit serves the program's rows from cache. Every backend
  // (device, host program, cache) is bit-identical by construction, so the
  // block serves any caller. On a miss a kFpgaOnly plan refines a cached
  // coarser scan, else reuses a block of an earlier, shorter version of
  // the column and scans only the appended tail. The kHybrid pre-filter
  // reuses exact blocks only.
  CacheHit hit = ResolveCached(cache, config, column, rows, {.prefix = false});
  if (cache != nullptr && hit.block == nullptr) {
    if (full) {
      std::optional<HybridResult> refined =
          TryPrefilterRefine(cache, hal, input, plan);
      if (refined.has_value()) return finish(std::move(*refined));
      hit = ResolveCached(cache, config, column, rows, {.exact = false});
    } else {
      cache->CountPrefilterReject();
    }
  }

  // A pinned host backend (DOPPIO_FORCE_BACKEND=scalar|simd) runs a
  // kFpgaOnly plan's program through the kernel-backend registry instead
  // of offloading — same program, bit-identical results. A kHybrid scan
  // carries the plan's continuation; a cached pre-filter's candidate set
  // is identical to what the offload would produce (the completeness
  // guard keeps saturated/degraded scans out of the cache), so it yields
  // bit-identical results.
  SliceSource source = SliceSource::kDevice;
  std::string route = "fpga";
  if (full) {
    const std::optional<BackendId> forced = ForcedBackend();
    if (forced == BackendId::kCpuScalar || forced == BackendId::kCpuSimd) {
      source = SliceSource::kHost;
      route = std::string("host-") + BackendName(*forced);
    }
  } else {
    route = hit.block != nullptr ? "hybrid+cache_prefilter" : "hybrid";
  }
  const ScanContinuation continuation =
      full ? ScanContinuation() : ContinuationOf(plan);
  Result<HybridResult> hw =
      ScanPlanned(hal, input, config, hit, cache, source, std::move(route),
                  full ? nullptr : &continuation);
  if (!hw.ok()) {
    // The executor degrades per-slice internally; an error surfacing here
    // that is still fallback-eligible (e.g. the device rejects the job
    // outright) degrades the whole operator to software — for kHybrid
    // the full pattern, without the pre-filter.
    if (!IsFallbackEligible(hw.status())) return hw.status();
    DOPPIO_ASSIGN_OR_RETURN(out, RunSoftwareScan(input, pattern, options));
    out.strategy = plan.strategy;
    out.stats.strategy = "fpga+sw_fallback";
    return finish(std::move(out));
  }
  if (!full && hit.block != nullptr) cache->CountPrefilterUse(rows);
  hw->strategy = plan.strategy;
  return finish(std::move(*hw));
}

}  // namespace doppio
