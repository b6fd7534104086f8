#include "db/hybrid_executor.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "obs/metrics.h"
#include "regex/pattern_parser.h"
#include "regex/thompson_nfa.h"
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

// Clones children [0, end) of a concat into a prefix AST.
AstNodePtr ConcatPrefix(const AstNode& concat, size_t end) {
  std::vector<AstNodePtr> parts;
  parts.reserve(end);
  for (size_t i = 0; i < end; ++i) {
    parts.push_back(concat.children[i]->Clone());
  }
  return AstNode::Concat(std::move(parts));
}

// Full-pattern scan on the software matchers (the planner's software
// strategy, and the degradation target when the hardware path fails with
// a fallback-eligible error). Shares the implementation with the
// scheduler's over-capacity CPU route (db/hudf.h).
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

// Result-cache keys are the compiled program's identity: the canonical
// config-vector bytes (the same convention sched::ProgramCache uses), so
// a scheduler-cached scan and a direct-submit scan of the same pattern
// resolve to the same entry.
std::string FingerprintOf(const RegexConfig& config) {
  const std::vector<uint8_t>& bytes = config.vector.bytes();
  return std::string(bytes.begin(), bytes.end());
}

// Materializes a cached block as the int16 result BAT the device scan
// would have produced.
Result<std::unique_ptr<Bat>> BatFromBlock(const sched::CachedResultBlock& block,
                                          BufferAllocator* allocator) {
  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<Bat> bat,
                          ZeroedInt16Bat(block.rows(), allocator));
  if (block.rows() > 0) {
    std::memcpy(bat->mutable_tail_data(), block.values.data(),
                block.values.size() * sizeof(uint16_t));
  }
  return bat;
}

// Offers a completed device-semantics scan to the result cache. The
// completeness guard lives in ResultCache::Put — degraded or saturated
// blocks are refused there, so callers only classify degradation.
void OfferToCache(sched::ResultCache* cache, const std::string& fingerprint,
                  uint64_t column_id, uint64_t column_version,
                  const Bat& result, bool degraded) {
  const uint16_t* values =
      reinterpret_cast<const uint16_t*>(result.tail_data());
  cache->Put(fingerprint, column_id, column_version,
             std::vector<uint16_t>(values, values + result.count()),
             degraded);
}

// Pre-filter subsumption (docs/RESULT_CACHE.md): a cached scan of a
// '.*'-cut prefix of `pattern` is a *complete* candidate set for it — the
// full unanchored pattern can only match rows where the prefix matched —
// so the full compiled program refines just the candidate rows on the
// host backend. Probes the cut prefixes longest-first on the same column
// snapshot; returns the refined result on a hit, nullopt when no usable
// entry exists. Best-effort by design: internal failures fall through to
// the normal offload rather than surfacing as errors.
std::optional<HybridResult> TryPrefilterRefine(
    sched::ResultCache* cache, Hal* hal, const Bat& input,
    const HybridPlan& plan, uint64_t column_id, uint64_t column_version,
    int64_t rows) {
  const AstNode& ast = *plan.ast;
  if (ast.kind != AstKind::kConcat) return std::nullopt;
  const RegexConfig& full_config = *plan.fpga_config;
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
    std::shared_ptr<const sched::CachedResultBlock> block = cache->Get(
        FingerprintOf(*prefix_config), column_id, column_version, rows);
    if (block == nullptr) continue;

    auto program =
        CompiledPuProgram::Compile(full_config.vector, hal->device_config());
    if (!program.ok()) break;
    auto result = ZeroedInt16Bat(rows, hal->bat_allocator());
    if (!result.ok()) break;
    Stopwatch refine_watch;
    HostSliceInfo info;
    auto matches = RunHostCandidates(
        input, rows, block->values.data(), *program,
        reinterpret_cast<uint16_t*>((*result)->mutable_tail_data()), &info);
    if (!matches.ok()) break;

    int64_t candidates = 0;
    for (uint16_t v : block->values) candidates += (v != 0);
    cache->CountPrefilterUse(rows - candidates);

    HybridResult out;
    out.result = std::move(*result);
    out.strategy = HybridStrategy::kFpgaOnly;
    out.cpu_postprocessed = candidates;
    out.stats.strategy = "fpga+cache_prefilter";
    out.stats.pu_kernel = info.kernel;
    out.stats.rows_scanned = rows;
    out.stats.rows_matched = *matches;
    out.stats.udf_software_seconds = refine_watch.ElapsedSeconds();
    return out;
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
        break;
      }
      if (!attempt.status().IsCapacityExceeded()) return attempt.status();
    }
  }
  plan.compile_seconds = compile_watch.ElapsedSeconds();
  return plan;
}

Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   std::string_view pattern,
                                   const CompileOptions& options,
                                   RegexAdmissionGate* gate,
                                   sched::ResultCache* cache) {
  DOPPIO_ASSIGN_OR_RETURN(HybridPlan plan,
                          PlanHybrid(pattern, hal->device_config(), options));
  return ExecuteHybrid(hal, input, plan, gate, cache);
}

Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   const HybridPlan& plan,
                                   RegexAdmissionGate* gate,
                                   sched::ResultCache* cache) {
  Stopwatch total_watch;
  const std::string& pattern = plan.full_pattern;
  const CompileOptions& options = plan.options;

  HybridResult out;
  out.strategy = plan.strategy;
  HybridStrategyCounter(plan.strategy).Add();

  // Admission snapshot for cache keying: the column identity and version
  // observed now. A concurrent append bumps the version, so entries
  // written under this snapshot can never serve the grown column.
  const uint64_t column_id = input.id();
  const uint64_t column_version = input.version();
  const int64_t snapshot_rows = input.count();

  // FPGA offloads go through the admission gate when one is installed;
  // Overloaded rejects are surfaced to the caller (back off, don't
  // degrade), everything else behaves exactly like direct submission of
  // the planned program.
  auto offload = [&]() {
    return gate != nullptr
               ? gate->ExecuteRegex(input, plan.fpga_pattern, options)
               : RegexpFpga(hal, input, *plan.fpga_config);
  };
  // Every exit charges the plan's compiles to the config phase, once. A
  // direct offload runs the planned program and compiles nothing; a gated
  // one reports what the scheduler compiled for it.
  auto finish = [&](HybridResult result) {
    result.stats.config_gen_seconds += plan.compile_seconds;
    return result;
  };

  if (plan.strategy == HybridStrategy::kFpgaOnly) {
    const RegexConfig& config = *plan.fpga_config;
    const std::string fingerprint = FingerprintOf(config);
    if (cache != nullptr) {
      // Exact hit: this program already scanned this column version in
      // full. Every backend (device, host program, cache) is
      // bit-identical by construction, so the block serves any caller.
      if (auto block = cache->Get(fingerprint, column_id, column_version,
                                  snapshot_rows)) {
        DOPPIO_ASSIGN_OR_RETURN(out.result,
                                BatFromBlock(*block, hal->bat_allocator()));
        out.stats.strategy = "fpga-cache";
        out.stats.rows_scanned = snapshot_rows;
        out.stats.rows_matched = block->rows_matched;
        out.stats.udf_software_seconds = total_watch.ElapsedSeconds();
        return finish(std::move(out));
      }
      // Subsumption: refine a cached coarser ('.*'-cut prefix) scan
      // instead of rescanning the column.
      std::optional<HybridResult> refined = TryPrefilterRefine(
          cache, hal, input, plan, column_id, column_version, snapshot_rows);
      if (refined.has_value()) {
        // The refined block has full device semantics — cache it under
        // the full pattern so the next repeat is an exact hit.
        OfferToCache(cache, fingerprint, column_id, column_version,
                     *refined->result, /*degraded=*/false);
        return finish(std::move(*refined));
      }
      // Partial-extent reuse (docs/RESULT_CACHE.md): an earlier,
      // shorter version of an append-only column is a row-identical
      // prefix of this one, so its cached block answers those rows
      // verbatim; only the appended tail is scanned, on the host
      // backend with full device Match semantics. The stitched block
      // is cached under the current version so the next repeat is an
      // exact hit. Best-effort: failures fall through to offload.
      if (auto prefix = cache->GetPrefix(fingerprint, column_id,
                                         snapshot_rows)) {
        ScanPlan tail;
        tail.device = &hal->device_config();
        ScanQuery& query = tail.queries.emplace_back();
        query.config = &config;
        query.route = "fpga";
        query.slices = {{SliceSource::kCached, 0, prefix->rows(),
                         prefix->values.data(), prefix->rows_matched},
                        {SliceSource::kHost, prefix->rows(),
                         snapshot_rows - prefix->rows()}};
        auto program =
            CompiledPuProgram::Compile(config.vector, hal->device_config());
        auto result = ZeroedInt16Bat(snapshot_rows, hal->bat_allocator());
        if (program.ok() && result.ok() && query.SetView(input).ok()) {
          query.program = std::move(*program);
          query.result = result->get();
          if (ExecuteScanPlan(&tail).ok()) {
            out.result = std::move(*result);
            out.stats = std::move(query.stats);
            // Only the tail was scanned.
            out.stats.rows_scanned = snapshot_rows - prefix->rows();
            OfferToCache(cache, fingerprint, column_id, column_version,
                         *out.result, /*degraded=*/false);
            return finish(std::move(out));
          }
        }
      }
    }
    // A pinned host backend (DOPPIO_FORCE_BACKEND=scalar|simd) runs the
    // compiled program through the kernel-backend registry instead of
    // offloading — same program, bit-identical results.
    const std::optional<BackendId> forced = ForcedBackend();
    if (forced == BackendId::kCpuScalar || forced == BackendId::kCpuSimd) {
      DOPPIO_ASSIGN_OR_RETURN(
          HudfResult host, RegexpHost(hal->device_config(), input, config));
      out.result = std::move(host.result);
      out.stats = std::move(host.stats);
      if (cache != nullptr && out.result != nullptr) {
        OfferToCache(cache, fingerprint, column_id, column_version,
                     *out.result, out.stats.fallback_rows > 0);
      }
      return finish(std::move(out));
    }
    Result<HudfResult> hw = offload();
    if (!hw.ok()) {
      // The HUDF degrades per-slice internally; an error surfacing here
      // that is still fallback-eligible (e.g. the device rejects the job
      // outright) degrades the whole operator to software.
      if (!IsFallbackEligible(hw.status())) return hw.status();
      DOPPIO_ASSIGN_OR_RETURN(out,
                              RunSoftwareScan(input, pattern, options));
      out.strategy = plan.strategy;
      out.stats.strategy = "fpga+sw_fallback";
      return finish(std::move(out));
    }
    out.result = std::move(hw->result);
    out.stats = hw->stats;
    // A gated offload already passed through the scheduler, whose own
    // MaybeCacheResult pass inserts the block; only the direct-submit
    // path caches here.
    if (cache != nullptr && gate == nullptr && out.result != nullptr) {
      OfferToCache(cache, fingerprint, column_id, column_version,
                   *out.result, out.stats.fallback_rows > 0);
    }
    return finish(std::move(out));
  }

  if (plan.strategy == HybridStrategy::kHybrid) {
    // A cached scan of the prefix replaces the device pre-filter wholesale:
    // the candidate set is identical to what the offload would produce
    // (the completeness guard keeps saturated/degraded scans out of the
    // cache), so the post-process below yields bit-identical results.
    const std::string prefix_fingerprint = FingerprintOf(*plan.fpga_config);
    std::shared_ptr<const sched::CachedResultBlock> prefix_block;
    if (cache != nullptr) {
      prefix_block = cache->Get(prefix_fingerprint, column_id,
                                column_version, snapshot_rows);
      if (prefix_block == nullptr) cache->CountPrefilterReject();
    }

    HudfResult hw;
    if (prefix_block != nullptr) {
      DOPPIO_ASSIGN_OR_RETURN(
          hw.result, BatFromBlock(*prefix_block, hal->bat_allocator()));
      hw.stats.rows_scanned = snapshot_rows;
      hw.stats.rows_matched = prefix_block->rows_matched;
      cache->CountPrefilterUse(snapshot_rows);
    } else {
      // FPGA pre-filter on the prefix.
      Result<HudfResult> hw_attempt = offload();
      if (!hw_attempt.ok()) {
        if (!IsFallbackEligible(hw_attempt.status())) {
          return hw_attempt.status();
        }
        // Without the pre-filter the full pattern runs in software.
        DOPPIO_ASSIGN_OR_RETURN(out,
                                RunSoftwareScan(input, pattern, options));
        out.strategy = plan.strategy;
        out.stats.strategy = "fpga+sw_fallback";
        return finish(std::move(out));
      }
      hw = std::move(*hw_attempt);
      // Cache the prefix scan now — the post-process below overwrites the
      // candidate block in place. Gated offloads are cached by the
      // scheduler; caching them here too would double-account.
      if (cache != nullptr && gate == nullptr && hw.result != nullptr) {
        OfferToCache(cache, prefix_fingerprint, column_id, column_version,
                     *hw.result, hw.stats.fallback_rows > 0);
      }
    }
    out.stats = hw.stats;
    out.stats.strategy =
        prefix_block != nullptr ? "hybrid+cache_prefilter" : "hybrid";

    // CPU post-processing of the tuples that passed, against the full
    // expression (lazy DFA over the planned AST; the prefix already
    // pruned the bulk).
    Stopwatch cpu_watch;
    DOPPIO_ASSIGN_OR_RETURN(Program program,
                            CompileProgram(*plan.ast, options));
    std::unique_ptr<DfaMatcher> matcher =
        DfaMatcher::FromProgram(std::move(program));
    int64_t matched = 0;
    for (int64_t i = 0; i < hw.result->count(); ++i) {
      int16_t prefilter = hw.result->GetInt16(i);
      if (prefilter == 0) continue;
      ++out.cpu_postprocessed;
      MatchResult m = matcher->Find(input.GetString(i));
      if (!m.matched) {
        reinterpret_cast<int16_t*>(hw.result->mutable_tail_data())[i] = 0;
      } else {
        reinterpret_cast<int16_t*>(hw.result->mutable_tail_data())[i] =
            static_cast<int16_t>(std::min<int32_t>(m.end, 32767));
        ++matched;
      }
    }
    out.stats.udf_software_seconds += cpu_watch.ElapsedSeconds();
    out.stats.rows_matched = matched;
    out.result = std::move(hw.result);
    return finish(std::move(out));
  }

  // Pure software fallback.
  DOPPIO_ASSIGN_OR_RETURN(HybridResult sw,
                          RunSoftwareScan(input, pattern, options));
  sw.strategy = plan.strategy;
  return finish(std::move(sw));
}

}  // namespace doppio
