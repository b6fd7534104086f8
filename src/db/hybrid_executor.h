// Hybrid CPU-FPGA execution (paper §6.4, §7.8).
//
// When a pattern needs more character matchers or states than the deployed
// PU provides, it is split at a '.*' wildcard into prefix '.*' suffix: the
// longest prefix that fits runs on the FPGA as a pre-filter, and the CPU
// post-processes only the tuples it passed. The CPU resumes where the
// device stopped: the plan's continuation (db/hudf.h ScanContinuation)
// matches just the suffix, on the host kernels (hw/kernel_backend.h),
// over each candidate's bytes after the prefix's match index, as a stage
// of the scan executor. The result follows device semantics, exactly what
// the unsplit pattern returns on a PU large enough to hold it (DESIGN.md
// §5, "Hybrid continuation"). If no prefix fits, execution falls back to
// pure software.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "bat/bat.h"
#include "common/status.h"
#include "db/engine_stats.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "hw/config_compiler.h"
#include "regex/pattern_ast.h"

namespace doppio {
enum class HybridStrategy { kFpgaOnly, kHybrid, kSoftwareOnly };

/// A string predicate's pattern, compiled once. The cost model, the
/// executor, its cache probes and the CPU post-process all read this plan
/// instead of compiling the pattern again.
struct HybridPlan {
  HybridStrategy strategy = HybridStrategy::kSoftwareOnly;
  /// The prefix offloaded to the FPGA (kHybrid/kFpgaOnly), rendered in the
  /// regex dialect: a printable description of `fpga_config`.
  std::string fpga_pattern;
  /// The full pattern as written: what software scans run.
  std::string full_pattern;
  /// The full pattern, parsed; its edge anchors are folded into `options`.
  AstNodePtr ast;
  CompileOptions options;
  /// The program the device runs: the full pattern's (kFpgaOnly) or the
  /// prefix's (kHybrid). Empty for kSoftwareOnly.
  std::optional<RegexConfig> fpga_config;
  /// kHybrid: the pattern after the cut's '.*', rendered in the regex
  /// dialect: the part the CPU resumes with.
  std::string cpu_pattern;
  /// kHybrid: `cpu_pattern` compiled for the host kernels, whose limits
  /// (not the PU's) it is checked against. The continuation matches it
  /// over each candidate's tail, from the prefix's match index. Null when
  /// the suffix does not compile (beyond those limits, or able to match
  /// the empty string); the continuation then runs the full pattern.
  std::shared_ptr<const CompiledPuProgram> cpu_suffix;
  /// Host time of every config compile planning ran, failed attempts
  /// included: the statement's configuration-generation phase.
  double compile_seconds = 0;
};

/// Decides how to execute `pattern` on the given deployment: compiles the
/// full pattern, and when it exceeds the geometry, the longest '.*'-cut
/// prefix that fits, and the suffix after that cut for the host kernels.
Result<HybridPlan> PlanHybrid(std::string_view pattern,
                              const DeviceConfig& device,
                              const CompileOptions& options = {});

/// What every caller of a kHybrid plan attaches to its prefix scan: the
/// plan's `cpu_suffix`, and its full pattern and options, which the stage
/// runs for a saturated prefix value or a null suffix.
ScanContinuation ContinuationOf(const HybridPlan& plan);

struct HybridResult {
  /// One 16-bit value per row in device semantics: the 1-based end of the
  /// full pattern's earliest match saturated at 65535, or 0 for no match
  /// (as raw bits in int16 storage: values above 32767 read negative
  /// through GetInt16).
  std::unique_ptr<Bat> result;
  QueryStats stats;
  HybridStrategy strategy = HybridStrategy::kSoftwareOnly;
  /// Tuples the pre-filter passed on to the CPU: a kHybrid plan's device
  /// candidates, or a cached prefix block's in a pre-filter refine.
  int64_t cpu_postprocessed = 0;
};

/// Executes a plan with automatic FPGA/hybrid/software selection. FPGA
/// scans submit straight at the device: the paper's direct-submit path.
///
/// When `cache` is non-null (docs/RESULT_CACHE.md), the scans resolve
/// against the versioned match-result cache through the scan executor
/// (db/hudf.h ResolveCached), keyed on the column's snapshot (id,
/// version, row count):
///  * kFpgaOnly — an exact (fingerprint, column, version) hit is served
///    straight from the cached block ("fpga-cache"); otherwise a cached
///    scan of a '.*'-cut prefix of the pattern subsumes it as a complete
///    candidate set: the block is served as the prefix's values and the
///    cut's suffix resumes each candidate from its cached match index
///    ("fpga+cache_prefilter", bit-identical to a full device scan by
///    construction); otherwise a block of an earlier, shorter version of
///    the column serves its rows and only the appended tail scans
///    ("fpga+cache_prefix").
///  * kHybrid — a cached prefix scan replaces the device pre-filter
///    entirely ("hybrid+cache_prefilter"); the continuation is unchanged.
///
/// A kHybrid scan carries the plan's continuation, which the scan
/// executor runs after the stitch (db/hudf.h ScanContinuation). The
/// executor offers every completed device-semantics scan back to the
/// cache. A null cache is the paper's every-query-rescans path.
/// stats.config_gen_seconds includes the plan's compile_seconds.
Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   const HybridPlan& plan,
                                   sched::ResultCache* cache = nullptr);

/// Plans `pattern` against the HAL's geometry, then executes the plan.
Result<HybridResult> ExecuteHybrid(Hal* hal, const Bat& input,
                                   std::string_view pattern,
                                   const CompileOptions& options = {},
                                   sched::ResultCache* cache = nullptr);

}  // namespace doppio
