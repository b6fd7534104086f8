// The Hardware User Defined Function: REGEXP_FPGA (paper §4.1).
//
// Mirrors the paper's regexp_fpga() pseudo-code: convert the pattern into
// a configuration vector, allocate the result BAT, create the FPGA job
// through the HAL, busy-wait on the done bit, hand the result BAT back.
// The returned column is of type short: nonzero = 1-based position of the
// match's last character, zero = no match.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bat/bat.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "db/engine_stats.h"
#include "hal/hal.h"
#include "hw/kernel_backend.h"
#include "hw/pu_kernel.h"
#include "regex/matcher.h"

namespace doppio {

namespace sched {
class ResultCache;
struct CachedResultBlock;
}  // namespace sched

struct HudfResult {
  std::unique_ptr<Bat> result;  // kInt16, one entry per input string
  QueryStats stats;             // udf/config/hal/hw phase breakdown
};

// The scan executor. Every regex scan of a string column — resident or
// streamed, one job or a scheduler wave, device or host — is a ScanPlan
// run by ExecuteScanPlan. A plan is a set of queries; each query covers
// rows of one input view and writes one result BAT, slice by slice, from
// one of three sources: a device job, a planned host run of the compiled
// program, or a cached result block. The entry points below, the
// scheduler, the hybrid executor and the streaming executor only build
// plans; the executor owns the one submit -> await-with-recovery ->
// degrade-to-host -> per-clock-domain stitch -> set demux loop.
//
// It is also the one place the versioned result cache
// (docs/RESULT_CACHE.md) is consulted. Callers resolve a query's cache
// key with ResolveCached and turn the answer into slices with
// ScanQuery::AddSlices; after the stitch the executor offers every
// scanned query's complete result back to ScanPlan::cache.
//
// And it is the one place a split plan's CPU half runs (DESIGN.md §5,
// "Hybrid continuation"): a query that carries a ScanContinuation has
// its stitched values, the prefix's match indexes, resumed into the full
// pattern's after the stitch.
//
// Host phases, on every plan: hal_seconds is building the plan (from its
// construction to the drain), sim_host_seconds is the drain (submitting
// and awaiting device jobs), udf_software_seconds is everything after it
// — host runs, software fallback, cached-block copies, continuations,
// set demux. The offer-back runs after every query's phases are stamped,
// so no phase includes it.

/// The column snapshot a cached result block is keyed on, together with
/// the program's config-vector bytes: a resident BAT's (id(), version())
/// as of admission, or a sealed segment's (id(), kSealedVersion).
struct ColumnSnapshot {
  uint64_t id = 0;
  uint64_t version = 0;
};

/// What the result cache holds for one program over one column snapshot.
struct CacheHit {
  /// Null on a miss. An exact block covers every row asked for; a prefix
  /// block, from an earlier and shorter version of the append-only
  /// column, covers the first block->rows() of them.
  std::shared_ptr<const sched::CachedResultBlock> block;
  bool exact = false;
};

/// The lookups ResolveCached makes.
struct CacheProbe {
  bool exact = true;       // ResultCache::Get of exactly this snapshot
  bool prefix = true;      // after an exact miss, ResultCache::GetPrefix
  bool count_miss = true;  // an exact miss counts in ResultCache::misses()
};

/// The result-cache resolver: the block of `program` over exactly the
/// first `rows` rows of `column`, else the largest block of an earlier,
/// shorter version, else a miss. A null cache always misses.
CacheHit ResolveCached(sched::ResultCache* cache, const RegexConfig& program,
                       ColumnSnapshot column, int64_t rows,
                       CacheProbe probe = {});

enum class SliceSource {
  kDevice,  // a job on a pool device; degrades to a host run on faults
  kHost,    // a planned host run of the query's program (RunHostSlice)
  kCached,  // a cached result block, copied into the slice's result span
};

struct ScanSlice {
  SliceSource source = SliceSource::kDevice;
  /// Rows [first_row, first_row + rows) of the query's input view.
  int64_t first_row = 0;
  int64_t rows = 0;
  /// Set iff kCached: the block whose values fill the slice. It holds
  /// exactly the slice's `rows` values, or the plan fails.
  std::shared_ptr<const sched::CachedResultBlock> block;
};

/// A split plan's CPU half (DESIGN.md §5, "Hybrid continuation"). The
/// query's slices compute the prefix's match index e of every row; the
/// executor then resumes each row from e and writes the full pattern's
/// device-semantics value:
///  * e = 0 writes 0;
///  * 0 < e < 65535 with a suffix program writes 0 when the suffix does
///    not match the row's bytes from e on, else min(e + v, 65535) for the
///    suffix's match index v;
///  * otherwise (a saturated e, whose true end is unknown, or no suffix
///    program) the full pattern's min(end, 65535), through a lazy DFA
///    built on first need, once per query.
struct ScanContinuation {
  /// The pattern after the cut's '.*', compiled for the host kernels.
  /// Shared and const: each query runs it through its own HostExecution
  /// from BackendRegistry::ChooseHost. Null when the suffix does not
  /// compile (beyond those kernels' limits, or able to match the empty
  /// string).
  std::shared_ptr<const CompiledPuProgram> suffix;
  /// The full pattern, in the regex dialect, and its compile options.
  std::string pattern;
  CompileOptions options;
  /// The full pattern's own device program, when it fits the device (a
  /// cached prefix block refining a pattern the device could run whole):
  /// the final values are offered back under it as well. Null otherwise.
  const RegexConfig* full_config = nullptr;
};

struct ScanQuery {
  /// Input view: `view_rows` strings as 32-bit offsets into `heap`
  /// (`heap_bytes` long) — a resident BAT or a pinned segment window.
  const uint8_t* offsets = nullptr;
  const uint8_t* heap = nullptr;
  int64_t view_rows = 0;
  int64_t heap_bytes = 0;
  /// Caller-owned kInt16 result: view row r lands at result row
  /// r + result_offset, `streams` values per row (row-major).
  Bat* result = nullptr;
  int64_t result_offset = 0;

  /// The program every slice runs; for a split, the prefix's.
  const RegexConfig* config = nullptr;
  /// Compiled program for host runs; null compiles `config` per run.
  std::shared_ptr<const CompiledPuProgram> program;
  /// A split's suffix (streams == 1 only): resumes the stitched values of
  /// `config` into the full pattern's, reading each row's bytes from the
  /// view. Null: the query's values are `config`'s.
  const ScanContinuation* continuation = nullptr;
  /// Tagged accept streams of `config` (1..64); > 1 fills set_outputs.
  int streams = 1;
  /// streams > 1: each stream's member fingerprint, in stream order — the
  /// keys its demuxed columns are offered back under.
  const std::vector<std::string>* stream_fingerprints = nullptr;
  /// The column snapshot the result — rows [0, end of the last slice) —
  /// is offered back to ScanPlan::cache under, keyed by `config`'s bytes:
  /// for a split, the prefix's values from before the continuation ran,
  /// and the final values under the continuation's full_config, if any.
  ColumnSnapshot snapshot;
  bool timing_only = false;  // JobParams::timing_only for device slices
  /// Span the executor opens and closes; null = record into `trace`, a
  /// span the caller owns (0 = untraced).
  const char* span_name = nullptr;
  uint64_t trace = 0;
  /// Strategy route ("fpga", "sched_cpu", ...). stats.strategy is
  /// "fpga-cache" for a query without a continuation served wholly from
  /// cache; otherwise the route, plus "+sw_fallback" when a device slice
  /// degraded, then "+cache_prefix" when a cached slice served rows of a
  /// query that also scanned.
  std::string route;
  std::vector<ScanSlice> slices;

  /// Outputs. rows_scanned counts the rows a slice scanned: not cached
  /// rows, nor rows the continuation resumed. rows_matched counts the
  /// final nonzero values. hw_seconds is the max over devices of the
  /// query's per-device job extent. `resumed` counts the rows the
  /// continuation resumed: the prefix's candidates.
  QueryStats stats;
  int64_t resumed = 0;
  std::vector<HudfResult> set_outputs;

  /// Views a resident string BAT (InvalidArgument for any other type).
  Status SetView(const Bat& input);
  /// Appends rows [first, limit) as `partitions` device slices of
  /// ceil(rows / partitions) rows (fewer when the rows run out).
  void AddDeviceSlices(int64_t first, int64_t limit, int partitions);
  /// Appends rows [first, limit) for a resolved cache key: the rows
  /// `hit`'s block covers become one kCached slice, the rest come from
  /// `source` (`partitions` device slices, or one host slice).
  void AddSlices(const CacheHit& hit, int64_t first, int64_t limit,
                 SliceSource source, int partitions = 1);
};

struct ScanPlan {
  Hal* hal = nullptr;  // null for host-only plans
  /// Program geometry for host runs; defaults to hal->device_config().
  const DeviceConfig* device = nullptr;
  /// true: device slices spread over the whole pool; false: all on pool
  /// device 0 (the paper's single device).
  bool pooled = false;
  /// Result cache every scanned query's complete, non-timing-only result
  /// is offered back to (ResultCache::Put keeps its completeness guard).
  /// Null: nothing is offered.
  sched::ResultCache* cache = nullptr;
  std::vector<ScanQuery> queries;
  Stopwatch watch;  // started with the plan: hal_seconds until the drain
};

/// Runs every query of `plan`. Device slices are dealt to the devices in
/// scope proportional to their free engines (DevicePool::ShardCounts),
/// at most num_engines in flight per device so a backlog stays
/// stealable; a device that runs dry steals from the most backlogged
/// member, and one that exhausts a slice's retries hands its backlog to
/// the others. The drain awaits one slice per device visit, round-robin,
/// so placement and virtual timing are deterministic for a pool state.
/// Slices no device completed run on the host (stats.fallback_rows).
/// Every span the executor opens is closed on every exit.
Status ExecuteScanPlan(ScanPlan* plan);

/// A kInt16 BAT of `count` zeroed values.
Result<std::unique_ptr<Bat>> ZeroedInt16Bat(
    int64_t count, BufferAllocator* allocator = MallocAllocator::Default());

/// Runs the REGEXP_FPGA HUDF over a string BAT. The pattern uses the regex
/// dialect (LIKE patterns are translated before reaching this layer).
/// Fails with CapacityExceeded when the pattern does not fit the deployed
/// geometry — callers fall back to hybrid or software execution.
/// Deliberately pinned to pool device 0: this is the paper's single-job
/// fast path; multi-device spreading happens in the pooled entry points
/// below.
Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options = {});

/// Variant reusing an already-compiled configuration (amortizes compile
/// time across concurrent clients issuing the same query).
Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              const RegexConfig& config);

/// Single-query intra-operator parallelism (paper §7.5: "the FPGA
/// parallelizes by horizontally partitioning the data to the four Regex
/// Engines"): the BAT is split into `partitions` slices, one job per
/// engine of pool device 0, all sharing the string heap; results land in
/// disjoint slices of one result BAT. 0 = one partition per deployed
/// engine.
Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         const RegexConfig& config,
                                         int partitions = 0);

/// Pattern-level convenience for the partitioned variant.
Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         std::string_view pattern,
                                         const CompileOptions& options = {},
                                         int partitions = 0);

/// One query of a cross-query batched submission. Each query keeps its
/// own input BAT, result BAT and QueryStats — results are demultiplexed
/// per query by construction because every job slice writes a disjoint
/// result range.
struct FpgaBatchQuery {
  const Bat* input = nullptr;
  const RegexConfig* config = nullptr;
  /// Slices for this query (0 = one per engine across the pool). Batched
  /// callers typically spread the engines across the batch instead.
  int partitions = 0;
  /// Tracer span name for this query's lifecycle.
  const char* span_name = "regexp_fpga_batch";
  /// Simulator-only throughput knob (see JobParams::timing_only): derive
  /// exact traffic/timing but skip the functional pass (results zeroed).
  bool timing_only = false;
  /// Output streams of `config` (1..64). 1 = the classic single-pattern
  /// scan. > 1 = `config` is a set-compiled program
  /// (CompileRegexSetConfig) with that many tagged accept streams:
  /// `out.result` then holds count x streams 16-bit values row-major (the
  /// raw device layout) and `set_outputs` the per-stream demux. Must equal
  /// the compiled program's pattern count.
  int streams = 1;
  HudfResult out;  // populated by RegexpFpgaBatchPooled
  /// streams > 1 only: set_outputs[k] is member k's own kInt16 column
  /// over the input rows — bit-identical to running that member alone.
  /// Each carries the batch's shared stats with its own rows_matched.
  std::vector<HudfResult> set_outputs;
};

/// Shared submission across queries over the HAL's whole DevicePool, as
/// one ScanPlan: every query's slices are placed before any is awaited,
/// so the queries overlap across the engines in virtual time (the
/// paper's Fig. 11 multi-client scenario, coalesced into one wave instead
/// of raced). With a pool of one, a batch of one is behaviour- and
/// timing-identical to RegexpFpgaPartitioned.
Status RegexpFpgaBatchPooled(Hal* hal,
                             const std::vector<FpgaBatchQuery*>& queries);

/// Single-query convenience over the pooled path. `partitions` 0 = one
/// slice per engine across the whole pool.
Result<HudfResult> RegexpFpgaPartitionedPooled(Hal* hal, const Bat& input,
                                               const RegexConfig& config,
                                               int partitions = 0);

/// Full-pattern software scan over a string BAT on the lazy-DFA matcher:
/// the hybrid planner's software strategy and the scheduler's CPU route
/// for patterns with no device part. Fills result (device semantics:
/// the match's 1-based end, at least 1, saturated at 65535 and stored as
/// the uint16 bit pattern; 0 = no match), strategy ("software"), row
/// counts and the software phase time. `rows` >= 0 scans only the first
/// `rows` rows (the scheduler's admission snapshot); -1 = all rows.
Result<HudfResult> RunDfaScanInSoftware(const Bat& input,
                                        std::string_view pattern,
                                        const CompileOptions& options = {},
                                        int64_t rows = -1);

/// Runs a compiled configuration entirely on the host through the
/// kernel-backend registry (hw/kernel_backend.h) — the execution path of
/// DOPPIO_FORCE_BACKEND=scalar|simd, and a device-free way to run the
/// compiled-program matchers. Results are bit-identical to the hardware
/// functional pass; stats.strategy records "host-<backend>" and
/// stats.pu_kernel the kernel that executed.
Result<HudfResult> RegexpHost(const DeviceConfig& device, const Bat& input,
                              const RegexConfig& config);

}  // namespace doppio
