// Double-buffered streaming execution over a segmented column (ROADMAP
// item 4): the out-of-core counterpart of db/hudf's resident scans.
//
// A SegmentSnapshot is scanned one segment-window at a time. Each window
// is pinned into the shared arena through the pager and run as one scan
// plan over the device pool through the same executor as a resident
// scan (db/hudf.h ExecuteScanPlan: ShardCounts placement, per-slice
// fault degradation to the host), and its results land in the window's
// disjoint row range of one result BAT — so the stitched column of match
// values is bit-identical to scanning the same rows fully resident.
// Pinning, prefetch and the double-buffer stitch below stay here; the
// result cache is consulted through the executor (ResolveCached per
// segment, offer-back per scanned window). Host phases: the plans'
// builds are hal_seconds and their post-drain phases (cached-window
// copies, software fallback) udf_software_seconds; the rest of the
// window loop — drains, page-in copies, per-segment cache puts — is
// sim_host_seconds, as it was before the executor.
//
// Timing follows the repo's virtual-time discipline. A window that had to
// be paged in pays the modeled QPI transfer (TransferSeconds over its
// payload bytes, honoring the link model); its PU execution time is the
// measured per-clock-domain extent of its jobs. With `overlap` on, the
// windows are stitched under the classic double-buffering recurrence —
// window N+1's transfer proceeds while window N executes:
//
//   done_in[w] = max(start[w-1], done_in[w-1]) + t_in[w]
//   start[w]   = max(end[w-1], done_in[w])
//   end[w]     = start[w] + d[w]
//
// (one transfer in flight, one window executing), versus the serial
// page-then-scan sum of (t_in[w] + d[w]). The chosen stitched total is
// the query's hw_seconds; page_in_seconds and windows_streamed land in
// QueryStats, page-in instants and per-job records in the tracer.
//
// Sealed segments have stable (id, version=1) identity, so when a result
// cache is supplied every window is probed up front under the program's
// config bytes, hit windows are served as cached slices of one host-only
// query, and each scanned window's clean block is offered back per
// segment: a repeat scan skips both the transfer AND the execution of hit
// windows — the cache composes with paging instead of fighting it.
// rows_scanned counts the scanned windows' rows only.
//
// A split plan streams its prefix program with the plan's continuation
// (db/hudf.h ScanContinuation): every window's query resumes its
// candidates after the stitch, and the per-segment blocks hold the
// prefix's values under the prefix's config bytes, the same key a plain
// scan of the prefix uses. A hit window whose block has candidates needs
// its strings for the resume, so it is pinned and run in the window loop
// as a cached slice plus the continuation; hit windows without
// candidates are served up front, unpinned, as without a continuation.
#pragma once

#include "common/status.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "store/pager.h"
#include "store/segmented_column.h"

namespace doppio {

/// Each window runs as one slice per engine across the pool, traced as a
/// "regexp_fpga_streamed" query.
struct StreamOptions {
  /// Double-buffer: overlap window N+1's page-in with window N's
  /// execution. Off = serial page-then-scan (the bench's baseline).
  bool overlap = true;
  /// Optional per-segment result caching. Windows whose (config bytes,
  /// segment id, version 1, rows) block is cached are served without
  /// scanning; clean scanned windows are offered back.
  sched::ResultCache* result_cache = nullptr;
};

/// Streams `snapshot` through the device(s) window by window. The result
/// BAT covers snapshot.rows rows in segment order — bit-identical to a
/// resident scan of the same strings. With a split plan's `continuation`,
/// `config` is the plan's prefix and every window resumes into the full
/// pattern's values, bit-identical to ExecuteHybrid of the plan (strategy
/// "hybrid-streamed"; otherwise "fpga-streamed").
Result<HudfResult> RegexpFpgaStreamed(
    Hal* hal, Pager* pager, const SegmentSnapshot& snapshot,
    const RegexConfig& config, const StreamOptions& options = {},
    const ScanContinuation* continuation = nullptr);

}  // namespace doppio
