#include "store/stream_executor.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hw/device_pool.h"
#include "hw/perf_model.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sched/result_cache.h"

namespace doppio {

namespace {

obs::Counter& WindowsStreamedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.windows_streamed",
      "segment windows scanned by the streaming executor");
  return *c;
}

obs::Counter& WindowCacheHitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.window_cache_hits",
      "segment windows served from per-segment cached result blocks");
  return *c;
}

obs::Gauge& OverlapOccupancyGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.store.overlap_occupancy_ppm",
      "last stream's transfer/execute overlap: modeled seconds saved by "
      "double-buffering, in parts-per-million of the serial total");
  return *g;
}

}  // namespace

Result<HudfResult> RegexpFpgaStreamed(
    Hal* hal, Pager* pager, const SegmentSnapshot& snapshot,
    const RegexConfig& config, const StreamOptions& options,
    const ScanContinuation* continuation) {
  if (hal == nullptr || pager == nullptr) {
    return Status::InvalidArgument("streamed scan requires a HAL and a pager");
  }
  Stopwatch udf_watch;
  obs::Tracer& tracer = obs::Tracer::Global();
  const obs::TraceId trace = tracer.BeginQuery("regexp_fpga_streamed");
  DevicePool* pool = hal->pool();
  const DeviceConfig& dev_config = hal->device_config();

  HudfResult out;
  out.stats.trace_id = trace;
  const char* route =
      continuation != nullptr ? "hybrid-streamed" : "fpga-streamed";
  out.stats.strategy = route;

  const size_t W = snapshot.segments.size();

  auto fail = [&](Status st) {
    tracer.EndQuery(trace);
    return st;
  };

  // The result BAT must live in the shared arena: every window's jobs
  // write their row range of it directly from the (simulated) device.
  {
    auto result = ZeroedInt16Bat(snapshot.rows, hal->bat_allocator());
    if (!result.ok()) return fail(result.status());
    out.result = std::move(*result);
  }
  if (snapshot.rows == 0 || W == 0) {
    out.stats.udf_software_seconds = udf_watch.ElapsedSeconds();
    tracer.EndQuery(trace);
    return out;
  }

  // Window starting rows within the stitched result.
  std::vector<int64_t> row_base(W, 0);
  for (size_t w = 1; w < W; ++w) {
    row_base[w] = row_base[w - 1] + snapshot.segments[w - 1]->rows();
  }
  DOPPIO_CHECK(row_base[W - 1] + snapshot.segments[W - 1]->rows() ==
               snapshot.rows);

  // Upfront per-segment cache probe: hit windows are served up front and
  // never pinned, so a fully cached repeat scan does zero paging and zero
  // device work — except, under a continuation, hit windows with
  // candidates, whose strings the resume reads.
  std::vector<CacheHit> hit(W);
  std::vector<char> upfront(W, 0);
  bool any_upfront = false;
  for (size_t w = 0; w < W; ++w) {
    const Segment& seg = *snapshot.segments[w];
    hit[w] = ResolveCached(options.result_cache, config,
                           {seg.id(), Segment::kSealedVersion}, seg.rows(),
                           {.prefix = false});
    upfront[w] = hit[w].block != nullptr &&
                 (continuation == nullptr ||
                  hit[w].block->rows_matched == 0);
    any_upfront |= upfront[w] != 0;
  }

  // Pin bookkeeping: prefetched[w] holds a view pinned ahead of its turn.
  std::vector<PinnedSegment> view(W);
  std::vector<char> pinned(W, 0);
  auto unpin_all = [&]() {
    for (size_t w = 0; w < W; ++w) {
      if (pinned[w]) {
        pager->Unpin(snapshot.segments[w].get());
        pinned[w] = 0;
      }
    }
  };

  // Modeled transfer and measured execution time per window, in stitch
  // order: scanned windows, and under a continuation the hit windows with
  // candidates, which pay their page-in and take no device time. Hits
  // served up front cost nothing.
  std::vector<double> t_in;
  std::vector<double> d_exec;

  auto pin_window = [&](size_t w) -> Status {
    Segment* seg = snapshot.segments[w].get();
    auto got = pager->Pin(seg);
    if (!got.ok()) return got.status();
    view[w] = *got;
    pinned[w] = 1;
    if (got->paged_in) {
      tracer.RecordInstant(trace, "page_in", pool->device(0)->now());
    }
    return Status::OK();
  };

  // The window loop's host time beyond its plans' own build (hal) and
  // post-drain (udf) phases — the drains, page-in copies and per-segment
  // cache puts — is booked as sim_host_seconds, as before the executor.
  Stopwatch loop_watch;
  double plan_udf_seconds = 0;
  double page_in_total = 0;
  // Up-front hit windows first: one host-only query whose kCached slices
  // copy each segment's block into its row range of the result.
  if (any_upfront) {
    ScanPlan plan;
    plan.device = &dev_config;
    ScanQuery& cached = plan.queries.emplace_back();
    cached.result = out.result.get();
    cached.trace = trace;
    for (size_t w = 0; w < W; ++w) {
      if (!upfront[w]) continue;
      cached.AddSlices(hit[w], row_base[w],
                       row_base[w] + snapshot.segments[w]->rows(),
                       SliceSource::kHost);
      WindowCacheHitsCounter().Add(1);
    }
    if (Status st = ExecuteScanPlan(&plan); !st.ok()) return fail(st);
    out.stats.rows_matched += cached.stats.rows_matched;
    out.stats.hal_seconds += cached.stats.hal_seconds;
    plan_udf_seconds += cached.stats.udf_software_seconds;
  }
  for (size_t w = 0; w < W; ++w) {
    if (upfront[w]) continue;
    const Segment& seg = *snapshot.segments[w];
    const int64_t rows = seg.rows();

    if (!pinned[w]) {
      Status st = pin_window(w);
      if (!st.ok()) {
        unpin_all();
        return fail(st);
      }
    }
    const double window_t_in =
        view[w].paged_in ? TransferSeconds(dev_config, seg.payload_bytes())
                         : 0;
    page_in_total += window_t_in;

    // Double-buffering: page the NEXT scanned window in before this one
    // executes, so its (modeled) transfer overlaps this window's
    // execution in the stitch below. A budget too tight to hold two
    // windows degrades gracefully to serial page-then-scan.
    if (options.overlap) {
      for (size_t n = w + 1; n < W; ++n) {
        if (upfront[n]) continue;
        if (!pinned[n]) {
          Status st = pin_window(n);
          if (!st.ok() && st.code() != StatusCode::kResourceExhausted) {
            // IO/validation problems are real errors; only budget
            // pressure downgrades the overlap.
            unpin_all();
            return fail(st);
          }
        }
        break;
      }
    }

    // The window is one scan plan over the pool, sliced exactly like a
    // resident pooled scan (or its cached block, under a continuation);
    // its rows land at row_base[w] of the result, and the executor offers
    // them back under the segment's stable identity so a repeat scan
    // skips the window's device work.
    ScanPlan plan;
    plan.hal = hal;
    plan.pooled = true;
    plan.cache = options.result_cache;
    ScanQuery& window = plan.queries.emplace_back();
    window.offsets = view[w].offsets;
    window.heap = view[w].heap;
    window.view_rows = rows;
    window.heap_bytes = view[w].heap_bytes;
    window.result = out.result.get();
    window.result_offset = row_base[w];
    window.config = &config;
    window.continuation = continuation;
    window.snapshot = {seg.id(), Segment::kSealedVersion};
    window.trace = trace;
    window.route = route;
    window.AddSlices(hit[w], 0, rows, SliceSource::kDevice,
                     pool->total_engines());
    if (Status st = ExecuteScanPlan(&plan); !st.ok()) {
      unpin_all();
      return fail(st);
    }
    const QueryStats& ws = window.stats;
    out.stats.rows_scanned += ws.rows_scanned;
    out.stats.rows_matched += ws.rows_matched;
    if (out.stats.pu_kernel.empty()) out.stats.pu_kernel = ws.pu_kernel;
    out.stats.functional_bytes += ws.functional_bytes;
    out.stats.functional_seconds += ws.functional_seconds;
    out.stats.job_retries += ws.job_retries;
    out.stats.faults_recovered += ws.faults_recovered;
    out.stats.fallback_rows += ws.fallback_rows;
    if (ws.fallback_rows > 0) out.stats.strategy = ws.strategy;
    out.stats.hal_seconds += ws.hal_seconds;
    plan_udf_seconds += ws.udf_software_seconds;
    t_in.push_back(window_t_in);
    d_exec.push_back(ws.hw_seconds);
    if (hit[w].block != nullptr) {
      WindowCacheHitsCounter().Add(1);
    } else {
      out.stats.windows_streamed += 1;
      WindowsStreamedCounter().Add(1);
    }

    pager->Unpin(snapshot.segments[w].get());
    pinned[w] = 0;
  }
  unpin_all();  // windows prefetched but never consumed (errors avoided)

  // Stitch the per-window times. Serial: each window pages in, then
  // executes. Overlapped: one transfer in flight while one window
  // executes (double buffering) — window w's transfer starts as soon as
  // the previous transfer is done AND the previous window has started
  // executing (its buffer is in use but the link is free).
  double serial = 0;
  for (size_t i = 0; i < t_in.size(); ++i) serial += t_in[i] + d_exec[i];
  double overlapped = 0;
  {
    double prev_start = 0, prev_done_in = 0, prev_end = 0;
    for (size_t i = 0; i < t_in.size(); ++i) {
      const double done_in =
          std::max(prev_start, prev_done_in) + t_in[i];
      const double start = std::max(prev_end, done_in);
      const double end = start + d_exec[i];
      prev_start = start;
      prev_done_in = done_in;
      prev_end = end;
    }
    overlapped = prev_end;
  }
  out.stats.page_in_seconds = page_in_total;
  out.stats.hw_seconds = options.overlap ? overlapped : serial;
  if (serial > 0) {
    OverlapOccupancyGauge().Set(static_cast<int64_t>(
        (serial - overlapped) / serial * 1e6));
  }

  out.stats.sim_host_seconds =
      std::max(0.0, loop_watch.ElapsedSeconds() - out.stats.hal_seconds -
                        plan_udf_seconds);
  out.stats.udf_software_seconds =
      std::max(0.0, udf_watch.ElapsedSeconds() - out.stats.hal_seconds -
                        out.stats.sim_host_seconds);
  tracer.EndQuery(trace);
  return out;
}

}  // namespace doppio
