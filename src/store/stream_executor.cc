#include "store/stream_executor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hal/job_lifecycle.h"
#include "hw/device_pool.h"
#include "hw/kernel_backend.h"
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

obs::JobTraceRecord MakeJobRecord(obs::TraceId trace,
                                  const JobStatus& status) {
  obs::JobTraceRecord record;
  record.trace_id = trace;
  record.queue_job_id = status.queue_job_id;
  record.engine_id = status.engine_id;
  record.device_id = status.device_id;
  record.enqueue_time = status.enqueue_time;
  record.dispatch_time = status.dispatch_time;
  record.start_time = status.start_time;
  record.collect_start_time = status.collect_start_time;
  record.done_bit_time = status.done_bit_time;
  record.finish_time = status.finish_time;
  record.retries = status.retries;
  record.fault_flags = status.fault_flags.load(std::memory_order_acquire);
  record.matches = status.matches;
  record.strings_processed = status.strings_processed;
  record.bytes_streamed = status.bytes_streamed;
  record.pu_kernel = status.pu_kernel;
  return record;
}

/// One submitted (or degraded) slice of the current window.
struct WindowSlice {
  JobParams params;
  FpgaJob job;
  JobOutcome outcome;
  bool fallback = false;
  int device = 0;
};

/// Per-clock-domain virtual extent of one window's jobs.
struct ClockExtent {
  SimTime first_enqueue = std::numeric_limits<SimTime>::max();
  SimTime last_finish = 0;
  bool any = false;
};

}  // namespace

Result<HudfResult> RegexpFpgaStreamed(Hal* hal, Pager* pager,
                                      const SegmentSnapshot& snapshot,
                                      const RegexConfig& config,
                                      const StreamOptions& options) {
  if (hal == nullptr || pager == nullptr) {
    return Status::InvalidArgument("streamed scan requires a HAL and a pager");
  }
  if (options.result_cache != nullptr && options.fingerprint.empty()) {
    return Status::InvalidArgument(
        "per-segment caching requires a program fingerprint");
  }
  Stopwatch udf_watch;
  obs::Tracer& tracer = obs::Tracer::Global();
  const obs::TraceId trace = tracer.BeginQuery(options.span_name);
  DevicePool* pool = hal->pool();
  const RetryPolicy& policy = hal->retry_policy();
  const DeviceConfig& dev_config = hal->device_config();

  HudfResult out;
  out.stats.trace_id = trace;
  out.stats.strategy = "fpga-streamed";
  out.stats.rows_scanned = snapshot.rows;

  const size_t W = snapshot.segments.size();

  auto fail = [&](Status st) {
    tracer.EndQuery(trace);
    return st;
  };

  // The result BAT must live in the shared arena: every window's jobs
  // write their row range of it directly from the (simulated) device.
  {
    auto result =
        Bat::New(ValueType::kInt16, snapshot.rows, hal->bat_allocator());
    if (!result.ok()) return fail(result.status());
    out.result = std::move(*result);
    Status st = out.result->AppendZeros(snapshot.rows);
    if (!st.ok()) return fail(st);
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

  // Upfront per-segment cache probe: hit windows are served as block
  // copies and never pinned, so a fully cached repeat scan does zero
  // paging and zero device work.
  std::vector<std::shared_ptr<const sched::CachedResultBlock>> hit(W);
  if (options.result_cache != nullptr) {
    for (size_t w = 0; w < W; ++w) {
      const Segment& seg = *snapshot.segments[w];
      hit[w] = options.result_cache->Get(options.fingerprint, seg.id(),
                                         Segment::kSealedVersion, seg.rows());
      if (hit[w] != nullptr) {
        std::memcpy(out.result->mutable_tail_data() + row_base[w] * 2,
                    hit[w]->values.data(),
                    static_cast<size_t>(seg.rows()) * sizeof(uint16_t));
        out.stats.rows_matched += hit[w]->rows_matched;
        WindowCacheHitsCounter().Add(1);
      }
    }
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
  // order (scanned windows only; cache hits cost nothing).
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

  Stopwatch wait_watch;
  double page_in_total = 0;
  for (size_t w = 0; w < W; ++w) {
    if (hit[w] != nullptr) continue;
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

    // Slice this window across the pool (ShardCounts placement, exactly
    // the proportional apportionment the pooled batch executor uses).
    int partitions = options.partitions;
    if (partitions <= 0) partitions = pool->total_engines();
    partitions = static_cast<int>(
        std::min<int64_t>(partitions, std::max<int64_t>(rows, 1)));
    const int64_t chunk = (rows + partitions - 1) / partitions;
    const uint32_t* window_offsets =
        reinterpret_cast<const uint32_t*>(view[w].offsets);

    std::vector<WindowSlice> slices;
    slices.reserve(static_cast<size_t>(partitions));
    for (int p = 0; p < partitions; ++p) {
      const int64_t first = p * chunk;
      if (first >= rows) break;
      const int64_t span = std::min<int64_t>(chunk, rows - first);
      if (span <= 0) continue;
      slices.emplace_back();
      WindowSlice& slice = slices.back();
      JobParams& params = slice.params;
      params.offsets = view[w].offsets + first * sizeof(uint32_t);
      params.heap = view[w].heap;
      params.result =
          out.result->mutable_tail_data() + (row_base[w] + first) * 2;
      params.count = span;
      params.offset_width = sizeof(uint32_t);
      params.heap_bytes =
          first + span < rows
              ? static_cast<int64_t>(window_offsets[first + span])
              : view[w].heap_bytes;
      params.config = config.vector.bytes();
    }

    // Deal slices to devices proportional to free engines, then submit
    // them all before awaiting any (the window's slices overlap across
    // engines in virtual time, same as a resident partitioned scan).
    {
      std::vector<int> quota =
          pool->ShardCounts(static_cast<int>(slices.size()));
      int dev = 0;
      for (WindowSlice& slice : slices) {
        while (quota[static_cast<size_t>(dev)] == 0) {
          dev = (dev + 1) % pool->size();
        }
        slice.device = dev;
        --quota[static_cast<size_t>(dev)];
        dev = (dev + 1) % pool->size();
      }
    }
    for (WindowSlice& slice : slices) {
      Result<FpgaJob> job = SubmitJobWithRetry(pool->device(slice.device),
                                               slice.params, policy,
                                               &slice.outcome);
      if (job.ok()) {
        slice.job = std::move(*job);
        pool->NoteInflight(slice.device, +1);
      } else if (IsFallbackEligible(job.status())) {
        slice.fallback = true;
      } else {
        unpin_all();
        return fail(job.status());
      }
    }

    // Double-buffering: with this window's jobs in flight, page the NEXT
    // scanned window in now so its (modeled) transfer overlaps this
    // window's execution. A budget too tight to hold two windows degrades
    // gracefully to serial page-then-scan.
    if (options.overlap) {
      for (size_t n = w + 1; n < W; ++n) {
        if (hit[n] != nullptr) continue;
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

    // Await this window's jobs; degrade what the device could not finish.
    std::vector<ClockExtent> extents(static_cast<size_t>(pool->size()));
    bool degraded = false;
    for (WindowSlice& slice : slices) {
      if (!slice.fallback) {
        Status st = AwaitJobWithRecovery(pool->device(slice.device),
                                         &slice.job, slice.params, policy,
                                         &slice.outcome);
        pool->NoteInflight(slice.device, -1);
        if (st.ok()) {
          const JobStatus& status = slice.job.status();
          if (trace != obs::kInvalidTraceId) {
            tracer.RecordJob(MakeJobRecord(trace, status));
          }
          ClockExtent& extent = extents[static_cast<size_t>(slice.device)];
          extent.any = true;
          extent.first_enqueue =
              std::min(extent.first_enqueue, status.enqueue_time);
          extent.last_finish =
              std::max(extent.last_finish, status.finish_time);
          out.stats.rows_matched += status.matches;
          if (out.stats.pu_kernel.empty()) {
            out.stats.pu_kernel = status.pu_kernel;
          }
          out.stats.functional_bytes += status.functional_bytes;
          out.stats.functional_seconds += status.functional_host_seconds;
        } else if (IsFallbackEligible(st)) {
          slice.fallback = true;
        } else {
          unpin_all();
          return fail(st);
        }
        slice.job.Release();
      }
      out.stats.job_retries += slice.outcome.retries;
      if (slice.outcome.ok && slice.outcome.fault_seen) {
        out.stats.faults_recovered += 1;
      }
      pool->NoteSlice(slice.device, slice.params.count);
    }
    for (WindowSlice& slice : slices) {
      if (!slice.fallback) continue;
      degraded = true;
      if (trace != obs::kInvalidTraceId) {
        tracer.RecordInstant(trace, "sw_fallback",
                             pool->device(slice.device)->now());
      }
      auto matches = RunHostSlice(dev_config, slice.params);
      if (!matches.ok()) {
        unpin_all();
        return fail(matches.status());
      }
      out.stats.rows_matched += *matches;
      out.stats.fallback_rows += slice.params.count;
    }

    double window_exec = 0;
    for (const ClockExtent& extent : extents) {
      if (!extent.any) continue;
      window_exec = std::max(
          window_exec,
          SecondsFromPicos(extent.last_finish - extent.first_enqueue));
    }
    t_in.push_back(window_t_in);
    d_exec.push_back(window_exec);
    out.stats.windows_streamed += 1;
    WindowsStreamedCounter().Add(1);

    // Offer the clean window back to the cache under the segment's stable
    // (id, version=1) identity so a repeat scan skips it entirely. The
    // cache's own completeness guard refuses saturated blocks.
    if (options.result_cache != nullptr && !degraded) {
      const uint8_t* tail = out.result->tail_data() + row_base[w] * 2;
      std::vector<uint16_t> values(static_cast<size_t>(rows));
      std::memcpy(values.data(), tail,
                  static_cast<size_t>(rows) * sizeof(uint16_t));
      options.result_cache->Put(options.fingerprint, seg.id(),
                                Segment::kSealedVersion, std::move(values),
                                /*degraded=*/false);
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

  if (out.stats.fallback_rows > 0) {
    out.stats.strategy = "fpga-streamed+sw_fallback";
  }
  out.stats.sim_host_seconds = wait_watch.ElapsedSeconds();
  out.stats.udf_software_seconds =
      std::max(0.0, udf_watch.ElapsedSeconds() - out.stats.sim_host_seconds);
  tracer.EndQuery(trace);
  return out;
}

}  // namespace doppio
