#include "db/hudf.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hw/config_compiler.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "regex/dfa_matcher.h"

namespace doppio {

namespace {

obs::Counter& FallbackRowsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.db.fallback_rows",
      "rows re-matched in software after the hardware path gave up");
  return *c;
}

/// Snapshot of one completed job's lifecycle stamps for the tracer.
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

/// One submitted (or degraded) slice of a batched query.
struct Slice {
  JobParams params;  // kept alive across resubmissions
  FpgaJob job;       // invalid when the submit degraded or once awaited
  JobOutcome outcome;
  bool fallback = false;
};

/// Per-query bookkeeping across the batch's submit/await phases.
struct QueryRun {
  FpgaBatchQuery* query = nullptr;
  Stopwatch udf_watch;  // started when the query enters the batch
  obs::TraceId trace = obs::kInvalidTraceId;
  std::vector<Slice> slices;
};

/// Demultiplexes a set-compiled query's row-major staging results
/// (out.result: count x streams 16-bit values) into per-stream columns
/// (FpgaBatchQuery::set_outputs). No-op at streams == 1. Byte-wise copy:
/// the raw device values pass through untouched, so every stream is
/// bit-identical to running its member pattern alone.
Status DemuxSetOutputs(Hal* hal, FpgaBatchQuery& q) {
  if (q.streams <= 1) return Status::OK();
  const int streams = q.streams;
  // q.rows/q.first_row were normalized in Phase 0: the admission snapshot
  // span, not whatever the input has grown to by demux time.
  const int64_t n = q.rows - q.first_row;
  q.set_outputs.clear();
  q.set_outputs.resize(static_cast<size_t>(streams));
  const uint8_t* staging = q.out.result->tail_data();
  for (int k = 0; k < streams; ++k) {
    HudfResult& out = q.set_outputs[static_cast<size_t>(k)];
    DOPPIO_ASSIGN_OR_RETURN(
        out.result, Bat::New(ValueType::kInt16, n, hal->bat_allocator()));
    DOPPIO_RETURN_NOT_OK(out.result->AppendZeros(n));
    uint8_t* dst = out.result->mutable_tail_data();
    int64_t matched = 0;
    for (int64_t i = 0; i < n; ++i) {
      const uint8_t lo = staging[(i * streams + k) * 2];
      const uint8_t hi = staging[(i * streams + k) * 2 + 1];
      dst[i * 2] = lo;
      dst[i * 2 + 1] = hi;
      if ((lo | hi) != 0) ++matched;
    }
    // The shared scan's phase/trace stats, with this stream's own count.
    out.stats = q.out.stats;
    out.stats.rows_matched = matched;
  }
  return Status::OK();
}

}  // namespace

Result<HudfResult> RunDfaScanInSoftware(const Bat& input,
                                        std::string_view pattern,
                                        const CompileOptions& options,
                                        int64_t rows) {
  HudfResult out;
  Stopwatch cpu_watch;
  const int64_t n =
      rows < 0 ? input.count() : std::min<int64_t>(rows, input.count());
  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<DfaMatcher> matcher,
                          DfaMatcher::Compile(pattern, options));
  DOPPIO_ASSIGN_OR_RETURN(out.result, Bat::New(ValueType::kInt16, n));
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    MatchResult m = matcher->Find(input.GetString(i));
    int16_t value =
        m.matched ? static_cast<int16_t>(std::min<int32_t>(
                        std::max<int32_t>(m.end, 1), 32767))
                  : 0;
    if (m.matched) ++matched;
    DOPPIO_RETURN_NOT_OK(out.result->AppendInt16(value));
  }
  out.stats.strategy = "software";
  out.stats.rows_scanned = n;
  out.stats.rows_matched = matched;
  out.stats.udf_software_seconds = cpu_watch.ElapsedSeconds();
  return out;
}

Result<HudfResult> RegexpHost(const DeviceConfig& device, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options) {
  if (input.type() != ValueType::kString) {
    return Status::InvalidArgument("regex job input must be a string BAT");
  }
  Stopwatch udf_watch;
  HudfResult out;
  out.stats.rows_scanned = input.count();

  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          CompileRegexConfig(pattern, device, options));
  out.stats.config_gen_seconds = config.compile_seconds;
  DOPPIO_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledPuProgram> program,
      CompiledPuProgram::Compile(config.vector, device));

  DOPPIO_ASSIGN_OR_RETURN(out.result,
                          Bat::New(ValueType::kInt16, input.count()));
  DOPPIO_RETURN_NOT_OK(out.result->AppendZeros(input.count()));

  HostSliceInfo info;
  if (input.count() > 0) {
    JobParams params;
    params.offsets = input.tail_data();
    params.heap = input.heap()->data();
    params.result = out.result->mutable_tail_data();
    params.count = input.count();
    params.offset_width = static_cast<int32_t>(input.offset_width());
    params.heap_bytes = input.heap()->size_bytes();
    params.config = config.vector.bytes();
    DOPPIO_ASSIGN_OR_RETURN(
        int64_t matches,
        RunHostSlice(device, params, std::move(program), &info));
    out.stats.rows_matched = matches;
  } else {
    info.backend = BackendRegistry::Global().ChooseHost(*program).id();
  }
  out.stats.strategy = std::string("host-") + BackendName(info.backend);
  out.stats.pu_kernel = info.kernel;
  out.stats.udf_software_seconds =
      std::max(0.0, udf_watch.ElapsedSeconds() - config.compile_seconds);
  return out;
}

Status RegexpFpgaBatch(Hal* hal,
                       const std::vector<FpgaBatchQuery*>& queries) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const RetryPolicy& policy = hal->retry_policy();
  const int num_engines = hal->device_config().num_engines;

  std::vector<QueryRun> runs;
  runs.reserve(queries.size());

  // On any fatal (non-fallback) error, close the spans already opened so
  // the tracer's per-query bookkeeping stays balanced.
  auto fail = [&](Status st) {
    for (QueryRun& run : runs) tracer.EndQuery(run.trace);
    return st;
  };

  // Phase 0: validate every query, open its span, allocate its result BAT.
  for (FpgaBatchQuery* q : queries) {
    if (q == nullptr || q->input == nullptr || q->config == nullptr) {
      return fail(Status::InvalidArgument("null batch query"));
    }
    if (q->input->type() != ValueType::kString) {
      return fail(
          Status::InvalidArgument("regex job input must be a string BAT"));
    }
    if (q->streams < 1 || q->streams > 64) {
      return fail(
          Status::InvalidArgument("batch query streams out of range [1, 64]"));
    }
    runs.emplace_back();
    QueryRun& run = runs.back();
    run.query = q;
    run.trace = tracer.BeginQuery(q->span_name);
    // Normalize the admission snapshot: -1 (or an over-count) means "all
    // rows as of now". From here on the executor reads q->rows only, so a
    // concurrent append cannot change the scanned extent mid-wave.
    if (q->rows < 0 || q->rows > q->input->count()) {
      q->rows = q->input->count();
    }
    if (q->first_row < 0) q->first_row = 0;
    if (q->first_row > q->rows) q->first_row = q->rows;
    const int64_t span = q->rows - q->first_row;
    HudfResult& out = q->out;
    out.stats.trace_id = run.trace;
    // Partitioning is internal to the operator; a set-compiled config
    // surfaces as its own strategy so demuxed streams are attributable.
    out.stats.strategy = q->streams > 1 ? "fpga-set" : "fpga";
    out.stats.rows_scanned = span;

    // streams > 1: the result BAT is the row-major staging area for every
    // stream; DemuxSetOutputs splits it per member after the wave.
    auto result =
        Bat::New(ValueType::kInt16, span * q->streams, hal->bat_allocator());
    if (!result.ok()) return fail(result.status());
    out.result = std::move(*result);
    Status st = out.result->AppendZeros(span * q->streams);
    if (!st.ok()) return fail(st);
  }

  // Phase 1: slice and submit every query before any is waited on, so all
  // queries of the wave overlap in virtual time across the engines.
  for (QueryRun& run : runs) {
    FpgaBatchQuery& q = *run.query;
    const Bat& input = *q.input;
    const int64_t base = q.first_row;  // admission snapshot (Phase 0)
    const int64_t limit = q.rows;
    const int64_t span = limit - base;
    if (span == 0) continue;  // degenerate: no rows, no slices

    int partitions = q.partitions;
    if (partitions <= 0) partitions = num_engines;
    partitions = static_cast<int>(
        std::min<int64_t>(partitions, std::max<int64_t>(span, 1)));

    Stopwatch hal_watch;
    const int64_t chunk = (span + partitions - 1) / partitions;
    const uint32_t* all_offsets =
        reinterpret_cast<const uint32_t*>(input.tail_data());
    for (int p = 0; p < partitions; ++p) {
      const int64_t first = base + p * chunk;
      if (first >= limit) break;
      const int64_t rows = std::min<int64_t>(chunk, limit - first);
      if (rows <= 0) continue;
      run.slices.emplace_back();
      Slice& slice = run.slices.back();
      JobParams& params = slice.params;
      params.offsets = input.tail_data() + first * input.offset_width();
      params.heap = input.heap()->data();
      params.result =
          q.out.result->mutable_tail_data() + (first - base) * 2 * q.streams;
      params.count = rows;
      params.streams = q.streams;
      params.offset_width = static_cast<int32_t>(input.offset_width());
      // Heap extent of this slice: up to the next slice's first string
      // (the heap is written in row order), or the heap end for the last
      // slice.
      params.heap_bytes =
          first + rows < input.count()
              ? static_cast<int64_t>(all_offsets[first + rows])
              : input.heap()->size_bytes();
      params.config = q.config->vector.bytes();
      params.timing_only = q.timing_only;
      Result<FpgaJob> job =
          SubmitJobWithRetry(hal->device(), params, policy, &slice.outcome);
      if (job.ok()) {
        slice.job = std::move(*job);
      } else if (IsFallbackEligible(job.status())) {
        slice.fallback = true;
      } else {
        return fail(job.status());
      }
    }
    q.out.stats.hal_seconds = hal_watch.ElapsedSeconds();
  }

  // Phase 2: await each query's slices in submission order, degrade the
  // slices the device could not complete, finalize per-query stats.
  for (QueryRun& run : runs) {
    FpgaBatchQuery& q = *run.query;
    HudfResult& out = q.out;

    if (q.rows - q.first_row == 0) {
      Status st = DemuxSetOutputs(hal, q);
      if (!st.ok()) return fail(st);
      out.stats.udf_software_seconds = run.udf_watch.ElapsedSeconds();
      tracer.EndQuery(run.trace);
      continue;
    }

    Stopwatch wait_watch;
    SimTime first_enqueue = std::numeric_limits<SimTime>::max();
    SimTime last_finish = 0;
    bool any_hw = false;
    for (Slice& slice : run.slices) {
      if (!slice.fallback) {
        Status st = AwaitJobWithRecovery(hal->device(), &slice.job,
                                         slice.params, policy,
                                         &slice.outcome);
        if (st.ok()) {
          const JobStatus& status = slice.job.status();
          any_hw = true;
          if (run.trace != obs::kInvalidTraceId) {
            tracer.RecordJob(MakeJobRecord(run.trace, status));
          }
          first_enqueue = std::min(first_enqueue, status.enqueue_time);
          last_finish = std::max(last_finish, status.finish_time);
          out.stats.rows_matched += status.matches;
          if (out.stats.pu_kernel.empty()) {
            out.stats.pu_kernel = status.pu_kernel;
          }
          out.stats.functional_bytes += status.functional_bytes;
          out.stats.functional_seconds += status.functional_host_seconds;
        } else if (IsFallbackEligible(st)) {
          slice.fallback = true;
        } else {
          return fail(st);
        }
        slice.job.Release();
      }
      out.stats.job_retries += slice.outcome.retries;
      if (slice.outcome.ok && slice.outcome.fault_seen) {
        out.stats.faults_recovered += 1;
      }
    }
    // Slices the device could not complete degrade to the software
    // matchers (the query must not fail for a fault the CPU can absorb).
    for (Slice& slice : run.slices) {
      if (!slice.fallback) continue;
      if (run.trace != obs::kInvalidTraceId) {
        tracer.RecordInstant(run.trace, "sw_fallback",
                             hal->device()->now());
      }
      auto matches = RunHostSlice(hal->device_config(), slice.params);
      if (!matches.ok()) return fail(matches.status());
      out.stats.rows_matched += *matches;
      out.stats.fallback_rows += slice.params.count;
      FallbackRowsCounter().Add(slice.params.count);
    }
    if (out.stats.fallback_rows > 0) {
      out.stats.strategy =
          q.streams > 1 ? "fpga-set+sw_fallback" : "fpga+sw_fallback";
    }
    out.stats.sim_host_seconds = wait_watch.ElapsedSeconds();
    out.stats.hw_seconds =
        any_hw ? SecondsFromPicos(last_finish - first_enqueue) : 0;
    out.stats.udf_software_seconds =
        std::max(0.0, run.udf_watch.ElapsedSeconds() -
                          out.stats.hal_seconds -
                          out.stats.sim_host_seconds);
    Status demux = DemuxSetOutputs(hal, q);
    if (!demux.ok()) return fail(demux);
    tracer.EndQuery(run.trace);
  }
  return Status::OK();
}

namespace {

/// One slice of a pooled batch: a Slice plus its placement state.
struct PoolSlice {
  JobParams params;
  FpgaJob job;
  JobOutcome outcome;
  bool fallback = false;
  bool resolved = false;
  int device = -1;    // pool member currently owning this slice
  int query = -1;     // index into the runs vector
};

/// Per-(query, device) virtual-time extent. Device clocks are independent
/// domains, so a query's hardware phase is the MAX of its per-device
/// extents, never a difference of stamps from two different clocks.
struct ClockExtent {
  SimTime first_enqueue = std::numeric_limits<SimTime>::max();
  SimTime last_finish = 0;
  bool any = false;
};

}  // namespace

Status RegexpFpgaBatchPooled(Hal* hal,
                             const std::vector<FpgaBatchQuery*>& queries) {
  DevicePool* pool = hal->pool();
  // A pool of one IS the paper's single-device deployment: take the exact
  // historical path so results, stats and virtual timing stay bit- and
  // byte-identical (the N=1 invariant device_pool_test pins).
  if (pool->size() == 1) return RegexpFpgaBatch(hal, queries);

  obs::Tracer& tracer = obs::Tracer::Global();
  const RetryPolicy& policy = hal->retry_policy();
  const int num_devices = pool->size();

  std::vector<QueryRun> runs;
  runs.reserve(queries.size());
  auto fail = [&](Status st) {
    for (QueryRun& run : runs) tracer.EndQuery(run.trace);
    return st;
  };

  // Phase 0: validate every query, open its span, allocate its result BAT
  // (identical to the single-device batch).
  for (FpgaBatchQuery* q : queries) {
    if (q == nullptr || q->input == nullptr || q->config == nullptr) {
      return fail(Status::InvalidArgument("null batch query"));
    }
    if (q->input->type() != ValueType::kString) {
      return fail(
          Status::InvalidArgument("regex job input must be a string BAT"));
    }
    if (q->streams < 1 || q->streams > 64) {
      return fail(
          Status::InvalidArgument("batch query streams out of range [1, 64]"));
    }
    runs.emplace_back();
    QueryRun& run = runs.back();
    run.query = q;
    run.trace = tracer.BeginQuery(q->span_name);
    if (q->rows < 0 || q->rows > q->input->count()) {
      q->rows = q->input->count();
    }
    if (q->first_row < 0) q->first_row = 0;
    if (q->first_row > q->rows) q->first_row = q->rows;
    const int64_t span = q->rows - q->first_row;
    HudfResult& out = q->out;
    out.stats.trace_id = run.trace;
    out.stats.strategy = q->streams > 1 ? "fpga-set" : "fpga";
    out.stats.rows_scanned = span;
    auto result =
        Bat::New(ValueType::kInt16, span * q->streams, hal->bat_allocator());
    if (!result.ok()) return fail(result.status());
    out.result = std::move(*result);
    Status st = out.result->AppendZeros(span * q->streams);
    if (!st.ok()) return fail(st);
  }

  // Phase 1: slice every query. The default partition count spans the
  // whole pool (one slice per engine across every member) so a query can
  // use all devices at once. Nothing is submitted yet — placement decides
  // where each slice goes.
  std::vector<PoolSlice> slices;
  for (size_t qi = 0; qi < runs.size(); ++qi) {
    QueryRun& run = runs[qi];
    FpgaBatchQuery& q = *run.query;
    const Bat& input = *q.input;
    const int64_t base = q.first_row;  // admission snapshot (Phase 0)
    const int64_t limit = q.rows;
    const int64_t span = limit - base;
    if (span == 0) continue;

    int partitions = q.partitions;
    if (partitions <= 0) partitions = pool->total_engines();
    partitions = static_cast<int>(
        std::min<int64_t>(partitions, std::max<int64_t>(span, 1)));

    Stopwatch hal_watch;
    const int64_t chunk = (span + partitions - 1) / partitions;
    const uint32_t* all_offsets =
        reinterpret_cast<const uint32_t*>(input.tail_data());
    for (int p = 0; p < partitions; ++p) {
      const int64_t first = base + p * chunk;
      if (first >= limit) break;
      const int64_t rows = std::min<int64_t>(chunk, limit - first);
      if (rows <= 0) continue;
      slices.emplace_back();
      PoolSlice& slice = slices.back();
      slice.query = static_cast<int>(qi);
      JobParams& params = slice.params;
      params.offsets = input.tail_data() + first * input.offset_width();
      params.heap = input.heap()->data();
      params.result =
          q.out.result->mutable_tail_data() + (first - base) * 2 * q.streams;
      params.count = rows;
      params.streams = q.streams;
      params.offset_width = static_cast<int32_t>(input.offset_width());
      params.heap_bytes =
          first + rows < input.count()
              ? static_cast<int64_t>(all_offsets[first + rows])
              : input.heap()->size_bytes();
      params.config = q.config->vector.bytes();
      params.timing_only = q.timing_only;
    }
    // Slicing cost is the pooled path's HAL phase; submission cost is
    // folded into the drain below (it interleaves queries).
    q.out.stats.hal_seconds = hal_watch.ElapsedSeconds();
  }

  // Placement: apportion the wave across the pool proportional to each
  // member's free engines (largest-remainder, deterministic), then deal
  // slices to their device round-robin so every device sees a mix of
  // queries rather than one query's whole tail.
  std::vector<std::deque<PoolSlice*>> pending(
      static_cast<size_t>(num_devices));
  {
    std::vector<int> quota = pool->ShardCounts(static_cast<int>(slices.size()));
    int d = 0;
    for (PoolSlice& slice : slices) {
      while (quota[static_cast<size_t>(d)] == 0) d = (d + 1) % num_devices;
      pending[static_cast<size_t>(d)].push_back(&slice);
      --quota[static_cast<size_t>(d)];
      d = (d + 1) % num_devices;
    }
  }

  int64_t remaining = static_cast<int64_t>(slices.size());
  std::vector<std::deque<PoolSlice*>> inflight(
      static_cast<size_t>(num_devices));
  // Per-(query, device) clock extents for the hardware phase.
  std::vector<std::vector<ClockExtent>> extents(
      runs.size(),
      std::vector<ClockExtent>(static_cast<size_t>(num_devices)));

  Status fatal = Status::OK();
  // A device whose last resolution degraded to software is *suspect*: it
  // keeps draining work already queued to it but does not steal more
  // until it completes a slice in hardware again. Keeps a stalled member
  // from stealing back the backlog that was just rebalanced away from it.
  std::vector<char> suspect(static_cast<size_t>(num_devices), 0);
  // Submit `slice` on device `d`. A submit that degrades resolves the
  // slice immediately (it runs in software after the drain).
  auto submit_one = [&](PoolSlice* slice, int d) {
    slice->device = d;
    Result<FpgaJob> job = SubmitJobWithRetry(pool->device(d), slice->params,
                                             policy, &slice->outcome);
    if (job.ok()) {
      slice->job = std::move(*job);
      inflight[static_cast<size_t>(d)].push_back(slice);
      pool->NoteInflight(d, +1);
      return true;
    }
    if (IsFallbackEligible(job.status())) {
      slice->fallback = true;
      slice->resolved = true;
      suspect[static_cast<size_t>(d)] = 1;
      --remaining;
      return true;
    }
    fatal = job.status();
    return false;
  };
  // Keep device `d` loaded up to its engine count. A device whose own
  // backlog ran dry steals queued slices from the most backlogged member
  // (ties to the lowest index) — this is what drains a healthy pool
  // around a fault-stalled device.
  auto top_up = [&](int d) {
    const int cap = pool->device(d)->config().num_engines;
    while (static_cast<int>(inflight[static_cast<size_t>(d)].size()) < cap) {
      if (pending[static_cast<size_t>(d)].empty()) {
        if (suspect[static_cast<size_t>(d)]) return true;  // no stealing
        int victim = -1;
        size_t victim_backlog = 0;
        for (int v = 0; v < num_devices; ++v) {
          if (v == d) continue;
          const size_t backlog = pending[static_cast<size_t>(v)].size();
          if (backlog > victim_backlog) {
            victim = v;
            victim_backlog = backlog;
          }
        }
        if (victim < 0) return true;  // nothing left anywhere
        // Steal from the BACK of the victim's queue: the victim keeps its
        // next-up work, the thief takes the tail it would reach last.
        PoolSlice* stolen = pending[static_cast<size_t>(victim)].back();
        pending[static_cast<size_t>(victim)].pop_back();
        pending[static_cast<size_t>(d)].push_back(stolen);
        pool->NoteSteal(victim, d);
      }
      PoolSlice* slice = pending[static_cast<size_t>(d)].front();
      pending[static_cast<size_t>(d)].pop_front();
      if (!submit_one(slice, d)) return false;
    }
    return true;
  };

  // Drain: visit devices round-robin, await one in-flight slice per visit
  // (a device's clock advances only while the host waits on it), then
  // top the device back up. Deterministic: placement, visit order and
  // steal choice depend only on queue sizes, never host timing.
  Stopwatch wait_watch;
  for (int d = 0; d < num_devices; ++d) {
    if (!top_up(d)) return fail(fatal);
  }
  while (remaining > 0) {
    bool progress = false;
    for (int d = 0; d < num_devices && remaining > 0; ++d) {
      if (inflight[static_cast<size_t>(d)].empty() && !top_up(d)) {
        return fail(fatal);
      }
      if (inflight[static_cast<size_t>(d)].empty()) continue;
      PoolSlice* slice = inflight[static_cast<size_t>(d)].front();
      inflight[static_cast<size_t>(d)].pop_front();
      pool->NoteInflight(d, -1);
      QueryRun& run = runs[static_cast<size_t>(slice->query)];
      HudfResult& out = run.query->out;
      Status st = AwaitJobWithRecovery(pool->device(d), &slice->job,
                                       slice->params, policy,
                                       &slice->outcome);
      if (st.ok()) {
        const JobStatus& status = slice->job.status();
        if (run.trace != obs::kInvalidTraceId) {
          tracer.RecordJob(MakeJobRecord(run.trace, status));
        }
        ClockExtent& extent =
            extents[static_cast<size_t>(slice->query)][static_cast<size_t>(d)];
        extent.any = true;
        extent.first_enqueue =
            std::min(extent.first_enqueue, status.enqueue_time);
        extent.last_finish = std::max(extent.last_finish, status.finish_time);
        out.stats.rows_matched += status.matches;
        if (out.stats.pu_kernel.empty()) {
          out.stats.pu_kernel = status.pu_kernel;
        }
        out.stats.functional_bytes += status.functional_bytes;
        out.stats.functional_seconds += status.functional_host_seconds;
        suspect[static_cast<size_t>(d)] = 0;
      } else if (IsFallbackEligible(st)) {
        slice->fallback = true;
        suspect[static_cast<size_t>(d)] = 1;
        // Fault feedback: this device just burned its whole retry budget
        // on a slice. Hand its queued backlog to the other members (each
        // takes a share, round-robin) instead of feeding more work into a
        // device that is demonstrably failing — this is what drains a
        // pool around a stalled member.
        if (num_devices > 1) {
          int thief = (d + 1) % num_devices;
          while (!pending[static_cast<size_t>(d)].empty()) {
            PoolSlice* moved = pending[static_cast<size_t>(d)].front();
            pending[static_cast<size_t>(d)].pop_front();
            if (thief == d) thief = (thief + 1) % num_devices;
            pending[static_cast<size_t>(thief)].push_back(moved);
            pool->NoteSteal(d, thief);
            thief = (thief + 1) % num_devices;
          }
        }
      } else {
        return fail(st);
      }
      slice->job.Release();
      slice->resolved = true;
      --remaining;
      progress = true;
      pool->NoteSlice(d, slice->params.count);
      if (!top_up(d)) return fail(fatal);
    }
    // Every device idle with slices unresolved would be a livelock; the
    // loop structure above always resolves at least one slice per pass.
    DOPPIO_CHECK(progress);
  }
  const double drain_seconds = wait_watch.ElapsedSeconds();

  // Degrade the slices no device could complete, then finalize per-query
  // stats. hw_seconds is the max per-clock-domain extent.
  for (size_t qi = 0; qi < runs.size(); ++qi) {
    QueryRun& run = runs[qi];
    FpgaBatchQuery& q = *run.query;
    HudfResult& out = q.out;
    if (q.rows - q.first_row == 0) {
      Status st = DemuxSetOutputs(hal, q);
      if (!st.ok()) return fail(st);
      out.stats.udf_software_seconds = run.udf_watch.ElapsedSeconds();
      tracer.EndQuery(run.trace);
      continue;
    }
    for (PoolSlice& slice : slices) {
      if (slice.query != static_cast<int>(qi)) continue;
      if (slice.fallback) {
        if (run.trace != obs::kInvalidTraceId) {
          tracer.RecordInstant(run.trace, "sw_fallback",
                               pool->device(slice.device)->now());
        }
        auto matches = RunHostSlice(hal->device_config(), slice.params);
        if (!matches.ok()) return fail(matches.status());
        out.stats.rows_matched += *matches;
        out.stats.fallback_rows += slice.params.count;
        FallbackRowsCounter().Add(slice.params.count);
      }
      out.stats.job_retries += slice.outcome.retries;
      if (slice.outcome.ok && slice.outcome.fault_seen) {
        out.stats.faults_recovered += 1;
      }
    }
    if (out.stats.fallback_rows > 0) {
      out.stats.strategy =
          q.streams > 1 ? "fpga-set+sw_fallback" : "fpga+sw_fallback";
    }
    double hw_seconds = 0;
    for (const ClockExtent& extent : extents[qi]) {
      if (!extent.any) continue;
      hw_seconds = std::max(
          hw_seconds,
          SecondsFromPicos(extent.last_finish - extent.first_enqueue));
    }
    out.stats.hw_seconds = hw_seconds;
    // The drain interleaves every query; its host cost is attributed to
    // each (it is a simulation artifact either way).
    out.stats.sim_host_seconds = drain_seconds;
    out.stats.udf_software_seconds =
        std::max(0.0, run.udf_watch.ElapsedSeconds() -
                          out.stats.hal_seconds -
                          out.stats.sim_host_seconds);
    Status demux = DemuxSetOutputs(hal, q);
    if (!demux.ok()) return fail(demux);
    tracer.EndQuery(run.trace);
  }
  return Status::OK();
}

Result<HudfResult> RegexpFpgaPartitionedPooled(Hal* hal, const Bat& input,
                                               const RegexConfig& config,
                                               int partitions) {
  FpgaBatchQuery query;
  query.input = &input;
  query.config = &config;
  query.partitions = partitions;
  query.span_name = "regexp_fpga_pooled";
  std::vector<FpgaBatchQuery*> batch{&query};
  DOPPIO_RETURN_NOT_OK(RegexpFpgaBatchPooled(hal, batch));
  return std::move(query.out);
}

Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         const RegexConfig& config,
                                         int partitions) {
  // A batch of one: identical slicing, submission order and virtual-time
  // behaviour to the historical single-query partitioned path.
  FpgaBatchQuery query;
  query.input = &input;
  query.config = &config;
  query.partitions = partitions;
  query.span_name = "regexp_fpga_partitioned";
  std::vector<FpgaBatchQuery*> batch{&query};
  DOPPIO_RETURN_NOT_OK(RegexpFpgaBatch(hal, batch));
  return std::move(query.out);
}

Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         std::string_view pattern,
                                         const CompileOptions& options,
                                         int partitions) {
  Stopwatch config_watch;
  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          hal->CompileConfig(pattern, options));
  DOPPIO_ASSIGN_OR_RETURN(
      HudfResult out, RegexpFpgaPartitioned(hal, input, config, partitions));
  out.stats.config_gen_seconds = config.compile_seconds;
  return out;
}

Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              std::string_view pattern,
                              const CompileOptions& options) {
  Stopwatch config_watch;
  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          hal->CompileConfig(pattern, options));
  DOPPIO_ASSIGN_OR_RETURN(HudfResult out, RegexpFpga(hal, input, config));
  out.stats.config_gen_seconds = config.compile_seconds;
  out.stats.udf_software_seconds -= config.compile_seconds;
  if (out.stats.udf_software_seconds < 0) out.stats.udf_software_seconds = 0;
  return out;
}

Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              const RegexConfig& config) {
  Stopwatch udf_watch;
  obs::Tracer& tracer = obs::Tracer::Global();
  const obs::TraceId trace = tracer.BeginQuery("regexp_fpga");
  HudfResult out;
  out.stats.trace_id = trace;
  out.stats.strategy = "fpga";
  out.stats.rows_scanned = input.count();

  // Allocate the result BAT (BATnew(TYPE_void, TYPE_short, count)).
  DOPPIO_ASSIGN_OR_RETURN(
      out.result,
      Bat::New(ValueType::kInt16, input.count(), hal->bat_allocator()));
  DOPPIO_RETURN_NOT_OK(out.result->AppendZeros(input.count()));

  if (input.count() == 0) {
    out.stats.udf_software_seconds = udf_watch.ElapsedSeconds();
    tracer.EndQuery(trace);
    return out;
  }

  const RetryPolicy& policy = hal->retry_policy();

  // Create the FPGA job through the HAL and busy-wait on the done bit,
  // under the bounded-retry lifecycle.
  Stopwatch hal_watch;
  DOPPIO_ASSIGN_OR_RETURN(
      JobParams params,
      hal->BuildRegexJobParams(input, out.result.get(), config));
  JobOutcome outcome;
  Result<FpgaJob> job =
      SubmitJobWithRetry(hal->device(), params, policy, &outcome);
  out.stats.hal_seconds = hal_watch.ElapsedSeconds();

  // The busy-wait advances the simulator's virtual clock; the host time it
  // burns doing so is a simulation artifact and is excluded from the
  // software phases. The hardware phase is virtual time.
  Stopwatch wait_watch;
  bool fallback = false;
  if (job.ok()) {
    FpgaJob handle = std::move(*job);
    Status wait_status = AwaitJobWithRecovery(hal->device(), &handle, params,
                                              policy, &outcome);
    if (wait_status.ok()) {
      if (trace != obs::kInvalidTraceId) {
        tracer.RecordJob(MakeJobRecord(trace, handle.status()));
      }
      out.stats.hw_seconds = handle.HwSeconds();  // virtual (simulated) time
      out.stats.rows_matched = handle.status().matches;
      out.stats.pu_kernel = handle.status().pu_kernel;
      out.stats.functional_bytes = handle.status().functional_bytes;
      out.stats.functional_seconds = handle.status().functional_host_seconds;
    } else if (IsFallbackEligible(wait_status)) {
      fallback = true;
    } else {
      return wait_status;
    }
  } else if (IsFallbackEligible(job.status())) {
    fallback = true;
  } else {
    return job.status();
  }

  if (fallback) {
    if (trace != obs::kInvalidTraceId) {
      tracer.RecordInstant(trace, "sw_fallback", hal->device()->now());
    }
    DOPPIO_ASSIGN_OR_RETURN(int64_t matches,
                            RunHostSlice(hal->device_config(), params));
    out.stats.rows_matched = matches;
    out.stats.fallback_rows = params.count;
    out.stats.strategy = "fpga+sw_fallback";
    FallbackRowsCounter().Add(params.count);
  }
  out.stats.job_retries = outcome.retries;
  if (outcome.ok && outcome.fault_seen) out.stats.faults_recovered = 1;

  const double wait_host_seconds = wait_watch.ElapsedSeconds();
  out.stats.sim_host_seconds = wait_host_seconds;
  out.stats.udf_software_seconds = udf_watch.ElapsedSeconds() -
                                   out.stats.hal_seconds -
                                   wait_host_seconds;
  if (out.stats.udf_software_seconds < 0) out.stats.udf_software_seconds = 0;
  tracer.EndQuery(trace);
  return out;
}

}  // namespace doppio
