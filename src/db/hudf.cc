#include "db/hudf.h"

#include <algorithm>
#include <cstring>
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
#include "sched/result_cache.h"

namespace doppio {

namespace {

// The kernels' saturated match index: "matched, end position >= 65535".
constexpr uint16_t kSaturated = std::numeric_limits<uint16_t>::max();

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

/// Result-cache key of a program: its config-vector bytes (the same
/// identity sched::ProgramCache uses).
std::string_view FingerprintOf(const RegexConfig& config) {
  const std::vector<uint8_t>& bytes = config.vector.bytes();
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Rows [first, first + rows) of a kInt16 result, as a cache block.
std::vector<uint16_t> BlockValues(const Bat& result, int64_t first,
                                  int64_t rows) {
  const uint16_t* values =
      reinterpret_cast<const uint16_t*>(result.tail_data()) + first;
  return std::vector<uint16_t>(values, values + rows);
}

/// One device or host slice of a plan on its way through the executor.
struct SliceRun {
  size_t query = 0;  // index into the plan's queries
  JobParams params;  // kept alive across resubmissions
  FpgaJob job;       // invalid when the submit degraded or once awaited
  JobOutcome outcome;
  bool device = false;   // planned as a device job
  bool on_host = false;  // a planned host run, or a device job degraded
  int owner = -1;        // device currently owning a device slice
};

/// Per-(query, device) virtual-time extent. Device clocks are independent
/// domains, so a query's hardware phase is the MAX of its per-device
/// extents, never a difference of stamps from two different clocks.
struct ClockExtent {
  SimTime first_enqueue = std::numeric_limits<SimTime>::max();
  SimTime last_finish = 0;
  bool any = false;
};

/// Demultiplexes a set-compiled query's row-major staging results
/// (count x streams 16-bit values) into per-stream columns. No-op at
/// streams == 1. Byte-wise copy: the raw device values pass through
/// untouched, so every stream is bit-identical to running its member
/// pattern alone. The columns live where the staging result does.
Status DemuxSetOutputs(ScanQuery& q) {
  if (q.streams <= 1) return Status::OK();
  const int streams = q.streams;
  const int64_t n = q.result->count() / streams;
  q.set_outputs.resize(static_cast<size_t>(streams));
  const uint8_t* staging = q.result->tail_data();
  for (int k = 0; k < streams; ++k) {
    HudfResult& out = q.set_outputs[static_cast<size_t>(k)];
    DOPPIO_ASSIGN_OR_RETURN(out.result,
                            ZeroedInt16Bat(n, q.result->allocator()));
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
    out.stats = q.stats;
    out.stats.rows_matched = matched;
  }
  return Status::OK();
}

/// The continuation stage (DESIGN.md §5, "Hybrid continuation"): rewrites
/// the values of view rows [0, rows) from the prefix's match index to the
/// full pattern's, reading each candidate's bytes from the view. Sets
/// q.resumed and recounts q.stats.rows_matched.
Status Resume(ScanQuery& q, int64_t rows) {
  const ScanContinuation& c = *q.continuation;
  std::unique_ptr<HostExecution> suffix;
  if (c.suffix != nullptr) {
    suffix = BackendRegistry::Global().ChooseHost(*c.suffix).NewExecution(
        c.suffix);
  }
  std::unique_ptr<DfaMatcher> full;
  const uint32_t* offsets = reinterpret_cast<const uint32_t*>(q.offsets);
  const char* heap = reinterpret_cast<const char*>(q.heap);
  uint16_t* values =
      reinterpret_cast<uint16_t*>(q.result->mutable_tail_data()) +
      q.result_offset;
  int64_t matched = 0;
  for (int64_t i = 0; i < rows; ++i) {
    const uint16_t prefix_end = values[i];
    if (prefix_end == 0) continue;
    ++q.resumed;
    // A view string runs from its offset to its NUL, inside the heap.
    const int64_t at = offsets[i];
    const char* nul =
        at < q.heap_bytes
            ? static_cast<const char*>(std::memchr(
                  heap + at, '\0', static_cast<size_t>(q.heap_bytes - at)))
            : nullptr;
    if (nul == nullptr) return Status::Internal("unterminated view string");
    const std::string_view text(heap + at,
                                static_cast<size_t>(nul - (heap + at)));
    int64_t end = 0;
    if (suffix != nullptr && prefix_end < kSaturated) {
      const uint16_t tail = suffix->Match(
          text.substr(std::min<size_t>(prefix_end, text.size())));
      if (tail != 0) end = int64_t{prefix_end} + tail;
    } else {
      if (full == nullptr) {
        DOPPIO_ASSIGN_OR_RETURN(full,
                                DfaMatcher::Compile(c.pattern, c.options));
      }
      const MatchResult m = full->Find(text);
      if (m.matched) end = m.end;
    }
    values[i] = static_cast<uint16_t>(std::min<int64_t>(end, kSaturated));
    if (end != 0) ++matched;
  }
  q.stats.rows_matched = matched;
  return Status::OK();
}

/// Rows [0, end of the last slice) of the query's view.
int64_t ExtentOf(const ScanQuery& q) {
  int64_t rows = 0;
  for (const ScanSlice& slice : q.slices) {
    rows = std::max(rows, slice.first_row + slice.rows);
  }
  return rows;
}

/// Plans `queries` as one ScanPlan — over the whole pool, or pool device
/// 0 only — and executes it.
Status RunBatch(Hal* hal, const std::vector<FpgaBatchQuery*>& queries,
                bool pooled) {
  ScanPlan plan;
  plan.hal = hal;
  plan.pooled = pooled;
  const int engines = pooled ? hal->pool()->total_engines()
                             : hal->device_config().num_engines;
  for (FpgaBatchQuery* q : queries) {
    if (q == nullptr || q->input == nullptr || q->config == nullptr) {
      return Status::InvalidArgument("null batch query");
    }
    if (q->streams < 1 || q->streams > 64) {
      return Status::InvalidArgument(
          "batch query streams out of range [1, 64]");
    }
    ScanQuery& scan = plan.queries.emplace_back();
    DOPPIO_RETURN_NOT_OK(scan.SetView(*q->input));
    // streams > 1: the result BAT is the row-major staging area for
    // every stream; the executor demuxes it per member.
    DOPPIO_ASSIGN_OR_RETURN(
        q->out.result,
        ZeroedInt16Bat(scan.view_rows * q->streams, hal->bat_allocator()));
    scan.result = q->out.result.get();
    scan.config = q->config;
    scan.streams = q->streams;
    scan.timing_only = q->timing_only;
    scan.span_name = q->span_name;
    // Partitioning is internal to the operator; a set-compiled config
    // surfaces as its own strategy so demuxed streams are attributable.
    scan.route = q->streams > 1 ? "fpga-set" : "fpga";
    scan.AddDeviceSlices(0, scan.view_rows,
                         q->partitions > 0 ? q->partitions : engines);
  }
  DOPPIO_RETURN_NOT_OK(ExecuteScanPlan(&plan));
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i]->out.stats = std::move(plan.queries[i].stats);
    queries[i]->set_outputs = std::move(plan.queries[i].set_outputs);
  }
  return Status::OK();
}

Result<HudfResult> RunOne(Hal* hal, const Bat& input,
                          const RegexConfig& config, int partitions,
                          const char* span_name, bool pooled) {
  FpgaBatchQuery query;
  query.input = &input;
  query.config = &config;
  query.partitions = partitions;
  query.span_name = span_name;
  DOPPIO_RETURN_NOT_OK(RunBatch(hal, {&query}, pooled));
  return std::move(query.out);
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
    const uint16_t value =
        m.matched ? static_cast<uint16_t>(std::min<int32_t>(
                        std::max<int32_t>(m.end, 1), kSaturated))
                  : uint16_t{0};
    if (m.matched) ++matched;
    DOPPIO_RETURN_NOT_OK(out.result->AppendInt16(static_cast<int16_t>(value)));
  }
  out.stats.strategy = "software";
  out.stats.rows_scanned = n;
  out.stats.rows_matched = matched;
  out.stats.udf_software_seconds = cpu_watch.ElapsedSeconds();
  return out;
}

Result<HudfResult> RegexpHost(const DeviceConfig& device, const Bat& input,
                              const RegexConfig& config) {
  ScanPlan plan;
  plan.device = &device;
  ScanQuery& query = plan.queries.emplace_back();
  DOPPIO_RETURN_NOT_OK(query.SetView(input));
  DOPPIO_ASSIGN_OR_RETURN(query.program,
                          CompiledPuProgram::Compile(config.vector, device));
  HudfResult out;
  DOPPIO_ASSIGN_OR_RETURN(out.result, ZeroedInt16Bat(input.count()));
  query.result = out.result.get();
  query.config = &config;
  const KernelBackend& backend =
      BackendRegistry::Global().ChooseHost(*query.program);
  query.route = std::string("host-") + BackendName(backend.id());
  query.slices.push_back({SliceSource::kHost, 0, input.count(), nullptr});
  DOPPIO_RETURN_NOT_OK(ExecuteScanPlan(&plan));
  out.stats = std::move(query.stats);
  return out;
}

CacheHit ResolveCached(sched::ResultCache* cache, const RegexConfig& program,
                       ColumnSnapshot column, int64_t rows,
                       CacheProbe probe) {
  CacheHit hit;
  if (cache == nullptr) return hit;
  const std::string_view fingerprint = FingerprintOf(program);
  if (probe.exact) {
    hit.block = cache->Get(fingerprint, column.id, column.version, rows,
                           probe.count_miss);
    hit.exact = hit.block != nullptr;
  }
  if (hit.block == nullptr && probe.prefix) {
    hit.block = cache->GetPrefix(fingerprint, column.id, rows);
  }
  return hit;
}

Result<std::unique_ptr<Bat>> ZeroedInt16Bat(int64_t count,
                                            BufferAllocator* allocator) {
  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<Bat> bat,
                          Bat::New(ValueType::kInt16, count, allocator));
  DOPPIO_RETURN_NOT_OK(bat->AppendZeros(count));
  return bat;
}

Status ScanQuery::SetView(const Bat& input) {
  if (input.type() != ValueType::kString) {
    return Status::InvalidArgument("regex job input must be a string BAT");
  }
  offsets = input.tail_data();
  heap = input.heap()->data();
  view_rows = input.count();
  heap_bytes = input.heap()->size_bytes();
  return Status::OK();
}

void ScanQuery::AddDeviceSlices(int64_t first, int64_t limit,
                                int partitions) {
  const int64_t span = limit - first;
  if (span <= 0) return;
  const int64_t parts = std::clamp<int64_t>(partitions, 1, span);
  const int64_t chunk = (span + parts - 1) / parts;
  for (int64_t row = first; row < limit; row += chunk) {
    slices.push_back(
        {SliceSource::kDevice, row, std::min(chunk, limit - row), nullptr});
  }
}

void ScanQuery::AddSlices(const CacheHit& hit, int64_t first, int64_t limit,
                          SliceSource source, int partitions) {
  int64_t covered = 0;
  if (hit.block != nullptr) {
    covered = std::min(hit.block->rows(), limit - first);
    slices.push_back({SliceSource::kCached, first, covered, hit.block});
  }
  if (source == SliceSource::kDevice) {
    AddDeviceSlices(first + covered, limit, partitions);
  } else if (first + covered < limit) {
    slices.push_back(
        {source, first + covered, limit - first - covered, nullptr});
  }
}

Status ExecuteScanPlan(ScanPlan* plan) {
  obs::Tracer& tracer = obs::Tracer::Global();
  Hal* hal = plan->hal;
  std::vector<ScanQuery>& queries = plan->queries;
  const DeviceConfig& host_device =
      plan->device != nullptr ? *plan->device : hal->device_config();

  for (ScanQuery& q : queries) {
    if (q.span_name != nullptr) q.trace = tracer.BeginQuery(q.span_name);
  }
  DevicePool* pool = hal != nullptr ? hal->pool() : nullptr;
  const int num_devices = pool == nullptr ? 0 : plan->pooled ? pool->size() : 1;
  std::vector<std::deque<SliceRun*>> inflight(static_cast<size_t>(num_devices));
  // On any fatal (non-fallback) error: hand back the in-flight engine
  // claims and close the spans this executor opened, so the pool's
  // occupancy and the tracer's per-query bookkeeping stay balanced.
  auto fail = [&](Status st) {
    for (int d = 0; d < num_devices; ++d) {
      const size_t claimed = inflight[static_cast<size_t>(d)].size();
      pool->NoteInflight(d, -static_cast<int>(claimed));
    }
    for (ScanQuery& q : queries) {
      if (q.span_name != nullptr) tracer.EndQuery(q.trace);
    }
    return st;
  };

  // Build every device and host slice's job parameters. A deque: the
  // drain holds pointers into `runs`.
  std::deque<SliceRun> runs;
  std::vector<SliceRun*> device_runs;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ScanQuery& q = queries[qi];
    q.stats = QueryStats();
    q.stats.trace_id = q.trace;
    q.resumed = 0;
    q.set_outputs.clear();
    DOPPIO_CHECK(q.continuation == nullptr || q.streams == 1);
    const uint32_t* offsets = reinterpret_cast<const uint32_t*>(q.offsets);
    for (const ScanSlice& slice : q.slices) {
      if (slice.rows <= 0) continue;
      // A block holds one value per row and serves exactly a kCached
      // slice; device slices need a HAL.
      DOPPIO_CHECK((slice.block != nullptr) ==
                   (slice.source == SliceSource::kCached));
      DOPPIO_CHECK(slice.block == nullptr || q.streams == 1);
      DOPPIO_CHECK(slice.source != SliceSource::kDevice || pool != nullptr);
      if (slice.block != nullptr && slice.block->rows() != slice.rows) {
        // Never serve rows the block does not hold.
        return fail(Status::Internal("cached block does not cover its slice"));
      }
      if (slice.source == SliceSource::kCached) continue;
      q.stats.rows_scanned += slice.rows;
      SliceRun& run = runs.emplace_back();
      run.query = qi;
      run.device = slice.source == SliceSource::kDevice;
      run.on_host = !run.device;
      if (run.device) device_runs.push_back(&run);
      const int64_t end = slice.first_row + slice.rows;
      JobParams& params = run.params;
      params.offsets = q.offsets + slice.first_row * sizeof(uint32_t);
      params.heap = q.heap;
      params.result = q.result->mutable_tail_data() +
                      (slice.first_row + q.result_offset) * 2 * q.streams;
      params.count = slice.rows;
      params.streams = q.streams;
      params.offset_width = sizeof(uint32_t);
      // Heap extent of this slice: up to the next row's first string (the
      // heap is written in row order), or the view's heap end.
      params.heap_bytes = end < q.view_rows
                              ? static_cast<int64_t>(offsets[end])
                              : q.heap_bytes;
      params.config = q.config->vector.bytes();
      params.timing_only = q.timing_only;
    }
  }
  const double hal_seconds = plan->watch.ElapsedSeconds();

  // Drain: place the device slices, then visit devices round-robin,
  // awaiting one in-flight slice per visit (a device's clock advances
  // only while the host waits on it) and topping the device back up.
  Stopwatch drain_watch;
  std::vector<std::vector<ClockExtent>> extents(
      queries.size(),
      std::vector<ClockExtent>(static_cast<size_t>(num_devices)));
  if (!device_runs.empty()) {
    const RetryPolicy& policy = hal->retry_policy();
    // Apportion the slices across the devices in scope proportional to
    // their free engines (largest-remainder, deterministic), then deal
    // them round-robin so every device sees a mix of queries rather than
    // one query's whole tail.
    std::vector<std::deque<SliceRun*>> pending(
        static_cast<size_t>(num_devices));
    {
      const int n = static_cast<int>(device_runs.size());
      std::vector<int> quota =
          plan->pooled ? pool->ShardCounts(n) : std::vector<int>{n};
      int d = 0;
      for (SliceRun* run : device_runs) {
        while (quota[static_cast<size_t>(d)] == 0) d = (d + 1) % num_devices;
        pending[static_cast<size_t>(d)].push_back(run);
        --quota[static_cast<size_t>(d)];
        d = (d + 1) % num_devices;
      }
    }

    int64_t remaining = static_cast<int64_t>(device_runs.size());
    Status fatal = Status::OK();
    // A device whose last resolution degraded to software is *suspect*: it
    // keeps draining work already queued to it but does not steal more
    // until it completes a slice in hardware again. Keeps a stalled member
    // from stealing back the backlog that was just rebalanced away from it.
    std::vector<char> suspect(static_cast<size_t>(num_devices), 0);
    // Submit `run` on device `d`. A submit that degrades resolves the
    // slice immediately (it runs on the host after the drain).
    auto submit_one = [&](SliceRun* run, int d) {
      run->owner = d;
      Result<FpgaJob> job = SubmitJobWithRetry(pool->device(d), run->params,
                                               policy, &run->outcome);
      if (job.ok()) {
        run->job = std::move(*job);
        inflight[static_cast<size_t>(d)].push_back(run);
        pool->NoteInflight(d, +1);
        return true;
      }
      if (IsFallbackEligible(job.status())) {
        run->on_host = true;
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
          SliceRun* stolen = pending[static_cast<size_t>(victim)].back();
          pending[static_cast<size_t>(victim)].pop_back();
          pending[static_cast<size_t>(d)].push_back(stolen);
          pool->NoteSteal(victim, d);
        }
        SliceRun* run = pending[static_cast<size_t>(d)].front();
        pending[static_cast<size_t>(d)].pop_front();
        if (!submit_one(run, d)) return false;
      }
      return true;
    };

    // Deterministic: placement, visit order and steal choice depend only
    // on queue sizes, never host timing.
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
        SliceRun* run = inflight[static_cast<size_t>(d)].front();
        inflight[static_cast<size_t>(d)].pop_front();
        pool->NoteInflight(d, -1);
        ScanQuery& q = queries[run->query];
        Status st = AwaitJobWithRecovery(pool->device(d), &run->job,
                                         run->params, policy, &run->outcome);
        if (st.ok()) {
          const JobStatus& status = run->job.status();
          if (q.trace != obs::kInvalidTraceId) {
            tracer.RecordJob(MakeJobRecord(q.trace, status));
          }
          ClockExtent& extent =
              extents[run->query][static_cast<size_t>(d)];
          extent.any = true;
          extent.first_enqueue =
              std::min(extent.first_enqueue, status.enqueue_time);
          extent.last_finish = std::max(extent.last_finish, status.finish_time);
          q.stats.rows_matched += status.matches;
          if (q.stats.pu_kernel.empty()) q.stats.pu_kernel = status.pu_kernel;
          q.stats.functional_bytes += status.functional_bytes;
          q.stats.functional_seconds += status.functional_host_seconds;
          suspect[static_cast<size_t>(d)] = 0;
        } else if (IsFallbackEligible(st)) {
          run->on_host = true;
          suspect[static_cast<size_t>(d)] = 1;
          // Fault feedback: this device just burned its whole retry budget
          // on a slice. Hand its queued backlog to the other members (each
          // takes a share, round-robin) instead of feeding more work into a
          // device that is demonstrably failing — this is what drains a
          // pool around a stalled member.
          if (num_devices > 1) {
            int thief = (d + 1) % num_devices;
            while (!pending[static_cast<size_t>(d)].empty()) {
              SliceRun* moved = pending[static_cast<size_t>(d)].front();
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
        run->job.Release();
        --remaining;
        progress = true;
        pool->NoteSlice(d, run->params.count);
        if (!top_up(d)) return fail(fatal);
      }
      // Every device idle with slices unresolved would be a livelock; the
      // loop structure above always resolves at least one slice per pass.
      DOPPIO_CHECK(progress);
    }
  }
  const double drain_seconds = drain_watch.ElapsedSeconds();

  // Stitch each query: copy its cached blocks, run its planned host
  // slices and the device slices no device could complete on the host
  // (the query must not fail for a fault the CPU can absorb), fold the
  // per-slice stats, resume a split's candidates, demux set streams.
  // scanned[qi]: the query ran a device or host slice. prefix_values[qi]:
  // a split's scanned values from before its continuation ran, kept only
  // to be offered back.
  std::vector<char> scanned(queries.size(), 0);
  std::vector<std::vector<uint16_t>> prefix_values(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ScanQuery& q = queries[qi];
    bool cached = false;
    for (const ScanSlice& slice : q.slices) {
      if (slice.source != SliceSource::kCached || slice.rows <= 0) continue;
      std::memcpy(q.result->mutable_tail_data() +
                      (slice.first_row + q.result_offset) * sizeof(uint16_t),
                  slice.block->values.data(),
                  static_cast<size_t>(slice.rows) * sizeof(uint16_t));
      q.stats.rows_matched += slice.block->rows_matched;
      cached = true;
    }
    for (SliceRun& run : runs) {
      if (run.query != qi) continue;
      scanned[qi] = 1;
      if (run.device) {
        q.stats.job_retries += run.outcome.retries;
        if (run.outcome.ok && run.outcome.fault_seen) {
          q.stats.faults_recovered += 1;
        }
      }
      if (!run.on_host) continue;
      if (run.device && q.trace != obs::kInvalidTraceId) {
        tracer.RecordInstant(q.trace, "sw_fallback",
                             pool->device(run.owner)->now());
      }
      HostSliceInfo info;
      auto matches = RunHostSlice(host_device, run.params, q.program, &info);
      if (!matches.ok()) return fail(matches.status());
      q.stats.rows_matched += *matches;
      if (run.device) {
        q.stats.fallback_rows += run.params.count;
        FallbackRowsCounter().Add(run.params.count);
      } else if (q.stats.pu_kernel.empty()) {
        q.stats.pu_kernel = info.kernel;
      }
    }
    if (q.continuation != nullptr) {
      const int64_t rows = ExtentOf(q);
      if (plan->cache != nullptr && scanned[qi] && !q.timing_only) {
        prefix_values[qi] = BlockValues(*q.result, q.result_offset, rows);
      }
      Status resumed = Resume(q, rows);
      if (!resumed.ok()) return fail(resumed);
    }
    if (cached && !scanned[qi] && q.continuation == nullptr) {
      q.stats.strategy = "fpga-cache";
    } else {
      q.stats.strategy = q.route;
      if (q.stats.fallback_rows > 0) q.stats.strategy += "+sw_fallback";
      if (cached && scanned[qi]) q.stats.strategy += "+cache_prefix";
    }
    for (const ClockExtent& extent : extents[qi]) {
      if (!extent.any) continue;
      q.stats.hw_seconds = std::max(
          q.stats.hw_seconds,
          SecondsFromPicos(extent.last_finish - extent.first_enqueue));
    }
    // The plan and the drain interleave every query; their host cost is
    // attributed to each.
    q.stats.hal_seconds = hal_seconds;
    q.stats.sim_host_seconds = drain_seconds;
    q.stats.udf_software_seconds =
        std::max(0.0, plan->watch.ElapsedSeconds() - hal_seconds -
                          drain_seconds);
    Status demux = DemuxSetOutputs(q);
    if (!demux.ok()) return fail(demux);
    if (q.span_name != nullptr) tracer.EndQuery(q.trace);
  }

  // Offer each scanned query's complete result back to the cache, once
  // every query's phases are stamped: no phase is charged for it. A set
  // offers each demuxed stream under its member's fingerprint — it is
  // bit-identical to a solo scan of that member. A split offers its
  // prefix values under `config`, and its final values under the full
  // pattern's program when it has one. Queries served wholly from cache
  // and timing-only runs (zeroed results) offer nothing under `config`.
  if (plan->cache != nullptr) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const ScanQuery& q = queries[qi];
      if (q.timing_only) continue;
      const int64_t rows = ExtentOf(q);
      const bool degraded = q.stats.fallback_rows > 0;
      if (q.continuation != nullptr &&
          q.continuation->full_config != nullptr) {
        plan->cache->Put(FingerprintOf(*q.continuation->full_config),
                         q.snapshot.id, q.snapshot.version,
                         BlockValues(*q.result, q.result_offset, rows),
                         degraded);
      }
      if (!scanned[qi]) continue;
      if (q.streams == 1) {
        plan->cache->Put(FingerprintOf(*q.config), q.snapshot.id,
                         q.snapshot.version,
                         q.continuation != nullptr
                             ? std::move(prefix_values[qi])
                             : BlockValues(*q.result, q.result_offset, rows),
                         degraded);
        continue;
      }
      DOPPIO_CHECK(q.stream_fingerprints != nullptr);
      for (int k = 0; k < q.streams; ++k) {
        plan->cache->Put((*q.stream_fingerprints)[static_cast<size_t>(k)],
                         q.snapshot.id, q.snapshot.version,
                         BlockValues(*q.set_outputs[static_cast<size_t>(k)]
                                          .result,
                                     0, rows),
                         degraded);
      }
    }
  }
  return Status::OK();
}

Status RegexpFpgaBatchPooled(Hal* hal,
                             const std::vector<FpgaBatchQuery*>& queries) {
  return RunBatch(hal, queries, /*pooled=*/true);
}

Result<HudfResult> RegexpFpgaPartitionedPooled(Hal* hal, const Bat& input,
                                               const RegexConfig& config,
                                               int partitions) {
  return RunOne(hal, input, config, partitions, "regexp_fpga_pooled",
                /*pooled=*/true);
}

Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         const RegexConfig& config,
                                         int partitions) {
  return RunOne(hal, input, config, partitions, "regexp_fpga_partitioned",
                /*pooled=*/false);
}

Result<HudfResult> RegexpFpgaPartitioned(Hal* hal, const Bat& input,
                                         std::string_view pattern,
                                         const CompileOptions& options,
                                         int partitions) {
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
  DOPPIO_ASSIGN_OR_RETURN(RegexConfig config,
                          hal->CompileConfig(pattern, options));
  DOPPIO_ASSIGN_OR_RETURN(HudfResult out, RegexpFpga(hal, input, config));
  out.stats.config_gen_seconds = config.compile_seconds;
  return out;
}

Result<HudfResult> RegexpFpga(Hal* hal, const Bat& input,
                              const RegexConfig& config) {
  // The paper's HUDF: one job over the whole BAT on device 0, busy-waited
  // under the bounded-retry lifecycle.
  return RunOne(hal, input, config, /*partitions=*/1, "regexp_fpga",
                /*pooled=*/false);
}

}  // namespace doppio
