#include "hw/regex_engine.h"

#include <string>

#include "common/stopwatch.h"
#include "hw/config_vector.h"
#include "hw/kernel_backend.h"
#include "hw/output_collector.h"
#include "hw/pu_kernel.h"
#include "hw/string_reader.h"
#include "obs/json.h"

namespace doppio {

RegexEngine::RegexEngine(int id, const DeviceConfig& device, Arbiter* arbiter,
                         SimScheduler* scheduler, ThreadPool* pool)
    : id_(id),
      device_(device),
      arbiter_(arbiter),
      scheduler_(scheduler),
      pool_(pool) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "doppio.engine." + std::to_string(id) + ".";
  metric_jobs_ = registry.GetCounter(prefix + "jobs_executed",
                                     "jobs this engine completed");
  metric_bytes_ = registry.GetCounter(prefix + "bytes_streamed",
                                      "cache-line traffic this engine drove");
  metric_functional_mbps_ = registry.GetHistogram(
      "doppio.engine.functional_mbps", obs::MbpsBuckets(),
      "functional-pass host throughput per job, all engines");
}

Status RegexEngine::Start(JobParams* params, JobStatus* status,
                          std::function<void()> on_done) {
  if (busy_) return Status::Internal("engine already executing a job");
  busy_ = true;
  params_ = params;
  status_ = status;
  on_done_ = std::move(on_done);
  blocks_.clear();

  status_->engine_id = id_;
  status_->start_time = scheduler_->now();

  const FaultPlan& faults = device_.faults;
  if (faults.engine_stalled(id_)) {
    // Permanently stalled engine: the job is accepted but never finishes
    // and the engine never becomes idle again. The HAL's deadline wait
    // detects this (device drains with the done bit unset) and requeues
    // or degrades to software.
    status_->fault_flags.fetch_or(kJobFaultStalled,
                                  std::memory_order_release);
    return Status::OK();
  }
  if (faults.enabled && faults.Fires(FaultKind::kDrop,
                                     status_->queue_job_id,
                                     faults.drop_rate)) {
    // Dropped job: after the parameter fetch the job vanishes — no
    // functional results, no done bit. The engine frees itself so queued
    // work continues; the waiting UDF times out and retries.
    status_->fault_flags.fetch_or(kJobFaultDropped,
                                  std::memory_order_release);
    scheduler_->ScheduleAfter(PicosFromSeconds(device_.job_setup_sec),
                              [this] {
                                auto on_drop = std::move(on_done_);
                                busy_ = false;
                                params_ = nullptr;
                                status_ = nullptr;
                                if (on_drop) on_drop();
                              });
    return Status::OK();
  }

  Status st = RunFunctional(params_, status_, &blocks_);
  if (!st.ok()) {
    busy_ = false;
    params_ = nullptr;
    status_ = nullptr;
    on_done_ = nullptr;
    return st;
  }
  BuildChunks();

  // Timing: job-parameter fetch + PU parametrization (~300 ns), then the
  // chunked reader pipeline.
  const int64_t param_lines =
      1 + static_cast<int64_t>(params_->config.size() + kCacheLineBytes - 1) /
              kCacheLineBytes;
  SimTime fetch_done =
      arbiter_->Transfer(id_, scheduler_->now(), param_lines);
  SimTime setup_done =
      fetch_done + PicosFromSeconds(device_.job_setup_sec);
  pu_done_ = setup_done;
  SimTime delay = setup_done - scheduler_->now();
  scheduler_->ScheduleAfter(delay, [this] { ScheduleNextChunk(0); });
  return Status::OK();
}

void RegexEngine::BuildChunks() {
  chunks_.clear();
  for (const BlockTiming& block : blocks_) {
    // Offset phase (no PU payload), then the heap phase whose payload the
    // PUs consume, both split into interleavable chunks.
    int64_t remaining = block.offset_lines;
    while (remaining > 0) {
      int64_t lines = std::min(remaining, kChunkLines);
      chunks_.push_back(Chunk{lines, 0});
      remaining -= lines;
    }
    remaining = block.heap_lines;
    int64_t payload_left = block.string_bytes;
    while (remaining > 0) {
      int64_t lines = std::min(remaining, kChunkLines);
      // Attribute payload proportionally to the chunk's share of lines.
      int64_t payload =
          remaining <= kChunkLines
              ? payload_left
              : payload_left * lines / remaining;
      chunks_.push_back(Chunk{lines, payload});
      payload_left -= payload;
      remaining -= lines;
    }
  }
}

Status RegexEngine::RunFunctional(JobParams* params, JobStatus* status,
                                  std::vector<BlockTiming>* blocks) {
  // Compile the job's configuration vector once; every worker thread
  // shares the immutable program — parallelism is across tuples.
  DOPPIO_ASSIGN_OR_RETURN(ConfigVector cv,
                          ConfigVector::FromBytes(params->config));
  DOPPIO_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPuProgram> program,
                          CompiledPuProgram::Compile(cv, device_));
  // A set-compiled config carries its stream count redundantly in the job
  // parameters; a mismatch means the submitter sized the result block for
  // the wrong program.
  const int streams = program->num_patterns();
  if (params->streams != streams) {
    return Status::Internal("job streams do not match the compiled program");
  }
  // The PU kernel class of the loaded program, not the host kernel that
  // computes the results below.
  status->pu_kernel = PuKernelName(program->kernel());

  StringReader reader(*params);
  OutputCollector collector(*params);

  // One registry execution per worker for the whole job: the host kernels
  // are exact, so the results are the PU's whichever backend is chosen.
  Stopwatch functional_clock;
  const KernelBackend& backend =
      BackendRegistry::Global().ChooseHost(*program);
  const int workers = pool_ != nullptr && params->count >= kParallelThreshold
                          ? pool_->num_threads()
                          : 1;
  std::vector<std::unique_ptr<HostExecution>> executions;
  if (!params->timing_only) {
    for (int w = 0; w < workers; ++w) {
      executions.push_back(backend.NewExecution(program));
    }
  }

  int64_t functional_bytes = 0;
  std::vector<uint16_t> results;
  while (reader.HasMore()) {
    DOPPIO_ASSIGN_OR_RETURN(StringReader::Block block, reader.ReadBlock());
    blocks->push_back(BlockTiming{block.offset_lines, block.heap_lines,
                                  block.string_bytes});
    if (params->timing_only) continue;  // traffic model only
    functional_bytes += block.string_bytes;
    const size_t n = block.strings.size();
    results.resize(n * static_cast<size_t>(streams));
    // Worker w matches a contiguous range of the block; the collector
    // below emits the indexes in input order.
    auto match_range = [&](int w) {
      HostExecution& exec = *executions[static_cast<size_t>(w)];
      const size_t begin =
          n * static_cast<size_t>(w) / static_cast<size_t>(workers);
      const size_t end =
          n * (static_cast<size_t>(w) + 1) / static_cast<size_t>(workers);
      for (size_t i = begin; i < end; ++i) {
        if (streams == 1) {
          results[i] = exec.Match(block.strings[i]);
        } else {
          exec.MatchSet(block.strings[i],
                        &results[i * static_cast<size_t>(streams)]);
        }
      }
    };
    if (workers == 1) {
      match_range(0);
    } else {
      pool_->ParallelFor(workers, match_range);
    }
    for (size_t i = 0; i < n; ++i) {
      DOPPIO_RETURN_NOT_OK(collector.AppendSet(
          &results[i * static_cast<size_t>(streams)], streams));
    }
  }

  status->functional_bytes = functional_bytes;
  status->functional_host_seconds = functional_clock.ElapsedSeconds();
  if (functional_bytes > 0) {
    metric_functional_mbps_->Observe(
        obs::SafeRate(static_cast<double>(functional_bytes) / 1e6,
                      status->functional_host_seconds));
  }

  status->matches = collector.matches();
  status->strings_processed =
      params->timing_only ? params->count : collector.results_written();
  return Status::OK();
}

void RegexEngine::ScheduleNextChunk(size_t chunk_index) {
  if (chunk_index >= chunks_.size()) {
    Finalize();
    return;
  }
  const Chunk& chunk = chunks_[chunk_index];
  SimTime now = scheduler_->now();
  SimTime done = arbiter_->Transfer(id_, now, chunk.lines);

  // PUs consume the payload at 1 byte/cycle each once its data arrived.
  if (chunk.pu_bytes > 0) {
    const double engine_rate = device_.EngineBytesPerSec();
    SimTime pu_time = PicosFromSeconds(
        static_cast<double>(chunk.pu_bytes) / engine_rate);
    pu_done_ = std::max(pu_done_, done) + pu_time;
  }

  // The reader issues the next chunk as soon as its window drains — it
  // does not wait for the PUs (the input FIFOs buffer ahead).
  SimTime next_issue = std::max(scheduler_->now(),
                                arbiter_->EngineReady(id_));
  scheduler_->ScheduleAt(next_issue, [this, chunk_index] {
    ScheduleNextChunk(chunk_index + 1);
  });
}

void RegexEngine::Finalize() {
  // Streaming is done; everything from here is result collection and the
  // status-line write.
  status_->collect_start_time = scheduler_->now();
  // Result lines plus the status-line write. A set job writes
  // count x streams indexes, so its result traffic scales with the
  // member count (streams is 1 everywhere on the paper's path).
  const int64_t result_lines =
      OutputCollector::TotalResultLines(params_->count * params_->streams);
  SimTime results_done =
      arbiter_->Transfer(id_, scheduler_->now(), result_lines + 1);
  SimTime finish = std::max(pu_done_, results_done);

  SimTime delay = std::max<SimTime>(0, finish - scheduler_->now());
  const FaultPlan& faults = device_.faults;
  if (faults.enabled && faults.Fires(FaultKind::kDelay,
                                     status_->queue_job_id,
                                     faults.delay_rate)) {
    status_->fault_flags.fetch_or(kJobFaultDelayed,
                                  std::memory_order_release);
    delay += PicosFromSeconds(faults.delay_seconds);
  }
  scheduler_->ScheduleAfter(delay, [this] {
    JobParams* params = params_;
    JobStatus* status = status_;
    auto on_done = std::move(on_done_);

    status->finish_time = scheduler_->now();
    int64_t heap_lines = 0;
    for (const BlockTiming& block : blocks_) heap_lines += block.heap_lines;
    status->bytes_streamed =
        (StringReader::TotalOffsetLines(params->count) +
         OutputCollector::TotalResultLines(params->count * params->streams) +
         heap_lines) *
        kCacheLineBytes;

    metric_jobs_->Add();
    metric_bytes_->Add(status->bytes_streamed);

    busy_ = false;
    params_ = nullptr;
    status_ = nullptr;
    const FaultPlan& faults = device_.faults;
    if (faults.enabled && faults.Fires(FaultKind::kDoneLatency,
                                       status->queue_job_id,
                                       faults.done_latency_rate)) {
      // Late done-bit write: the job finished on time (finish_time is
      // already stamped) but the status-line store lands late — the
      // busy-waiting UDF only observes completion after the extra latency.
      status->fault_flags.fetch_or(kJobFaultDoneLatency,
                                   std::memory_order_release);
      scheduler_->ScheduleAfter(
          PicosFromSeconds(faults.done_latency_seconds),
          [scheduler = scheduler_, status, on_done = std::move(on_done)] {
            status->done_bit_time = scheduler->now();
            status->done.store(1, std::memory_order_release);
            if (on_done) on_done();
          });
      return;
    }
    status->done_bit_time = scheduler_->now();
    status->done.store(1, std::memory_order_release);
    if (on_done) on_done();
  });
}

}  // namespace doppio
