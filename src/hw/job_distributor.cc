#include "hw/job_distributor.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {

namespace {

// Call-site-cached instruments: registration (mutex + map) happens once;
// steady state is one relaxed atomic RMW per event.
obs::Counter& JobsEnqueuedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.queue.jobs_enqueued", "descriptors pushed to the shared ring");
  return *c;
}
obs::Counter& QueueRejectedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.queue.rejected_full",
      "descriptor pushes refused because the ring was full");
  return *c;
}
obs::Counter& JobsDispatchedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.queue.jobs_dispatched", "descriptors handed to an engine");
  return *c;
}
obs::Counter& CancelledSkippedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.queue.cancelled_skipped",
      "cancelled descriptors discarded before dispatch");
  return *c;
}
obs::Histogram& QueueDepthHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.queue.depth", obs::DepthBuckets(),
      "ring occupancy observed after each push");
  return *h;
}

}  // namespace

JobDistributor::JobDistributor(SimScheduler* scheduler, DeviceConfig device,
                               std::vector<RegexEngine*> engines,
                               std::unique_ptr<SharedJobQueue> queue)
    : scheduler_(scheduler),
      device_(device),
      engines_(std::move(engines)),
      queue_(std::move(queue)) {
  DOPPIO_CHECK(!engines_.empty());
  DOPPIO_CHECK(queue_ != nullptr);
}

void JobDistributor::AttachDsm(DeviceStatusMemory* dsm) {
  dsm_ = dsm;
  UpdateIdleMirror();
}

void JobDistributor::UpdateIdleMirror() {
  if (dsm_ == nullptr) return;
  uint32_t idle = 0;
  for (RegexEngine* e : engines_) idle += e->idle() ? 1 : 0;
  dsm_->idle_engines.store(idle, std::memory_order_relaxed);
}

Status JobDistributor::Enqueue(JobParams* params, JobStatus* status,
                               ReleaseFn on_release) {
  status->enqueue_time = scheduler_->now();
  JobDescriptor descriptor;
  descriptor.params_addr = reinterpret_cast<uint64_t>(params);
  descriptor.status_addr = reinterpret_cast<uint64_t>(status);
  descriptor.job_id = next_job_id_++;
  status->queue_job_id = descriptor.job_id;
  if (!queue_->Push(descriptor)) {
    QueueRejectedCounter().Add();
    // Typed back-pressure: the ring is bounded by design and never grows;
    // callers (the retry lifecycle, the scheduler) wait out the drain.
    return Status::ResourceExhausted(
        "shared job queue full: too many outstanding FPGA jobs");
  }
  if (on_release) on_release_[descriptor.job_id] = std::move(on_release);
  JobsEnqueuedCounter().Add();
  QueueDepthHistogram().Observe(static_cast<double>(queue_->Size()));
  // The hardware polls the shared-memory queue; model that small delay.
  scheduler_->ScheduleAfter(PicosFromSeconds(device_.job_poll_sec),
                            [this] { TryDispatch(); });
  return Status::OK();
}

void JobDistributor::Release(uint64_t job_id, bool done) {
  auto it = on_release_.find(job_id);
  if (it == on_release_.end()) return;
  ReleaseFn on_release = std::move(it->second);
  on_release_.erase(it);
  on_release(done);
}

void JobDistributor::TryDispatch() {
  while (!queue_->Empty()) {
    RegexEngine* engine = nullptr;
    for (RegexEngine* e : engines_) {
      if (e->idle()) {
        engine = e;
        break;
      }
    }
    if (engine == nullptr) {
      UpdateIdleMirror();
      return;  // all busy; retried on job completion
    }

    JobDescriptor descriptor;
    if (!queue_->Pop(&descriptor)) break;
    auto* params = reinterpret_cast<JobParams*>(descriptor.params_addr);
    auto* status = reinterpret_cast<JobStatus*>(descriptor.status_addr);

    if (status->cancelled.load(std::memory_order_acquire) != 0) {
      // The HAL gave up on this attempt (deadline expired, requeued): a
      // cancelled descriptor is discarded, never dispatched, so the retry
      // does not race a stale execution for the engine.
      CancelledSkippedCounter().Add();
      Release(descriptor.job_id, /*done=*/false);
      continue;
    }
    ++jobs_dispatched_;
    JobsDispatchedCounter().Add();
    status->dispatch_time = scheduler_->now();

    const uint64_t id = descriptor.job_id;
    Status st = engine->Start(params, status, [this, id, status] {
      const bool dropped =
          (status->fault_flags.load(std::memory_order_acquire) &
           kJobFaultDropped) != 0;
      // A dropped job never sets its done bit — the caller sees it only
      // through the missing done bit.
      Release(id, /*done=*/!dropped);
      // A job finished (or vanished): an engine is idle again.
      TryDispatch();
    });
    if (!st.ok()) {
      DOPPIO_LOG(Error) << "job dispatch failed: " << st.ToString();
      status->error = st;
      status->done.store(1, std::memory_order_release);
      Release(id, /*done=*/true);
    }
  }
  UpdateIdleMirror();
}

}  // namespace doppio
