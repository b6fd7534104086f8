#include "hal/job.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {

namespace {
obs::Counter& JobWaitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hal.job_waits", "busy-wait loops entered on the done bit");
  return *c;
}
obs::Histogram& JobLatencyHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.hal.job_latency_virtual_seconds", obs::LatencySecondsBuckets(),
      "virtual time from enqueue to done bit, per completed wait");
  return *h;
}
}  // namespace

Status FpgaJob::Wait() {
  DOPPIO_CHECK(valid());
  JobWaitsCounter().Add();
  DOPPIO_ASSIGN_OR_RETURN(SimTime finish, device_->WaitForJob(id_));
  (void)finish;
  JobLatencyHistogram().Observe(HwSeconds());
  return Status::OK();
}

Status FpgaJob::Wait(SimTime deadline) {
  DOPPIO_CHECK(valid());
  JobWaitsCounter().Add();
  DOPPIO_ASSIGN_OR_RETURN(SimTime finish,
                          device_->WaitForJobUntil(id_, deadline));
  (void)finish;
  JobLatencyHistogram().Observe(HwSeconds());
  return Status::OK();
}

void FpgaJob::Release() {
  if (device_ == nullptr) return;
  device_->ReleaseJob(id_);
  device_ = nullptr;
  id_ = -1;
}

Status FpgaJob::Cancel() {
  DOPPIO_CHECK(valid());
  return device_->CancelJob(id_);
}

bool FpgaJob::Done() const {
  DOPPIO_CHECK(valid());
  return device_->status(id_)->done.load(std::memory_order_acquire) != 0;
}

const JobStatus& FpgaJob::status() const {
  DOPPIO_CHECK(valid());
  return *device_->status(id_);
}

double FpgaJob::HwSeconds() const {
  const JobStatus& st = status();
  return SecondsFromPicos(st.finish_time - st.enqueue_time);
}

}  // namespace doppio
