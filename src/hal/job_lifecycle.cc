#include "hal/job_lifecycle.h"

#include <cmath>

#include "hw/perf_model.h"
#include "obs/metrics.h"

namespace doppio {

namespace {

obs::Counter& RetriesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.lifecycle.retries", "job resubmissions (submit + await)");
  return *c;
}
obs::Counter& RecoveredCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.lifecycle.jobs_recovered",
      "jobs that saw a fault but still completed");
  return *c;
}
obs::Counter& ExhaustedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.lifecycle.retries_exhausted",
      "jobs abandoned after max_retries");
  return *c;
}
obs::Histogram& BackoffHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.lifecycle.backoff_seconds", obs::LatencySecondsBuckets(),
      "virtual-time backoff applied before each resubmission");
  return *h;
}

constexpr double kBackoffBaseSec = 25e-6;
constexpr double kBackoffMultiplier = 2.0;

/// Backoff for the next resubmission: base × multiplier^(backoffs so far).
SimTime NextBackoffPicos(const JobOutcome& outcome) {
  const double seconds =
      kBackoffBaseSec *
      std::pow(kBackoffMultiplier,
               static_cast<double>(outcome.backoffs.size()));
  return PicosFromSeconds(seconds);
}

void BackOff(FpgaDevice* device, JobOutcome* outcome) {
  const SimTime backoff = NextBackoffPicos(*outcome);
  outcome->backoffs.push_back(backoff);
  BackoffHistogram().Observe(SecondsFromPicos(backoff));
  device->AdvanceVirtualTime(backoff);
}

bool IsTransient(const Status& status) {
  // Unavailable: injected transient fault or a lost job.
  // ResourceExhausted (and the legacy IOError spelling): shared job-queue
  // back-pressure — resolves as the device drains.
  return status.IsUnavailable() || status.IsResourceExhausted() ||
         status.code() == StatusCode::kIOError;
}

}  // namespace

SimTime JobDeadlineBudget(const DeviceConfig& config, int64_t count,
                          int64_t heap_bytes, const RetryPolicy& policy,
                          int active_engines) {
  const PerfEstimate expected =
      EstimateJob(config, count, heap_bytes, active_engines);
  double budget_sec = expected.seconds * policy.deadline_slack;
  if (budget_sec < policy.min_deadline_sec) {
    budget_sec = policy.min_deadline_sec;
  }
  if (config.faults.enabled) {
    // Headroom for injected completion/done-bit delays, so a merely
    // delayed job completes within its deadline instead of burning a
    // retry; only dropped or stalled jobs expire.
    budget_sec +=
        config.faults.delay_seconds + config.faults.done_latency_seconds;
  }
  return PicosFromSeconds(budget_sec);
}

Result<FpgaJob> SubmitJobWithRetry(FpgaDevice* device,
                                   const JobParams& params,
                                   const RetryPolicy& policy,
                                   JobOutcome* outcome) {
  while (true) {
    Result<JobId> id = device->Submit(params);
    if (id.ok()) return FpgaJob(device, *id);
    const Status st = id.status();
    if (!IsTransient(st)) return st;
    outcome->fault_seen = true;
    if (outcome->retries >= policy.max_retries) {
      ExhaustedCounter().Add();
      outcome->final_status = st;
      return st;
    }
    BackOff(device, outcome);
    ++outcome->retries;
    RetriesCounter().Add();
  }
}

Status AwaitJobWithRecovery(FpgaDevice* device, FpgaJob* job,
                            const JobParams& params,
                            const RetryPolicy& policy,
                            JobOutcome* outcome) {
  while (true) {
    // The budget and deadline come from the job's OWN device: with a
    // DevicePool the members' virtual clocks (and engine counts) are
    // independent, so `device->now()` would be an unrelated clock when
    // `job` lives on another member. `device` is only the resubmission
    // target. Single-device callers pass the same handle for both.
    FpgaDevice* owner = job->device();
    outcome->deadline_budget =
        JobDeadlineBudget(owner->config(), params.count, params.heap_bytes,
                          policy, owner->config().num_engines);
    Status st = job->Wait(owner->now() + outcome->deadline_budget);
    if (st.ok()) {
      outcome->ok = true;
      outcome->final_status = Status::OK();
      JobStatus* status = owner->status(job->id());
      status->retries = outcome->retries;
      if (status->fault_flags.load(std::memory_order_acquire) != 0) {
        outcome->fault_seen = true;
      }
      if (outcome->fault_seen) RecoveredCounter().Add();
      return Status::OK();
    }
    const bool retryable = st.IsDeadlineExceeded() || st.IsUnavailable();
    if (!retryable) {
      outcome->final_status = st;
      return st;
    }
    outcome->fault_seen = true;
    (void)job->Cancel();
    if (outcome->retries >= policy.max_retries) {
      ExhaustedCounter().Add();
      outcome->final_status = st;
      return st;
    }
    BackOff(device, outcome);
    ++outcome->retries;
    RetriesCounter().Add();
    Result<FpgaJob> retry =
        SubmitJobWithRetry(device, params, policy, outcome);
    if (!retry.ok()) {
      outcome->final_status = retry.status();
      return retry.status();
    }
    // Replacing the handle releases the cancelled attempt: its record is
    // reclaimed once the distributor skips it or its engine frees.
    *job = std::move(*retry);
  }
}

JobOutcome RunJobWithRetry(FpgaDevice* device, const JobParams& params,
                           const RetryPolicy& policy, FpgaJob* job_out) {
  JobOutcome outcome;
  Result<FpgaJob> job = SubmitJobWithRetry(device, params, policy, &outcome);
  if (!job.ok()) {
    outcome.ok = false;
    outcome.final_status = job.status();
    return outcome;
  }
  FpgaJob handle = std::move(*job);
  (void)AwaitJobWithRecovery(device, &handle, params, policy, &outcome);
  if (job_out != nullptr) *job_out = std::move(handle);
  return outcome;
}

}  // namespace doppio
