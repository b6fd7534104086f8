// Fault-tolerant job lifecycle (software side).
//
// The paper's HUDF enqueues a job and busy-waits on the done bit forever
// (§6, Fig 10) — any stuck, dropped or mis-parameterized job hangs the
// query. This layer bounds that wait: each attempt gets a deadline derived
// from the analytic performance model's expected job time (× a slack
// factor), and an expired or lost attempt is cancelled and resubmitted
// with exponential backoff (25 us, doubling per resubmission), up to a
// bounded retry budget. Callers
// (db/hudf.cc) degrade to the software matchers when the budget is
// exhausted, so no single simulated-device fault can hang or fail a query
// the CPU can still answer.
//
// All waiting and backoff happens in virtual time; with the fault plan
// disabled every job completes on the first attempt and the behaviour is
// identical to the paper's plain busy-wait.
#pragma once

#include <vector>

#include "common/status.h"
#include "hal/job.h"
#include "hw/fpga_device.h"
#include "hw/job.h"

namespace doppio {

struct RetryPolicy {
  /// Resubmissions allowed after the first attempt (total attempts =
  /// 1 + max_retries).
  int max_retries = 3;

  /// Wait budget per attempt: expected job seconds (perf model, all
  /// engines assumed active) × this slack factor. Generous by design —
  /// the model and the simulator agree to within a few percent, so only
  /// genuinely stuck jobs expire.
  double deadline_slack = 16.0;

  /// Floor on the per-attempt budget (covers tiny jobs whose modeled time
  /// is dwarfed by fixed overheads and injected delays).
  double min_deadline_sec = 500e-6;
};

/// What happened to one logical job across all of its attempts.
struct JobOutcome {
  bool ok = false;
  int retries = 0;          // resubmissions performed
  bool fault_seen = false;  // any attempt timed out / was rejected / lost
  Status final_status;      // OK when ok; the last error otherwise
  SimTime deadline_budget = 0;  // per-attempt wait budget (picoseconds)
  /// Virtual-time backoff applied before each resubmission (monotonically
  /// increasing by construction; asserted by tests).
  std::vector<SimTime> backoffs;
};

/// Per-attempt wait budget for a job of `count` strings over `heap_bytes`
/// of heap: expected time from the closed-form perf model × slack, floored
/// at min_deadline_sec. `active_engines` models link sharing (use the
/// partition count for partitioned queries).
SimTime JobDeadlineBudget(const DeviceConfig& config, int64_t count,
                          int64_t heap_bytes, const RetryPolicy& policy,
                          int active_engines);

/// Submits `params`, retrying transient rejections (Unavailable, queue
/// back-pressure) with exponential backoff. Fatal Submit errors are
/// returned as-is for the caller to classify (IsFallbackEligible).
/// Updates `outcome` retries/fault_seen/backoffs.
Result<FpgaJob> SubmitJobWithRetry(FpgaDevice* device,
                                   const JobParams& params,
                                   const RetryPolicy& policy,
                                   JobOutcome* outcome);

/// Waits for `job` under the policy's deadline; on expiry (or a lost job)
/// cancels the attempt, backs off, resubmits `params` and waits again,
/// until the shared retry budget in `outcome` is exhausted. On success the
/// final attempt's JobStatus carries the retry count; `job` addresses it.
/// Each abandoned attempt's handle is released as `job` moves on to the
/// resubmission. Deadlines are computed on the clock (and engine count)
/// of the job's own device; `device` is only where expired attempts are
/// resubmitted — pool callers pass the slice's owning device for both.
Status AwaitJobWithRecovery(FpgaDevice* device, FpgaJob* job,
                            const JobParams& params,
                            const RetryPolicy& policy, JobOutcome* outcome);

/// Convenience: full lifecycle (submit + await) for one job. The final
/// attempt's handle moves into `job_out`, or is released when it is null.
JobOutcome RunJobWithRetry(FpgaDevice* device, const JobParams& params,
                           const RetryPolicy& policy, FpgaJob* job_out);

}  // namespace doppio
