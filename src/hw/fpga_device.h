// Top-level simulated FPGA (paper Fig. 3, hardware side): four Regex
// Engines, the hardware HAL (Job Distributor + memory arbiter) and the QPI
// endpoint, all driven by one virtual-time scheduler.
//
// Functional results (the result BAT contents) are always bit-exact per the
// PU semantics; execution *time* is virtual and read off the scheduler
// clock. Host wall-clock plays no role on this side of the system.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/sim_scheduler.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "hw/arbiter.h"
#include "hw/device_config.h"
#include "hw/job.h"
#include "hw/job_distributor.h"
#include "hw/qpi_link.h"
#include "hw/regex_engine.h"
#include "mem/arena.h"

namespace doppio {

class FpgaDevice {
 public:
  /// `arena`: the CPU-FPGA shared region; when provided, every job pointer
  /// is checked against it (the hardware cannot take page faults — see
  /// §4.2.1). May be null for self-contained tests.
  /// `pool`: optional host thread pool accelerating the functional pass.
  /// `device_id`: this device's index within its DevicePool (0 for a
  /// standalone device); stamped into every job's status block so metrics
  /// and traces attribute work to the right pool member.
  FpgaDevice(const DeviceConfig& config, SharedArena* arena = nullptr,
             ThreadPool* pool = nullptr, int device_id = 0);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(FpgaDevice);

  /// Enqueues a job at the current virtual time. The device stores the
  /// parameter/status blocks; the returned id addresses them until the
  /// job is reclaimed (see ReleaseJob). `on_done` (optional) fires on the
  /// virtual scheduler when the done bit is set.
  Result<JobId> Submit(JobParams params,
                       std::function<void()> on_done = nullptr);

  /// The host is done with job `id`: it will not read its status block
  /// again. The record is freed as soon as the device no longer points at
  /// it either — once the job is done, dropped, or skipped by the Job
  /// Distributor as cancelled — so the job table holds at most the jobs
  /// in flight plus those whose host handle is still open. Unknown or
  /// already released ids are ignored.
  void ReleaseJob(JobId id);

  /// Job records currently held (submitted and not yet reclaimed).
  int64_t live_jobs() const;

  /// Hardware side of the AAL handshake: publishes the AFU id into the
  /// Device Status Memory and attaches it for diagnostics mirroring.
  void PublishDsm(DeviceStatusMemory* dsm);

  /// Status block of a job; valid until the job is reclaimed, null for an
  /// unknown or reclaimed id.
  JobStatus* status(JobId id);

  /// Advances virtual time until all submitted work is done.
  /// Returns the final virtual time.
  SimTime RunToIdle();

  /// The UDF's busy-wait: advances virtual time until this job's done bit
  /// is set; returns the job's finish time.
  Result<SimTime> WaitForJob(JobId id);

  /// Deadline-bounded busy-wait (fault-tolerant lifecycle): advances
  /// virtual time until the done bit is set, the virtual clock reaches
  /// `deadline` (absolute, picoseconds — returns DeadlineExceeded), or the
  /// device goes idle with the job unfinished (a dropped/stalled job —
  /// returns Unavailable). Both failures are fallback-eligible.
  Result<SimTime> WaitForJobUntil(JobId id, SimTime deadline);

  /// Abandons an attempt the HAL gave up on: a cancelled job still in the
  /// shared queue is skipped by the Job Distributor (never dispatched); an
  /// attempt already executing runs to completion harmlessly (its result
  /// slice is bit-identical to the retry's).
  Status CancelJob(JobId id);

  /// Advances the virtual clock by `delay` picoseconds, running any due
  /// events — models the HAL sleeping out a retry backoff in virtual time.
  void AdvanceVirtualTime(SimTime delay);

  SimScheduler* scheduler() { return &scheduler_; }
  SimTime now() const { return scheduler_.now(); }
  int device_id() const { return device_id_; }
  const DeviceConfig& config() const { return config_; }
  const QpiLink& qpi() const { return qpi_; }
  JobDistributor* distributor() { return distributor_.get(); }

 private:
  Status ValidateJob(const JobParams& params) const;
  /// Marks the host's (`host`) or the device's side as done with job `id`
  /// and frees the record once both are. Caller holds sim_mutex_.
  void DropReference(JobId id, bool host);

  /// Serializes access to the virtual-time machinery. Multiple host
  /// threads may Submit/WaitForJob concurrently (the paper's multi-client
  /// scenario); each scheduler event runs atomically under this lock and
  /// the waiting threads cooperatively drain the event queue. Recursive
  /// because closed-loop drivers Submit() their next job from inside a
  /// completion callback, which already runs under the lock.
  mutable std::recursive_mutex sim_mutex_;

  DeviceConfig config_;
  SharedArena* arena_;
  int device_id_ = 0;
  SimScheduler scheduler_;
  QpiLink qpi_;
  Arbiter arbiter_;
  std::vector<std::unique_ptr<RegexEngine>> engines_;
  std::unique_ptr<JobDistributor> distributor_;

  struct JobRecord {
    JobParams params;
    JobStatus status;
    bool host_released = false;    // ReleaseJob() was called
    bool device_released = false;  // the device stopped pointing at it
  };
  std::unordered_map<JobId, std::unique_ptr<JobRecord>> jobs_;
  JobId next_job_id_ = 0;

  /// Submission sequence for the fault plan's transient-Submit lottery.
  std::atomic<uint64_t> submit_seq_{0};
};

}  // namespace doppio
