// Job Distributor (paper §4.2.2, step 6 of Fig. 3): watches the shared
// memory job queue and hands each job descriptor to the next idle Regex
// Engine. Jobs wait in FIFO order when all engines are busy — this queueing
// is what shapes the multi-client throughput experiments (Fig. 11).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/sim_scheduler.h"
#include "hal/aal.h"
#include "hal/job_queue.h"
#include "hw/job.h"
#include "hw/regex_engine.h"

namespace doppio {

class JobDistributor {
 public:
  /// `queue` is the shared-memory descriptor ring the HAL writes into.
  JobDistributor(SimScheduler* scheduler, DeviceConfig device,
                 std::vector<RegexEngine*> engines,
                 std::unique_ptr<SharedJobQueue> queue);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(JobDistributor);

  /// Fires once per enqueued job, in virtual time, when the device stops
  /// pointing at its params/status blocks: after the done bit is set
  /// (`done` true), or once the job was dropped or skipped as cancelled
  /// (`done` false). A job on a stalled engine is never released.
  using ReleaseFn = std::function<void(bool done)>;

  /// Enqueues a job descriptor at the scheduler's current virtual time.
  /// Fails with ResourceExhausted when the shared ring is full — the ring
  /// never grows past its capacity; the HAL surfaces the back-pressure to
  /// the caller (retry lifecycle / scheduler), which waits out the drain.
  /// `on_release` does not fire for a rejected job.
  Status Enqueue(JobParams* params, JobStatus* status, ReleaseFn on_release);

  /// Mirrors diagnostics into the Device Status Memory once a session is
  /// established.
  void AttachDsm(DeviceStatusMemory* dsm);

  const SharedJobQueue& queue() const { return *queue_; }
  int64_t jobs_dispatched() const { return jobs_dispatched_; }

 private:
  void TryDispatch();
  void UpdateIdleMirror();
  /// Runs and forgets descriptor `job_id`'s release callback.
  void Release(uint64_t job_id, bool done);

  SimScheduler* scheduler_;
  DeviceConfig device_;
  std::vector<RegexEngine*> engines_;
  std::unique_ptr<SharedJobQueue> queue_;
  std::map<uint64_t, ReleaseFn> on_release_;
  uint64_t next_job_id_ = 1;
  int64_t jobs_dispatched_ = 0;
  DeviceStatusMemory* dsm_ = nullptr;
};

}  // namespace doppio
