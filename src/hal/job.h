// Software-side job handle (paper §4.2.2): wraps the job descriptor and
// lets the UDF busy-wait on the done bit and read execution statistics.
#pragma once

#include <utility>

#include "common/status.h"
#include "hw/fpga_device.h"
#include "hw/job.h"

namespace doppio {

/// Move-only: the handle is the host's reference to the job's records on
/// the device. Destroying it (or calling Release()) hands the job back,
/// and the device frees the records once it no longer points at them
/// either (FpgaDevice::ReleaseJob). A handle must not outlive its device.
class FpgaJob {
 public:
  FpgaJob() = default;
  FpgaJob(FpgaDevice* device, JobId id) : device_(device), id_(id) {}
  ~FpgaJob() { Release(); }

  FpgaJob(FpgaJob&& other) noexcept
      : device_(std::exchange(other.device_, nullptr)), id_(other.id_) {}
  FpgaJob& operator=(FpgaJob&& other) noexcept {
    if (this != &other) {
      Release();
      device_ = std::exchange(other.device_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }
  FpgaJob(const FpgaJob&) = delete;
  FpgaJob& operator=(const FpgaJob&) = delete;

  /// Ends the host's use of the job: status() must not be read through
  /// this handle again, which becomes invalid. No-op on an invalid handle.
  void Release();

  bool valid() const { return device_ != nullptr; }
  JobId id() const { return id_; }
  /// The device this job was submitted to — with a DevicePool, jobs on
  /// different members carry different devices (and clock domains), so
  /// lifecycle code must derive waits and deadlines from the job's own
  /// device, never from an ambient "the device" handle.
  FpgaDevice* device() const { return device_; }

  /// Busy-waits on the done bit (the prototype has no FPGA-to-CPU
  /// interrupts, §4.2.2). Advances the device's virtual clock.
  Status Wait();

  /// Deadline-bounded busy-wait: gives up once the virtual clock reaches
  /// `deadline` (absolute picoseconds) or the device drains with the job
  /// unfinished. Returns DeadlineExceeded / Unavailable respectively —
  /// both retryable through the job lifecycle (hal/job_lifecycle.h).
  Status Wait(SimTime deadline);

  /// Abandons the job: a queued descriptor is skipped by the distributor.
  Status Cancel();

  /// Non-blocking poll of the done bit.
  bool Done() const;

  /// Status/statistics block; stable once Done().
  const JobStatus& status() const;

  /// Virtual-time duration of the hardware execution (queue + engine).
  double HwSeconds() const;

 private:
  FpgaDevice* device_ = nullptr;
  JobId id_ = -1;
};

}  // namespace doppio
