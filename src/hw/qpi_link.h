// Virtual-time model of the QPI connection between the FPGA and the CPU's
// memory controller (paper §2.2, §7.3).
//
// Two serialization resources reproduce the measured behaviour:
//  * the shared link sustains at most `qpi_peak_bytes_per_sec`
//    (~6.5 GB/s measured on the prototype) across all engines;
//  * each engine can keep only `per_engine_window_lines` cache lines in
//    flight (String Reader double buffering), so a lone engine tops out at
//    window x 64 B / latency ≈ 5.9 GB/s — which is why the paper sees
//    throughput rise from one engine to two and then go flat (Fig. 8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/sim_scheduler.h"
#include "hw/device_config.h"

namespace doppio {

class QpiLink {
 public:
  explicit QpiLink(const DeviceConfig& config);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(QpiLink);

  /// Transfers `lines` cache lines for `engine_id` starting no earlier than
  /// `now`; returns the virtual completion time. Requests from concurrent
  /// engines share the link capacity; each engine is additionally paced by
  /// its in-flight window.
  SimTime Transfer(int engine_id, SimTime now, int64_t lines);

  /// Earliest virtual time at which `engine_id` may issue its next batch
  /// (its window has drained). Drivers pipeline on this, not on the data
  /// completion time, so the request latency is overlapped — only the
  /// window paces steady-state issue.
  SimTime EngineReady(int engine_id) const {
    return engine_busy_until_[static_cast<size_t>(engine_id)];
  }

  int64_t total_lines() const { return total_lines_; }
  int64_t total_bytes() const { return total_lines_ * kCacheLineBytes; }
  /// Virtual time during which the link was actively moving lines.
  SimTime busy_time() const { return busy_time_; }

  /// Achieved bandwidth over [0, end].
  double AchievedBytesPerSec(SimTime end) const {
    return end <= 0 ? 0.0
                    : static_cast<double>(total_bytes()) /
                          SecondsFromPicos(end);
  }

 private:
  SimTime line_service_picos_;    // shared link: time per line
  SimTime engine_pace_picos_;     // per-engine window pacing per line
  SimTime latency_picos_;         // request round-trip latency

  SimTime link_busy_until_ = 0;
  std::vector<SimTime> engine_busy_until_;
  int64_t total_lines_ = 0;
  SimTime busy_time_ = 0;
};

}  // namespace doppio
