// Virtual-time discrete-event scheduler.
//
// The FPGA half of the system is simulated: its timings are expressed on a
// virtual clock (picosecond resolution) that advances only when events are
// processed. Client-scaling experiments (Fig. 11) run the whole closed-loop
// system — clients, job queue, engines — on this scheduler so that queueing
// behaviour emerges without tying simulated rates to host wall-clock speed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/macros.h"

namespace doppio {

/// Virtual time in picoseconds. Picoseconds keep exact integer arithmetic
/// for both the 200 MHz (5000 ps) and 400 MHz (2500 ps) clock domains.
using SimTime = int64_t;

inline constexpr SimTime kPicosPerSecond = 1'000'000'000'000LL;

inline constexpr SimTime PicosFromSeconds(double seconds) {
  return static_cast<SimTime>(seconds * static_cast<double>(kPicosPerSecond));
}

inline constexpr double SecondsFromPicos(SimTime picos) {
  return static_cast<double>(picos) / static_cast<double>(kPicosPerSecond);
}

class SimScheduler {
 public:
  SimScheduler() = default;
  DOPPIO_DISALLOW_COPY_AND_ASSIGN(SimScheduler);

  /// The clock is atomic so client threads may read it without the
  /// owning device's lock (deadline computation, trace stamps) while a
  /// waiter advances it under the lock; all queue mutation and event
  /// execution remain externally serialized.
  SimTime now() const { return now_.load(std::memory_order_relaxed); }

  /// Schedules `fn` to run at absolute virtual time `when` (>= now()).
  /// Events at equal times run in scheduling order (stable).
  void ScheduleAt(SimTime when, std::function<void()> fn);

  /// Schedules `fn` to run `delay` picoseconds from now.
  void ScheduleAfter(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now() + delay, std::move(fn));
  }

  /// Runs events until the queue is empty. Returns the final virtual time.
  SimTime Run();

  /// Runs events until virtual time exceeds `deadline` or the queue drains.
  SimTime RunUntil(SimTime deadline);

  /// Runs exactly one event; returns false if the queue is empty.
  bool RunOne();

  /// Virtual time of the earliest pending event, or kNoEvent when the
  /// queue is empty. Lets deadline waiters decide whether advancing the
  /// clock can still help before the deadline (see
  /// FpgaDevice::WaitForJobUntil).
  static constexpr SimTime kNoEvent = -1;
  SimTime NextEventTime() const {
    return queue_.empty() ? kNoEvent : queue_.top().when;
  }

  bool empty() const { return queue_.empty(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // tie-breaker for stable ordering
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::atomic<SimTime> now_{0};
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace doppio
