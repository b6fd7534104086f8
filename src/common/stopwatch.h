// Wall-clock stopwatch used by the software-side measurements. FPGA-side
// timings come from the simulator's virtual clock, never from this class.
#pragma once

#include <chrono>
#include <cstdint>

namespace doppio {

class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace doppio
