// Memory arbiter of the hardware HAL module (paper §4.2.2).
//
// Guarantees fair access to the shared memory for the Regex Engines by
// scheduling their mostly-sequential reads/writes in batches ("the batch
// size of 16 is small enough to ensure good throughput without increasing
// memory access latency too much"). Engines never talk to the QPI link
// directly — all traffic flows through here, which is also where the
// link's traffic is counted.
#pragma once

#include <cstdint>

#include "common/macros.h"
#include "common/sim_scheduler.h"
#include "hw/qpi_link.h"

namespace doppio {

class Arbiter {
 public:
  Arbiter(QpiLink* link, int num_engines, int batch_lines);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(Arbiter);

  /// Transfers `lines` for `engine_id`, split into arbitration batches.
  /// Returns the completion time of the last batch.
  SimTime Transfer(int engine_id, SimTime now, int64_t lines);

  /// When the engine may issue again without over-filling its window.
  SimTime EngineReady(int engine_id) const {
    return link_->EngineReady(engine_id);
  }

  int batch_lines() const { return batch_lines_; }

 private:
  QpiLink* link_;
  int num_engines_;
  int batch_lines_;
};

}  // namespace doppio
