#include "hw/arbiter.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {

namespace {
obs::Counter& LinesTransferredCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hw.arbiter.lines_transferred",
      "cache lines moved over the arbitrated QPI link");
  return *c;
}
}  // namespace

Arbiter::Arbiter(QpiLink* link, int num_engines, int batch_lines)
    : link_(link), num_engines_(num_engines), batch_lines_(batch_lines) {
  DOPPIO_CHECK(link != nullptr);
  DOPPIO_CHECK(batch_lines >= 1);
}

SimTime Arbiter::Transfer(int engine_id, SimTime now, int64_t lines) {
  DOPPIO_CHECK(engine_id >= 0 && engine_id < num_engines_);
  LinesTransferredCounter().Add(lines);
  SimTime completion = now;
  int64_t remaining = lines;
  while (remaining > 0) {
    int64_t batch = std::min<int64_t>(remaining, batch_lines_);
    completion = link_->Transfer(engine_id, now, batch);
    // Pipelined issue: the next batch goes out as soon as the window
    // drains, not when the previous batch's data lands.
    now = std::max(now, link_->EngineReady(engine_id));
    remaining -= batch;
  }
  return completion;
}

}  // namespace doppio
