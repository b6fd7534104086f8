// Output Collector (paper §5.1): in hardware it gathers 16-bit match
// indexes from the per-PU result FIFOs in round-robin order — guaranteeing
// results leave in input order — and packs 32 of them per 512-bit cache
// line written to the result column. The simulator appends them in input
// order directly.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "hw/job.h"

namespace doppio {

inline constexpr int64_t kResultsPerLine = kCacheLineBytes / 2;  // 32

class OutputCollector {
 public:
  explicit OutputCollector(const JobParams& params);

  /// Appends the match index for the next string (input order).
  Status Append(uint16_t match_index);

  /// Appends all tagged-stream indexes for the next string of a
  /// set-compiled job (JobParams::streams values, row-major layout).
  /// Append(x) is exactly AppendSet(&x, 1).
  Status AppendSet(const uint16_t* values, int32_t streams);

  /// Strings emitted so far.
  int64_t results_written() const { return results_written_; }
  /// Cache lines of result traffic generated so far (16-bit values packed
  /// 32 per line — streams multiply the value count).
  int64_t result_lines() const {
    return (values_written_ + kResultsPerLine - 1) / kResultsPerLine;
  }
  /// Number of nonzero result values (per-stream matches) — kept as a
  /// running statistic for the job status block.
  int64_t matches() const { return matches_; }

  /// Total result lines for `values` 16-bit indexes (strings x streams).
  static int64_t TotalResultLines(int64_t values) {
    return (values + kResultsPerLine - 1) / kResultsPerLine;
  }

 private:
  const JobParams* params_;
  int64_t results_written_ = 0;  // strings
  int64_t values_written_ = 0;   // 16-bit indexes (strings x streams)
  int64_t matches_ = 0;
};

}  // namespace doppio
