// Helpers the three workloads share: the correctness oracle (an
// independent software scan), string-column construction, and snapshots
// of the device pool's clocks and counters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/random.h"
#include "common/status.h"
#include "hal/hal.h"
#include "harness.h"

namespace perfbench {

/// A malloc-backed string column holding `values`.
doppio::Result<std::unique_ptr<doppio::Bat>> MakeStringBat(
    const std::vector<std::string>& values);

/// Expected match value per row of `column` for `pattern`, computed with
/// the lazy-DFA software scan (RunDfaScanInSoftware) — a path independent
/// of the device, the host backends, the scheduler and the caches.
doppio::Result<std::vector<int16_t>> ExpectedMatches(
    const doppio::Bat& column, const std::string& pattern);

/// Address-format strings (paper §7.1.1) with every query's hit
/// probability at `selectivity`.
std::vector<std::string> AddressStrings(doppio::Rng* rng, int64_t count,
                                        double selectivity = 0.2);

/// Device clocks and per-device counters of a HAL's pool at one instant.
struct PoolSnapshot {
  std::vector<int64_t> now_picos;
  std::vector<int64_t> slices;
  std::vector<int64_t> rows;
  std::vector<int64_t> steals_in;

  static PoolSnapshot Take(doppio::Hal* hal);
  /// Sum over devices of (later - this) clock advance, picoseconds.
  int64_t DevicePicosUntil(const PoolSnapshot& later) const;
  int64_t SlicesUntil(const PoolSnapshot& later) const;
  int64_t StealsUntil(const PoolSnapshot& later) const;
  /// Max over mean of the rows each device executed in between (1 = even).
  double RowImbalanceUntil(const PoolSnapshot& later) const;
  /// Fills hw.pool.{slices,steals,row_imbalance} for the interval from
  /// this snapshot to now.
  void EmitUntilNow(doppio::Hal* hal, MetricValues* out) const;
};

/// Current value of a counter in the process-wide metrics registry.
int64_t RegistryCounter(const char* name);

/// Draws indices into a pool of `n` entries whose weights follow a Zipf
/// law (weight of rank k is 1/(k+1)^exponent; exponent 0 = uniform).
/// Every round of `round` draws holds each index exactly its quota
/// (largest-remainder rounding) in a seeded order, so the mix is exact
/// and only the order depends on the seed.
class ZipfRounds {
 public:
  ZipfRounds(size_t n, double exponent, int round);
  size_t Next(doppio::Rng* rng);
  void Reset() { pending_.clear(); }

 private:
  std::vector<int> quota_;
  std::vector<size_t> pending_;
};


}  // namespace perfbench
