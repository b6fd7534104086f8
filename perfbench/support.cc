#include "support.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "db/hudf.h"
#include "hw/device_pool.h"
#include "obs/metrics.h"
#include "workload/address_generator.h"

namespace perfbench {

using doppio::Bat;
using doppio::Result;

Result<std::unique_ptr<Bat>> MakeStringBat(
    const std::vector<std::string>& values) {
  auto bat = std::make_unique<Bat>(doppio::ValueType::kString);
  for (const std::string& value : values) {
    DOPPIO_RETURN_NOT_OK(bat->AppendString(value));
  }
  return bat;
}

Result<std::vector<int16_t>> ExpectedMatches(const Bat& column,
                                             const std::string& pattern) {
  DOPPIO_ASSIGN_OR_RETURN(doppio::HudfResult scan,
                          doppio::RunDfaScanInSoftware(column, pattern));
  std::vector<int16_t> values(static_cast<size_t>(column.count()));
  for (int64_t i = 0; i < column.count(); ++i) {
    values[static_cast<size_t>(i)] = scan.result->GetInt16(i);
  }
  return values;
}

std::vector<std::string> AddressStrings(doppio::Rng* rng, int64_t count,
                                        double selectivity) {
  doppio::AddressDataOptions options;
  options.selectivity = selectivity;
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const bool q1 = rng->Bernoulli(selectivity);
    const bool q2 = !q1 && rng->Bernoulli(selectivity);
    const bool q3 = rng->Bernoulli(selectivity);
    const bool q4 = rng->Bernoulli(selectivity);
    const bool qh = !q1 && !q2 && rng->Bernoulli(selectivity);
    out.push_back(
        doppio::GenerateAddressString(rng, options, q1, q2, q3, q4, qh));
  }
  return out;
}

PoolSnapshot PoolSnapshot::Take(doppio::Hal* hal) {
  PoolSnapshot s;
  doppio::DevicePool* pool = hal->pool();
  for (int i = 0; i < pool->size(); ++i) {
    s.now_picos.push_back(pool->device(i)->now());
    s.slices.push_back(pool->slices_executed(i));
    s.rows.push_back(pool->rows_executed(i));
    s.steals_in.push_back(pool->steals_in(i));
  }
  return s;
}

namespace {
int64_t SumDelta(const std::vector<int64_t>& before,
                 const std::vector<int64_t>& after) {
  int64_t total = 0;
  for (size_t i = 0; i < before.size() && i < after.size(); ++i) {
    total += after[i] - before[i];
  }
  return total;
}
}  // namespace

int64_t PoolSnapshot::DevicePicosUntil(const PoolSnapshot& later) const {
  return SumDelta(now_picos, later.now_picos);
}

int64_t PoolSnapshot::SlicesUntil(const PoolSnapshot& later) const {
  return SumDelta(slices, later.slices);
}

int64_t PoolSnapshot::StealsUntil(const PoolSnapshot& later) const {
  return SumDelta(steals_in, later.steals_in);
}

double PoolSnapshot::RowImbalanceUntil(const PoolSnapshot& later) const {
  int64_t max_rows = 0;
  int64_t total = 0;
  for (size_t i = 0; i < rows.size() && i < later.rows.size(); ++i) {
    const int64_t delta = later.rows[i] - rows[i];
    max_rows = std::max(max_rows, delta);
    total += delta;
  }
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(rows.size());
  return static_cast<double>(max_rows) / mean;
}

void PoolSnapshot::EmitUntilNow(doppio::Hal* hal, MetricValues* out) const {
  const PoolSnapshot now = Take(hal);
  (*out)["hw.pool.slices"] = static_cast<double>(SlicesUntil(now));
  (*out)["hw.pool.steals"] = static_cast<double>(StealsUntil(now));
  (*out)["hw.pool.row_imbalance"] = RowImbalanceUntil(now);
}

int64_t RegistryCounter(const char* name) {
  return doppio::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

ZipfRounds::ZipfRounds(size_t n, double exponent, int round) {
  std::vector<double> weights(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    total += weights[k];
  }
  // Largest remainder: floor every quota, then hand the leftover draws to
  // the largest fractional parts (lowest rank first on ties).
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t k = 0; k < n; ++k) {
    const double exact = weights[k] / total * round;
    quota_.push_back(static_cast<int>(exact));
    assigned += quota_.back();
    remainders.push_back({exact - quota_.back(), k});
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < round; ++i, ++assigned) {
    ++quota_[remainders[i % n].second];
  }
}

size_t ZipfRounds::Next(doppio::Rng* rng) {
  if (pending_.empty()) {
    for (size_t k = 0; k < quota_.size(); ++k) {
      pending_.insert(pending_.end(), static_cast<size_t>(quota_[k]), k);
    }
    for (size_t i = pending_.size() - 1; i > 0; --i) {
      std::swap(pending_[i], pending_[rng->NextBounded(i + 1)]);
    }
  }
  const size_t next = pending_.back();
  pending_.pop_back();
  return next;
}

}  // namespace perfbench
