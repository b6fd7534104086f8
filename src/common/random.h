// Deterministic pseudo-random generator for workload synthesis and
// property tests. Wraps a fixed-algorithm engine so results are stable
// across standard library implementations.
#pragma once

#include <cstdint>
#include <string>

namespace doppio {

/// xoshiro256** — small, fast, reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  uint64_t Next();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// True with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Random string drawn from the given alphabet.
  std::string FromAlphabet(const std::string& alphabet, size_t length);

 private:
  uint64_t state_[4];
};

}  // namespace doppio
