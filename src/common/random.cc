#include "common/random.h"

#include <cassert>

namespace doppio {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, used to seed the xoshiro state from a single value.
uint64_t SplitMix64(uint64_t& x) {
  uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::string Rng::FromAlphabet(const std::string& alphabet, size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out.push_back(alphabet[NextBounded(alphabet.size())]);
  }
  return out;
}

}  // namespace doppio
