#include "hmcs/simcore/rng.hpp"

#include <cmath>

#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state is the one invalid state for xoshiro; splitmix64 can
  // produce it only for adversarial seeds, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // Top 53 bits -> [0, 1) double grid.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  require(bound > 0, "Rng::uniform_below: bound must be > 0");
  // Lemire's method: multiply-shift with rejection of the biased zone.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo must be <= hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::exponential(double mean) {
  require(mean > 0.0, "Rng::exponential: mean must be > 0");
  // 1 - uniform() lies in (0, 1], so log() is finite.
  return -mean * std::log(1.0 - uniform());
}

bool Rng::bernoulli(double p) {
  require(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
  return uniform() < p;
}

Rng Rng::split() {
  Rng child(next_u64());
  return child;
}

void ExponentialStream::refill() {
  for (double& unit : unit_) unit = -std::log(1.0 - rng_.uniform());
  next_ = 0;
}

}  // namespace hmcs::simcore
