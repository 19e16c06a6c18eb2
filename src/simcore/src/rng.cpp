#include "hmcs/simcore/rng.hpp"

#include <cmath>

#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state is the one invalid state for xoshiro; splitmix64 can
  // produce it only for adversarial seeds, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
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
