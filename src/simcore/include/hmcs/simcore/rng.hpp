#pragma once

/// \file rng.hpp
/// Random-number generation for the simulators.
///
/// We implement xoshiro256** (Blackman & Vigna) seeded through splitmix64
/// instead of relying on std::mt19937_64 + std::*_distribution because
/// the standard distributions are implementation-defined: identical seeds
/// produce different streams across standard libraries. The simulator's
/// regression tests pin exact sample sequences, so the whole stack must
/// be deterministic.
///
/// Rng satisfies std::uniform_random_bit_generator, so it can still be
/// plugged into <random> utilities when bit-exactness is not needed.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

/// splitmix64: used to expand a single 64-bit seed into engine state.
/// Passes into every state expansion path so that seeds 0, 1, 2, ... give
/// well-decorrelated streams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator with 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9b1f8d52c3a0e17dULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next_u64(); }
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() {
    // Top 53 bits -> [0, 1) double grid.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    require(lo <= hi, "Rng::uniform: lo must be <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift
  /// rejection method (unbiased). bound must be > 0.
  std::uint64_t uniform_below(std::uint64_t bound) {
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

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed sample with the given mean (inverse-CDF
  /// on a (0,1] uniform so the result is always finite). mean must be > 0.
  double exponential(double mean);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Derives an independent stream (for per-component sub-generators).
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// An Rng stream that only ever makes exponential draws, drawn 64 ahead:
/// a refill computes -log(1 - u) for the next 64 uniforms at once, off
/// the events' critical path. mean * -log(1 - u) equals
/// Rng::exponential(mean) bit for bit (IEEE negation is exact), so the
/// stream's values are the Rng's, draw for draw.
class ExponentialStream {
 public:
  explicit ExponentialStream(Rng rng) : rng_(rng) {}

  /// The stream's next Rng::exponential(mean). mean must be > 0.
  double exponential(double mean) {
    require(mean > 0.0, "ExponentialStream: mean must be > 0");
    if (next_ == kBlock) refill();
    return mean * unit_[next_++];
  }

 private:
  static constexpr std::size_t kBlock = 64;
  void refill();

  Rng rng_;
  std::size_t next_ = kBlock;
  std::array<double, kBlock> unit_{};
};

}  // namespace hmcs::simcore
