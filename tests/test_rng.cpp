#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"

namespace {

using hmcs::simcore::ExponentialStream;
using hmcs::simcore::Rng;
using hmcs::simcore::SplitMix64;

TEST(SplitMix, KnownSequence) {
  // Reference values for seed 0 from the splitmix64 reference
  // implementation (Vigna).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDecorrelate) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 3.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), hmcs::ConfigError);
}

TEST(Rng, UniformBelowIsUnbiased) {
  Rng rng(9);
  constexpr std::uint64_t kBound = 7;
  constexpr int kSamples = 70000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = rng.uniform_below(kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  // Each bucket expects 10000; allow 5 sigma (~sqrt(10000*6/7) ~ 92).
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
  EXPECT_THROW(rng.uniform_below(0), hmcs::ConfigError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  constexpr double kMean = 4000.0;  // the paper's think time in us
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.exponential(kMean);
    ASSERT_GE(x, 0.0);
    ASSERT_TRUE(std::isfinite(x));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, kMean, 0.02 * kMean);
  // Exponential: variance = mean^2.
  EXPECT_NEAR(var, kMean * kMean, 0.06 * kMean * kMean);
  EXPECT_THROW(rng.exponential(0.0), hmcs::ConfigError);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(12);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), hmcs::ConfigError);
  Rng fixed(13);
  EXPECT_FALSE(fixed.bernoulli(0.0));
  EXPECT_TRUE(fixed.bernoulli(1.0));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
}

TEST(Rng, ExponentialStreamMatchesExponentialDrawForDraw) {
  // Read across several 64-draw blocks, a block stream must give the
  // values Rng::exponential gives on the same stream, bit for bit, at
  // any mean from 1e-6 to 1e9.
  Rng params(2718);
  for (int trial = 0; trial < 16; ++trial) {
    const std::uint64_t seed = params.next_u64();
    Rng reference(seed);
    ExponentialStream stream{Rng(seed)};
    for (int draw = 0; draw < 5 * 64 + 17; ++draw) {
      const double mean = draw == 0   ? 1e-6
                          : draw == 1 ? 1e9
                                      : std::pow(10.0, params.uniform(-6.0, 9.0));
      const double expected = reference.exponential(mean);
      const double got = stream.exponential(mean);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(expected))
          << "seed " << seed << " draw " << draw << " mean " << mean;
    }
  }
  ExponentialStream stream{Rng(1)};
  EXPECT_THROW(stream.exponential(0.0), hmcs::ConfigError);
}

}  // namespace
