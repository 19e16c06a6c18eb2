#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hmcs/simcore/batch_means.hpp"
#include "hmcs/simcore/histogram.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/tally.hpp"
#include "hmcs/simcore/time_weighted.hpp"
#include "hmcs/simcore/welford.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs::simcore;

// ---------------------------------------------------------------- Welford

TEST(Welford, MatchesClosedFormOnSmallSample) {
  Welford w;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance_population(), 4.0);
  EXPECT_NEAR(w.variance_sample(), 32.0 / 7.0, 1e-12);
}

TEST(Welford, StableUnderLargeOffset) {
  // Classic catastrophic-cancellation case: tiny variance on a huge mean.
  Welford w;
  const double offset = 1e9;
  for (const double x : {offset + 1.0, offset + 2.0, offset + 3.0}) w.add(x);
  EXPECT_NEAR(w.variance_sample(), 1.0, 1e-6);
}

TEST(Welford, MergeEqualsSequential) {
  Rng rng(5);
  Welford all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance_sample(), all.variance_sample(), 1e-9);
}

TEST(Welford, MergeWithEmptySides) {
  Welford a, b;
  a.add(3.0);
  a.merge(b);  // empty right
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // empty left
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Welford, ThrowsWithoutSamples) {
  Welford w;
  EXPECT_THROW(w.mean(), hmcs::ConfigError);
  w.add(1.0);
  EXPECT_THROW(w.variance_sample(), hmcs::ConfigError);
}

// ------------------------------------------------------------------ Tally

TEST(Tally, TracksMinMaxTotal) {
  Tally t;
  for (const double x : {3.0, -1.0, 7.0, 2.0}) t.add(x);
  EXPECT_DOUBLE_EQ(t.min(), -1.0);
  EXPECT_DOUBLE_EQ(t.max(), 7.0);
  EXPECT_DOUBLE_EQ(t.total(), 11.0);
  EXPECT_DOUBLE_EQ(t.mean(), 2.75);
}

TEST(Tally, ConfidenceIntervalBracketsTrueMean) {
  // 95% CI should contain the true mean in roughly 95% of replications.
  Rng rng(17);
  int covered = 0;
  constexpr int kReplications = 300;
  for (int r = 0; r < kReplications; ++r) {
    Tally t;
    for (int i = 0; i < 50; ++i) t.add(rng.exponential(10.0));
    const auto ci = t.confidence_interval(0.95);
    if (ci.lower <= 10.0 && 10.0 <= ci.upper) ++covered;
  }
  // Exponential skew costs a little coverage at n=50; accept 88%..99%.
  EXPECT_GE(covered, static_cast<int>(0.88 * kReplications));
  EXPECT_LE(covered, kReplications);
}

TEST(Tally, StudentTQuantiles) {
  EXPECT_NEAR(student_t_quantile(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.95, 1000), 1.960, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.99, 5), 4.032, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.90, 30), 1.697, 1e-3);
  EXPECT_THROW(student_t_quantile(0.80, 10), hmcs::ConfigError);
  EXPECT_THROW(student_t_quantile(0.95, 0), hmcs::ConfigError);
}

TEST(Tally, MergeCombinesEverything) {
  Tally a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_DOUBLE_EQ(a.total(), 13.0);
}

// ------------------------------------------------------------ BatchMeans

TEST(BatchMeans, GrandMeanMatchesSampleMean) {
  BatchMeans bm(10);
  double sum = 0.0;
  for (int i = 0; i < 100; ++i) {
    bm.add(i);
    sum += i;
  }
  EXPECT_EQ(bm.num_complete_batches(), 10u);
  EXPECT_DOUBLE_EQ(bm.mean(), sum / 100.0);
}

TEST(BatchMeans, PartialBatchExcluded) {
  BatchMeans bm(10);
  for (int i = 0; i < 25; ++i) bm.add(1.0);
  EXPECT_EQ(bm.num_complete_batches(), 2u);
  EXPECT_EQ(bm.count(), 25u);
}

TEST(BatchMeans, WiderThanIidIntervalOnCorrelatedData) {
  // AR(1)-style positively correlated series: batch-means CI must be
  // wider than the naive i.i.d. CI.
  Rng rng(23);
  Tally iid;
  BatchMeans bm(100);
  double state = 0.0;
  for (int i = 0; i < 20000; ++i) {
    state = 0.95 * state + rng.uniform(-1.0, 1.0);
    iid.add(state);
    bm.add(state);
  }
  const double naive = iid.confidence_interval().half_width;
  const double batched = bm.confidence_interval().half_width;
  EXPECT_GT(batched, 2.0 * naive);
}

TEST(BatchMeans, Lag1AutocorrelationNearZeroForIid) {
  Rng rng(29);
  BatchMeans bm(50);
  for (int i = 0; i < 10000; ++i) bm.add(rng.uniform());
  EXPECT_LT(std::fabs(bm.lag1_autocorrelation()), 0.25);
}

TEST(BatchMeans, Lag1DegenerateCasesReturnZero) {
  // Fewer than 3 complete batches: undefined, documented return 0.0
  // (previously this threw / risked 0-variance NaN in release paths).
  BatchMeans empty(10);
  EXPECT_DOUBLE_EQ(empty.lag1_autocorrelation(), 0.0);
  BatchMeans two(2);
  for (int i = 0; i < 5; ++i) two.add(static_cast<double>(i));  // 2 batches
  ASSERT_EQ(two.num_complete_batches(), 2u);
  EXPECT_DOUBLE_EQ(two.lag1_autocorrelation(), 0.0);

  // A constant series has zero batch-mean variance: also 0.0, never NaN.
  BatchMeans constant(5);
  for (int i = 0; i < 50; ++i) constant.add(3.25);
  ASSERT_GE(constant.num_complete_batches(), 3u);
  const double r1 = constant.lag1_autocorrelation();
  EXPECT_FALSE(std::isnan(r1));
  EXPECT_DOUBLE_EQ(r1, 0.0);
}

TEST(BatchMeans, Validation) {
  EXPECT_THROW(BatchMeans(0), hmcs::ConfigError);
  BatchMeans bm(10);
  EXPECT_THROW(bm.mean(), hmcs::ConfigError);
  for (int i = 0; i < 10; ++i) bm.add(1.0);
  EXPECT_THROW(bm.confidence_interval(), hmcs::ConfigError);
}

// ------------------------------------------------------------- Histogram

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lower(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(5), 6.0);
}

TEST(Histogram, QuantilesInterpolate) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.0);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), hmcs::ConfigError);
  EXPECT_THROW(Histogram(5.0, 5.0, 4), hmcs::ConfigError);
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW(h.quantile(0.5), hmcs::ConfigError);  // no samples yet
  h.add(0.5);
  EXPECT_THROW(h.quantile(1.5), hmcs::ConfigError);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.5);
  h.add(1.6);
  const std::string out = h.render();
  EXPECT_NE(out.find("2"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

// ---------------------------------------------------------- TimeWeighted

TEST(TimeWeighted, AveragesPiecewiseConstantSignal) {
  TimeWeighted tw(0.0, 0.0);
  tw.update(10.0, 2.0);  // value 0 for [0,10)
  tw.update(20.0, 4.0);  // value 2 for [10,20)
  // value 4 for [20,30): average = (0*10 + 2*10 + 4*10)/30 = 2.
  EXPECT_DOUBLE_EQ(tw.average(30.0), 2.0);
  EXPECT_DOUBLE_EQ(tw.current(), 4.0);
}

TEST(TimeWeighted, AddAdjustsRelative) {
  TimeWeighted tw(0.0, 1.0);
  tw.add(5.0, +2.0);
  tw.add(10.0, -1.0);
  EXPECT_DOUBLE_EQ(tw.current(), 2.0);
  // (1*5 + 3*5)/10 = 2.
  EXPECT_DOUBLE_EQ(tw.average(10.0), 2.0);
}

TEST(TimeWeighted, ResetWindowDropsHistory) {
  TimeWeighted tw(0.0, 10.0);
  tw.update(5.0, 0.0);
  tw.reset_window(5.0, 0.0);
  tw.update(10.0, 2.0);
  // After reset: value 0 for [5,10), 2 for [10,15): average 1.
  EXPECT_DOUBLE_EQ(tw.average(15.0), 1.0);
}

TEST(TimeWeighted, RejectsTimeTravel) {
  TimeWeighted tw(10.0, 0.0);
  EXPECT_THROW(tw.update(5.0, 1.0), hmcs::ConfigError);
  EXPECT_THROW(tw.average(5.0), hmcs::ConfigError);
}

TEST(TimeWeighted, ZeroSpanReturnsCurrentValue) {
  TimeWeighted tw(3.0, 7.5);
  EXPECT_DOUBLE_EQ(tw.average(3.0), 7.5);
}

}  // namespace
