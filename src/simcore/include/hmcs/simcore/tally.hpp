#pragma once

/// \file tally.hpp
/// Sample tally: Welford moments plus min/max and confidence intervals.
/// This is the "sink module" statistic of the paper's simulators — every
/// completed message deposits its latency here.

#include <algorithm>
#include <cstdint>
#include <limits>

#include "hmcs/simcore/welford.hpp"

namespace hmcs::simcore {

/// Two-sided confidence interval [lower, upper] around the sample mean.
struct ConfidenceInterval {
  double lower;
  double upper;
  double half_width;
};

/// Student-t quantile for a two-sided interval at the given confidence
/// level (supported: 0.90, 0.95, 0.99) and degrees of freedom. Uses an
/// exact table for small df and the normal quantile beyond it.
double student_t_quantile(double confidence, std::uint64_t degrees_of_freedom);

class Tally {
 public:
  void add(double x) {
    moments_.add(x);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    total_ += x;
  }
  void merge(const Tally& other);

  std::uint64_t count() const { return moments_.count(); }
  double mean() const { return moments_.mean(); }
  double variance() const { return moments_.variance_sample(); }
  double stddev() const { return moments_.stddev_sample(); }
  double min() const;
  double max() const;
  double total() const { return total_; }

  /// Confidence interval assuming i.i.d. samples. For correlated series
  /// (steady-state simulation output) use BatchMeans instead.
  ConfidenceInterval confidence_interval(double confidence = 0.95) const;

 private:
  Welford moments_;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double total_ = 0.0;
};

}  // namespace hmcs::simcore
