#pragma once

/// \file batch_means.hpp
/// Batch-means confidence intervals for steady-state (autocorrelated)
/// simulation output. Consecutive observations of a queueing simulation
/// are strongly correlated, so the i.i.d. interval of Tally is too
/// narrow; grouping the series into long batches and treating the batch
/// means as (approximately) independent fixes that.

#include <cstdint>
#include <vector>

#include "hmcs/simcore/tally.hpp"

namespace hmcs::simcore {

class BatchMeans {
 public:
  /// `batch_size` observations per batch (>= 1). Partial final batches
  /// are excluded from the interval.
  explicit BatchMeans(std::uint64_t batch_size);

  void add(double x);

  std::uint64_t batch_size() const { return batch_size_; }
  std::uint64_t num_complete_batches() const { return batch_means_.size(); }
  std::uint64_t count() const { return count_; }

  /// Grand mean over all complete batches.
  double mean() const;

  /// CI over the batch means; requires >= 2 complete batches.
  ConfidenceInterval confidence_interval(double confidence = 0.95) const;

  const std::vector<double>& batch_means() const { return batch_means_; }

  /// Lag-1 autocorrelation of the batch means — a diagnostic for whether
  /// the batch size is large enough (|r1| well below ~0.2 is healthy).
  /// Degenerate inputs — fewer than 3 complete batches, or a constant
  /// series (zero batch-mean variance) — have no defined value and
  /// return 0.0; callers that must distinguish "healthy" from
  /// "undefined" gate on num_complete_batches() >= 3.
  double lag1_autocorrelation() const;

 private:
  std::uint64_t batch_size_;
  std::uint64_t count_ = 0;
  double current_sum_ = 0.0;
  std::uint64_t current_count_ = 0;
  std::vector<double> batch_means_;
};

/// The simulators' precision stopping rule over the `samples` measured
/// so far, at least `minimum` of them. With target_relative_ci <= 0 the
/// minimum suffices; otherwise the run stops at `cap` samples, or when
/// the batch-means CI (batches of samples/32) is within
/// target_relative_ci of the mean, checked every 2000 samples past the
/// minimum.
bool precision_reached(const std::vector<double>& samples,
                       std::uint64_t minimum, std::uint64_t cap,
                       double target_relative_ci);

}  // namespace hmcs::simcore
