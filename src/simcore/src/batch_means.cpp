#include "hmcs/simcore/batch_means.hpp"

#include <algorithm>
#include <cmath>

#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

BatchMeans::BatchMeans(std::uint64_t batch_size) : batch_size_(batch_size) {
  require(batch_size >= 1, "BatchMeans: batch_size must be >= 1");
}

void BatchMeans::add(double x) {
  ++count_;
  current_sum_ += x;
  if (++current_count_ == batch_size_) {
    batch_means_.push_back(current_sum_ / static_cast<double>(batch_size_));
    current_sum_ = 0.0;
    current_count_ = 0;
  }
}

double BatchMeans::mean() const {
  require(!batch_means_.empty(), "BatchMeans::mean: no complete batches");
  double sum = 0.0;
  for (const double m : batch_means_) sum += m;
  return sum / static_cast<double>(batch_means_.size());
}

ConfidenceInterval BatchMeans::confidence_interval(double confidence) const {
  require(batch_means_.size() >= 2,
          "BatchMeans: needs >= 2 complete batches for an interval");
  Tally tally;
  for (const double m : batch_means_) tally.add(m);
  return tally.confidence_interval(confidence);
}

double BatchMeans::lag1_autocorrelation() const {
  // Degenerate series have no defined autocorrelation; return the
  // documented neutral value instead of 0/0 = NaN (which would flow
  // unflagged into SimResult obs fields and JSON artifacts). Callers
  // that need to distinguish "healthy" from "undefined" check
  // num_complete_batches() >= 3 first.
  if (batch_means_.size() < 3) return 0.0;
  const double grand = mean();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < batch_means_.size(); ++i) {
    const double di = batch_means_[i] - grand;
    den += di * di;
    if (i + 1 < batch_means_.size()) {
      num += di * (batch_means_[i + 1] - grand);
    }
  }
  // A constant series (den == 0 implies num == 0) is likewise undefined.
  return den > 0.0 ? num / den : 0.0;
}

bool precision_reached(const std::vector<double>& samples,
                       std::uint64_t minimum, std::uint64_t cap,
                       double target_relative_ci) {
  if (target_relative_ci <= 0.0) return true;
  const std::uint64_t measured = samples.size();
  if (measured >= cap) return true;
  if ((measured - minimum) % 2000 != 0) return false;
  BatchMeans batches(std::max<std::uint64_t>(1, measured / 32));
  for (const double sample : samples) batches.add(sample);
  if (batches.num_complete_batches() < 2) return false;
  return batches.confidence_interval().half_width <=
         target_relative_ci * batches.mean();
}

}  // namespace hmcs::simcore
