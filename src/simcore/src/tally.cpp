#include "hmcs/simcore/tally.hpp"

#include <algorithm>
#include <cmath>

#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

namespace {

struct TRow {
  // Two-sided quantiles for confidence 0.90 / 0.95 / 0.99.
  double q90, q95, q99;
};

// df 1..30; beyond 30 the normal quantiles are within ~2% and we fall
// back to them (1.645 / 1.960 / 2.576).
constexpr TRow kTTable[30] = {
    {6.314, 12.706, 63.657}, {2.920, 4.303, 9.925},  {2.353, 3.182, 5.841},
    {2.132, 2.776, 4.604},   {2.015, 2.571, 4.032},  {1.943, 2.447, 3.707},
    {1.895, 2.365, 3.499},   {1.860, 2.306, 3.355},  {1.833, 2.262, 3.250},
    {1.812, 2.228, 3.169},   {1.796, 2.201, 3.106},  {1.782, 2.179, 3.055},
    {1.771, 2.160, 3.012},   {1.761, 2.145, 2.977},  {1.753, 2.131, 2.947},
    {1.746, 2.120, 2.921},   {1.740, 2.110, 2.898},  {1.734, 2.101, 2.878},
    {1.729, 2.093, 2.861},   {1.725, 2.086, 2.845},  {1.721, 2.080, 2.831},
    {1.717, 2.074, 2.819},   {1.714, 2.069, 2.807},  {1.711, 2.064, 2.797},
    {1.708, 2.060, 2.787},   {1.706, 2.056, 2.779},  {1.703, 2.052, 2.771},
    {1.701, 2.048, 2.763},   {1.699, 2.045, 2.756},  {1.697, 2.042, 2.750}};

double pick(const TRow& row, double confidence) {
  if (confidence == 0.90) return row.q90;
  if (confidence == 0.95) return row.q95;
  if (confidence == 0.99) return row.q99;
  hmcs::detail::throw_config_error(
      "student_t_quantile: supported confidence levels are 0.90/0.95/0.99",
      std::source_location::current());
}

}  // namespace

double student_t_quantile(double confidence, std::uint64_t degrees_of_freedom) {
  require(degrees_of_freedom >= 1, "student_t_quantile: df must be >= 1");
  if (degrees_of_freedom <= 30) return pick(kTTable[degrees_of_freedom - 1], confidence);
  return pick(TRow{1.645, 1.960, 2.576}, confidence);
}

void Tally::merge(const Tally& other) {
  if (other.count() == 0) return;
  moments_.merge(other.moments_);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  total_ += other.total_;
}

double Tally::min() const {
  require(count() > 0, "Tally::min: no samples");
  return min_;
}

double Tally::max() const {
  require(count() > 0, "Tally::max: no samples");
  return max_;
}

ConfidenceInterval Tally::confidence_interval(double confidence) const {
  require(count() > 1, "Tally::confidence_interval: needs >= 2 samples");
  const double t = student_t_quantile(confidence, count() - 1);
  const double half =
      t * stddev() / std::sqrt(static_cast<double>(count()));
  return ConfidenceInterval{mean() - half, mean() + half, half};
}

}  // namespace hmcs::simcore
