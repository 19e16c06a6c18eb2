#pragma once

/// \file time_weighted.hpp
/// Time-weighted average of a piecewise-constant signal — the right
/// estimator for queue lengths and server utilisation, where the value
/// persists for an interval rather than being sampled per event.

#include "hmcs/simcore/time.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

class TimeWeighted {
 public:
  /// Starts tracking at `start_time` with initial `value`.
  explicit TimeWeighted(SimTime start_time = 0.0, double value = 0.0)
      : last_time_(start_time), start_time_(start_time), value_(value) {}

  /// Records that the signal changed to `value` at time `now` (>= the
  /// previous update time).
  void update(SimTime now, double value) {
    require(now >= last_time_, "TimeWeighted: time went backwards");
    area_ += value_ * (now - last_time_);
    last_time_ = now;
    value_ = value;
  }

  /// Adds `delta` to the current value at time `now`.
  void add(SimTime now, double delta) { update(now, value_ + delta); }

  double current() const { return value_; }

  /// Average over [start_time, now]. `now` must be >= the last update.
  double average(SimTime now) const {
    require(now >= last_time_, "TimeWeighted: time went backwards");
    const SimTime span = now - start_time_;
    if (span <= 0.0) return value_;
    return (area_ + value_ * (now - last_time_)) / span;
  }

  /// Discards history and restarts the average window at `now` with the
  /// signal at `value` (used to drop warm-up transients).
  void reset_window(SimTime now, double value) {
    require(now >= last_time_, "TimeWeighted: time went backwards");
    start_time_ = now;
    last_time_ = now;
    value_ = value;
    area_ = 0.0;
  }

 private:
  SimTime last_time_;
  SimTime start_time_;
  double value_;
  double area_ = 0.0;
};

}  // namespace hmcs::simcore
