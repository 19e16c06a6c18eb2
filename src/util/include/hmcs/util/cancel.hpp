#pragma once

/// \file cancel.hpp
/// Cooperative cancellation: a token combining an externally settable
/// cancel flag with an optional wall-clock deadline, checkable from any
/// thread. Long-running loops poll it on their rare path (every few
/// thousand events) and unwind with hmcs::Cancelled or
/// hmcs::DeadlineExceeded — the two outcomes are distinct because the
/// sweep runner treats them differently (skip-and-resume vs timed-out).
///
/// Tokens chain: a per-cell token constructed with a parent observes
/// the parent's cancel flag too, so one SIGINT-driven sweep token stops
/// every in-flight cell without the runner having to reach into worker
/// stacks. cancel() is a single relaxed atomic store and is async-
/// signal-safe; deadline reads cost one steady_clock::now(), which is
/// why callers poll on their rare path only.

#include <atomic>
#include <chrono>

#include "hmcs/util/error.hpp"

namespace hmcs::util {

class CancelToken {
 public:
  CancelToken() = default;
  /// A child token: cancelled() is true when either this token or
  /// `parent` was cancelled. `parent` must outlive this token.
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Async-signal-safe (one atomic store).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Arms the wall-clock deadline `budget_ms` milliseconds from now;
  /// <= 0 disarms it, and so does a budget that ends past the clock's
  /// range (int64 nanoseconds: about 292 years), which no run reaches.
  /// Not thread-safe against concurrent check() — arm the token before
  /// handing it to the worker.
  void set_deadline_after_ms(double budget_ms) {
    using Clock = std::chrono::steady_clock;
    using Millis = std::chrono::duration<double, std::milli>;
    has_deadline_ = false;
    if (!(budget_ms > 0.0)) return;
    const Clock::time_point now = Clock::now();
    // The 1 ms margin covers the rounding of the double comparison, so
    // the cast below never leaves the clock's range.
    if (budget_ms >= Millis(Clock::time_point::max() - now).count() - 1.0) {
      return;
    }
    has_deadline_ = true;
    deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                          Millis(budget_ms));
  }

  bool deadline_passed() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// True when the work should stop for either reason.
  bool expired() const { return cancelled() || deadline_passed(); }

  /// Polling helper for cooperative loops: throws hmcs::Cancelled when
  /// the flag (or a parent's) is set, hmcs::DeadlineExceeded when the
  /// deadline passed, otherwise returns. `who` names the loop in the
  /// exception message.
  void check(const char* who) const {
    if (cancelled()) {
      throw hmcs::Cancelled(std::string(who) + ": cancelled");
    }
    if (deadline_passed()) {
      throw hmcs::DeadlineExceeded(std::string(who) +
                                   ": wall-clock deadline exceeded");
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  const CancelToken* parent_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace hmcs::util
