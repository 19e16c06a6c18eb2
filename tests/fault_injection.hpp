#pragma once

// Test-only backend that fails on demand: chosen point indices throw
// (ConfigError or LogicError), hang cooperatively until the cell's
// cancel token expires, or return a NaN mean. Healthy points delegate
// to an inner backend, or compute a cheap deterministic synthetic
// latency when none is given. Every predict() call is logged with its
// (point, attempt, seed) triple so tests can assert the retry
// protocol — deterministic re-derived seeds, bounded attempts —
// independently of worker scheduling.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hmcs/runner/backend.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::test {

class FaultInjectionBackend : public runner::Backend {
 public:
  struct Options {
    /// Delegate for non-faulting calls; null = synthetic result
    /// (a pure function of clusters, message bytes, and seed).
    std::shared_ptr<runner::Backend> inner;
    /// Point indices that throw hmcs::ConfigError.
    std::vector<std::size_t> throw_config_on;
    /// Point indices that throw hmcs::LogicError.
    std::vector<std::size_t> throw_logic_on;
    /// Point indices that spin until ctx.cancel expires (cooperative
    /// hang); throws hmcs::LogicError after ~10 s if no token ever
    /// expires, so a misconfigured test cannot wedge the suite.
    std::vector<std::size_t> hang_on;
    /// Point indices that return a NaN mean latency.
    std::vector<std::size_t> nan_on;
    /// Faulting points stop faulting on attempts > this count
    /// (0 = fault forever). Models transient failures for retry tests.
    std::uint32_t heal_after_attempts = 0;
  };

  explicit FaultInjectionBackend(Options options, std::string name = "faulty")
      : options_(std::move(options)), name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

  runner::PointResult predict(const analytic::SystemConfig& config,
                              const runner::PointContext& ctx) const override {
    {
      const std::scoped_lock lock(mutex_);
      calls_.push_back(Call{ctx.index, ctx.attempt, ctx.seed});
    }

    if (faults(options_.throw_config_on, ctx)) {
      throw ConfigError("fault injection: config fault at point " +
                        std::to_string(ctx.index));
    }
    if (faults(options_.throw_logic_on, ctx)) {
      throw LogicError("fault injection: logic fault at point " +
                       std::to_string(ctx.index));
    }
    if (faults(options_.hang_on, ctx)) {
      // Cooperative hang: behave like a simulator that never reaches its
      // message count, polling the cancel token on its rare path. The
      // 10 s fuse turns a missing/never-expiring token into a loud
      // failure instead of a wedged test suite.
      const auto fuse =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < fuse) {
        if (ctx.cancel != nullptr) ctx.cancel->check("FaultInjectionBackend");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      throw LogicError("fault injection: hang at point " +
                       std::to_string(ctx.index) +
                       " was never cancelled (no deadline?)");
    }
    if (faults(options_.nan_on, ctx)) {
      runner::PointResult result;
      result.mean_latency_us = std::numeric_limits<double>::quiet_NaN();
      return result;
    }

    if (options_.inner != nullptr) return options_.inner->predict(config, ctx);
    runner::PointResult result;
    result.mean_latency_us = static_cast<double>(config.clusters) * 100.0 +
                             config.message_bytes / 64.0 +
                             static_cast<double>(ctx.seed % 97);
    return result;
  }

  struct Call {
    std::size_t point = 0;
    std::uint32_t attempt = 0;
    std::uint64_t seed = 0;
  };
  /// Every predict() invocation so far, sorted by (point, attempt) so
  /// the log is identical for any worker count.
  std::vector<Call> calls() const {
    std::vector<Call> log;
    {
      const std::scoped_lock lock(mutex_);
      log = calls_;
    }
    std::sort(log.begin(), log.end(), [](const Call& a, const Call& b) {
      return a.point != b.point ? a.point < b.point : a.attempt < b.attempt;
    });
    return log;
  }

 private:
  bool faults(const std::vector<std::size_t>& set,
              const runner::PointContext& ctx) const {
    if (std::find(set.begin(), set.end(), ctx.index) == set.end()) {
      return false;
    }
    return options_.heal_after_attempts == 0 ||
           ctx.attempt <= options_.heal_after_attempts;
  }

  Options options_;
  std::string name_;
  mutable std::mutex mutex_;
  mutable std::vector<Call> calls_;
};

}  // namespace hmcs::test
