#pragma once

/// \file simulation.hpp
/// The discrete-event executive both simulators run on (sim::TreeSim,
/// netsim::SwitchFabricSim): the calendar, the virtual clock, the
/// executed-event count and the run's guards. An event is an 8-byte
/// payload that the owner decodes — by convention a kind in the low bits
/// and an index above them — so the owner's loop is
///
///     while (!done) {
///       const std::uint64_t event = simulator.next();
///       switch (event & kKindMask) { ... }
///     }
///
/// and dispatch is a branch, not an indirect call.
///
/// The executive is deliberately single-threaded: discrete-event
/// simulations of queueing networks are causality-ordered, and the runs
/// in this repo each take milliseconds. Parallelism in the experiment
/// layer comes from running independent replications on independent
/// Simulator instances.

#include <cmath>
#include <cstdint>

#include "hmcs/simcore/event_queue.hpp"
#include "hmcs/simcore/time.hpp"
#include "hmcs/util/cancel.hpp"

namespace hmcs::simcore {

class Simulator {
 public:
  /// `owner` names the simulator in every error text ("TreeSim: ...").
  /// next() throws ConfigError when it would take event max_events + 1
  /// (0 = no limit) and polls `cancel` (may be null; must outlive the
  /// Simulator) every few thousand events, throwing hmcs::Cancelled or
  /// hmcs::DeadlineExceeded.
  explicit Simulator(const char* owner = "Simulator",
                     std::uint64_t max_events = 0,
                     const util::CancelToken* cancel = nullptr)
      : owner_(owner), max_events_(max_events), cancel_(cancel) {}

  /// Flushes the batched events-dispatched count to the global metrics
  /// registry (see next()).
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (microseconds).
  SimTime now() const { return now_; }

  /// Schedules `event` after `delay` (finite, >= 0) time units. Same-time
  /// events are taken in scheduling order.
  [[gnu::always_inline]] void schedule(SimTime delay, std::uint64_t event) {
    if (!(std::isfinite(delay) && delay >= 0.0)) [[unlikely]] {
      fail_config("delay must be finite and non-negative");
    }
    queue_.push(now_ + delay, event);
  }

  /// Takes the earliest event: advances the clock to its time, counts
  /// it, runs the guards and returns it. The owner dispatches it.
  /// LogicError when nothing is pending.
  [[gnu::always_inline]] std::uint64_t next() {
    const auto event = queue_.pop_next();
    if (!event) [[unlikely]] {
      fail_logic("event queue drained before completion");
    }
    if (event->time < now_) [[unlikely]] fail_logic("time went backwards");
    now_ = event->time;
    if (++executed_ - obs_flushed_ >= kObsFlushBatch) flush_obs_counters();
    if (max_events_ != 0 && executed_ > max_events_) [[unlikely]] {
      fail_config("exceeded max_events safety limit");
    }
    // The steady_clock read behind CancelToken::check stays off the
    // per-event path.
    if (cancel_ != nullptr && (executed_ & kCancelPollMask) == 0) {
      cancel_->check(owner_);
    }
    return event->payload;
  }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  /// Read-only view of the calendar for diagnostics (total_pushed,
  /// slot_capacity, calendar counters).
  const EventQueue& queue() const { return queue_; }

 private:
  /// Publishes executed-event deltas to the global metrics registry in
  /// batches: one relaxed atomic add per kObsFlushBatch events, so
  /// concurrent simulators never contend on the shared counter line.
  void flush_obs_counters();
  /// Throw "<owner>: <what>" as ConfigError / LogicError.
  [[noreturn]] void fail_config(const char* what) const;
  [[noreturn]] void fail_logic(const char* what) const;

  static constexpr std::uint64_t kObsFlushBatch = 4096;
  static constexpr std::uint64_t kCancelPollMask = 4095;

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t obs_flushed_ = 0;
  const char* owner_;
  std::uint64_t max_events_;
  const util::CancelToken* cancel_;
};

}  // namespace hmcs::simcore
