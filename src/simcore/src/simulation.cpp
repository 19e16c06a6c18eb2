#include "hmcs/simcore/simulation.hpp"

#include <cmath>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

Simulator::~Simulator() { flush_obs_counters(); }

void Simulator::flush_obs_counters() {
  if (executed_ == obs_flushed_) return;
  HMCS_OBS_COUNTER_ADD("simcore.engine.events_dispatched",
                       executed_ - obs_flushed_);
  obs_flushed_ = executed_;
}

EventId Simulator::schedule_after(SimTime delay, EventAction action) {
  require(std::isfinite(delay) && delay >= 0.0,
          "Simulator: delay must be finite and non-negative");
  return queue_.push(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(SimTime at, EventAction action) {
  require(std::isfinite(at) && at >= now_,
          "Simulator: cannot schedule in the past");
  return queue_.push(at, std::move(action));
}

bool Simulator::step() {
  auto event = queue_.pop_next();
  if (!event) return false;
  ensure(event->time >= now_, "Simulator: time went backwards");
  now_ = event->time;
  ++executed_;
  if (executed_ - obs_flushed_ >= kObsFlushBatch) flush_obs_counters();
  event->payload();
  return true;
}

std::uint64_t Simulator::run() {
  stop_requested_ = false;
  std::uint64_t count = 0;
  while (!stop_requested_ && step()) ++count;
  return count;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t count = 0;
  while (!stop_requested_) {
    const auto next = queue_.peek_time();
    if (!next || *next > deadline) break;
    step();
    ++count;
  }
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace hmcs::simcore
