#include "hmcs/simcore/simulation.hpp"

#include <source_location>
#include <string>

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

void Simulator::fail_config(const char* what) const {
  detail::throw_config_error(std::string(owner_) + ": " + what,
                             std::source_location::current());
}

void Simulator::fail_logic(const char* what) const {
  detail::throw_logic_error(std::string(owner_) + ": " + what,
                            std::source_location::current());
}

}  // namespace hmcs::simcore
