#include "hmcs/simcore/fifo_station.hpp"

#include <utility>

#include "hmcs/util/error.hpp"

namespace hmcs::simcore {

FifoStation::FifoStation(std::string name) : name_(std::move(name)) {}

bool FifoStation::arrive(std::uint64_t job_id, SimTime now) {
  if (collecting_) {
    ++arrivals_;
    number_in_system_.add(now, 1.0);
  }
  queue_.push_back(Job{job_id, now});
  return !busy_;
}

void FifoStation::begin_service(SimTime service, SimTime now) {
  ensure(!queue_.empty(), "FifoStation: begin_service with empty queue");
  ensure(!busy_, "FifoStation: begin_service while busy");
  require(service >= 0.0, "FifoStation: sampled negative service time");
  in_service_ = queue_.front();
  queue_.pop_front();
  busy_ = true;
  if (collecting_) busy_signal_.update(now, 1.0);
  in_service_wait_ = now - in_service_.arrival_time;
  in_service_time_ = service;
}

FifoStation::Departure FifoStation::complete_service(SimTime now) {
  ensure(busy_, "FifoStation: complete_service while idle");
  busy_ = false;
  const SimTime wait = in_service_wait_;
  const SimTime service = in_service_time_;
  if (collecting_) {
    busy_signal_.update(now, 0.0);
    number_in_system_.add(now, -1.0);
    ++departures_;
    wait_times_.add(wait);
    service_times_.add(service);
    response_times_.add(wait + service);
  }
  return Departure{in_service_, wait, service, wait + service};
}

void FifoStation::reset_statistics(SimTime now) {
  wait_times_ = Tally{};
  service_times_ = Tally{};
  response_times_ = Tally{};
  arrivals_ = 0;
  departures_ = 0;
  number_in_system_.reset_window(now, static_cast<double>(queue_length()));
  busy_signal_.reset_window(now, busy_ ? 1.0 : 0.0);
  collecting_ = true;
}

}  // namespace hmcs::simcore
