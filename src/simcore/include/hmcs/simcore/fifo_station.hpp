#pragma once

/// \file fifo_station.hpp
/// A FIFO single-server service station — the building block for the
/// paper's queueing-network simulators, where each communication network
/// (ICN1, ECN1, ICN2) is one such centre.
///
/// The station is passive: it holds the waiting line, the busy flag, the
/// job in service and the statistics, and schedules nothing. Its owner
/// (TreeSim, SwitchFabricSim) draws each service time for next_job(),
/// calls begin_service and schedules the departure; on that departure it
/// calls complete_service and, if a job waits, starts it (draw, then
/// push) before it moves the departed job on. Ties between same-time
/// events depend on that order. Job ids are the owner's (message slots).

#include <cstdint>
#include <string>

#include "hmcs/simcore/ring_buffer.hpp"
#include "hmcs/simcore/tally.hpp"
#include "hmcs/simcore/time.hpp"
#include "hmcs/simcore/time_weighted.hpp"

namespace hmcs::simcore {

class FifoStation {
 public:
  struct Job {
    std::uint64_t id = 0;
    SimTime arrival_time = 0.0;
  };

  struct Departure {
    Job job;
    SimTime wait_time;     ///< time spent queued before service
    SimTime service_time;  ///< drawn service duration
    SimTime response_time; ///< wait + service
  };

  /// `name` labels the station in statistics reports.
  explicit FifoStation(std::string name);

  /// Enqueues a job at time `now`. Returns true when the server was
  /// idle: the owner then starts the job at once (begin_service).
  bool arrive(std::uint64_t job_id, SimTime now);

  /// The job begin_service starts next: the head of the waiting line.
  const Job& next_job() const { return queue_.front(); }

  /// Puts the next job into service at `now` for `service` time units
  /// (>= 0). The owner schedules complete_service at now + service.
  void begin_service(SimTime service, SimTime now);

  /// Ends the job in service at `now` and returns it with its times.
  Departure complete_service(SimTime now);

  const std::string& name() const { return name_; }
  std::size_t queue_length() const { return queue_.size() + (busy_ ? 1u : 0u); }
  bool busy() const { return busy_; }
  /// True when a job waits in line for the server.
  bool has_waiting() const { return !queue_.empty(); }

  /// Observation statistics.
  const Tally& wait_times() const { return wait_times_; }
  const Tally& service_times() const { return service_times_; }
  const Tally& response_times() const { return response_times_; }
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t departures() const { return departures_; }

  /// Time-averaged number in system (queue + in service) and fraction of
  /// time the server was busy, both over the observation window up to
  /// `now`.
  double average_number_in_system(SimTime now) const {
    return number_in_system_.average(now);
  }
  double utilization(SimTime now) const { return busy_signal_.average(now); }

  /// Stops collecting statistics until the next reset_statistics: an
  /// owner holds its stations through warm-up, whose statistics the cut
  /// would drop anyway.
  void hold_statistics() { collecting_ = false; }

  /// Drops all accumulated statistics at `now` (warm-up handling) and
  /// collects from there: the time averages restart from the jobs
  /// present and the busy flag. Jobs in flight are unaffected.
  void reset_statistics(SimTime now);

 private:
  std::string name_;

  RingBuffer<Job> queue_;
  bool busy_ = false;
  Job in_service_;
  SimTime in_service_wait_ = 0.0;
  SimTime in_service_time_ = 0.0;

  bool collecting_ = true;
  Tally wait_times_;
  Tally service_times_;
  Tally response_times_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t departures_ = 0;
  TimeWeighted number_in_system_;
  TimeWeighted busy_signal_;
};

}  // namespace hmcs::simcore
