// FifoStation unit tests, including the canonical M/M/1 validation: an
// open Poisson-fed exponential station must reproduce W = 1/(mu-lambda)
// and L = rho/(1-rho) — the same formulas the analytical model uses
// (eq. 16), so this test ties the simulation substrate to the theory.
//
// The station is passive, so each test drives it the way its owners
// (TreeSim, SwitchFabricSim) do: draw the service time, begin service,
// schedule the departure, and on departure start the next queued job
// before handling the departed one.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hmcs/analytic/mm1.hpp"
#include "hmcs/simcore/fifo_station.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/simulation.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs::simcore;

/// The plain events DrivenStation schedules: a departure, a source's
/// arrival, or a tick that only advances the clock.
enum Event : std::uint64_t { kDeparture, kArrival, kTick };

/// One station with its owner's side of the protocol on a Simulator.
struct DrivenStation {
  Simulator sim;
  FifoStation station{"S"};
  std::function<double(const FifoStation::Job&)> draw;
  std::function<void(const FifoStation::Departure&)> on_departure =
      [](const FifoStation::Departure&) {};
  std::function<void()> on_arrival = [] {};
  std::function<void()> on_tick = [] {};

  explicit DrivenStation(std::function<double(const FifoStation::Job&)> d)
      : draw(std::move(d)) {}

  void arrive(std::uint64_t id) {
    if (station.arrive(id, sim.now())) start();
  }
  void start() {
    const double service = draw(station.next_job());
    station.begin_service(service, sim.now());
    sim.schedule(service, kDeparture);
  }
  void depart() {
    const FifoStation::Departure d = station.complete_service(sim.now());
    if (station.has_waiting()) start();
    on_departure(d);
  }
  /// Takes events until none is pending.
  void run() {
    while (sim.pending_events() > 0) {
      switch (sim.next()) {
        case kDeparture:
          depart();
          break;
        case kArrival:
          on_arrival();
          break;
        default:
          on_tick();
      }
    }
  }
};

TEST(FifoStation, ServesJobsFifoWithDeterministicService) {
  DrivenStation s([](const FifoStation::Job&) { return 5.0; });
  std::vector<std::uint64_t> completed;
  std::vector<double> waits;
  s.on_departure = [&](const FifoStation::Departure& d) {
    completed.push_back(d.job.id);
    waits.push_back(d.wait_time);
  };
  s.arrive(1);
  s.arrive(2);
  s.arrive(3);
  s.run();
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(waits, (std::vector<double>{0.0, 5.0, 10.0}));
  EXPECT_DOUBLE_EQ(s.sim.now(), 15.0);
  EXPECT_EQ(s.station.departures(), 3u);
  EXPECT_FALSE(s.station.busy());
}

TEST(FifoStation, TracksQueueLength) {
  DrivenStation s([](const FifoStation::Job&) { return 10.0; });
  s.arrive(1);
  s.arrive(2);
  EXPECT_EQ(s.station.queue_length(), 2u);  // one in service + one waiting
  EXPECT_TRUE(s.station.busy());
  EXPECT_TRUE(s.station.has_waiting());
  EXPECT_EQ(s.station.next_job().id, 2u);
  s.run();
  EXPECT_EQ(s.station.queue_length(), 0u);
  EXPECT_FALSE(s.station.has_waiting());
}

TEST(FifoStation, UtilizationIsBusyFraction) {
  DrivenStation s([](const FifoStation::Job&) { return 2.0; });
  // One job served in [0,2); then idle until a tick advances the clock
  // to 4.
  s.arrive(1);
  s.sim.schedule(4.0, kTick);
  s.run();
  EXPECT_DOUBLE_EQ(s.sim.now(), 4.0);
  EXPECT_DOUBLE_EQ(s.station.utilization(s.sim.now()), 0.5);
  EXPECT_DOUBLE_EQ(s.station.average_number_in_system(s.sim.now()), 0.5);
}

TEST(FifoStation, RejectsInvalidSetup) {
  FifoStation station("S");
  // An arrival at an idle station starts service at once, so the
  // negative duration is rejected right there.
  ASSERT_TRUE(station.arrive(1, 0.0));
  EXPECT_THROW(station.begin_service(-1.0, 0.0), hmcs::ConfigError);
}

TEST(FifoStation, ResetStatisticsKeepsInFlightWork) {
  DrivenStation s([](const FifoStation::Job&) { return 3.0; });
  int departures_seen = 0;
  s.on_departure = [&](const FifoStation::Departure&) { ++departures_seen; };
  s.on_tick = [&] { s.station.reset_statistics(s.sim.now()); };
  s.arrive(1);
  s.arrive(2);
  s.sim.schedule(1.0, kTick);  // reset at t = 1, mid-way through job 1
  s.run();
  EXPECT_EQ(departures_seen, 2);
  // Only the post-reset departures are counted in the statistics.
  EXPECT_EQ(s.station.departures(), 2u);
  EXPECT_EQ(s.station.arrivals(), 0u);
}

TEST(FifoStation, HeldWarmupMatchesResetWarmup) {
  // One seeded M/M/1 job stream through two stations: `reset` collects
  // through the warm-up and drops it at the cut, `held` collects nothing
  // until the same cut. Both must then report the same statistics, bit
  // for bit.
  Simulator sim;
  FifoStation reset("reset");
  FifoStation held("held");
  held.hold_statistics();
  Rng arrival_rng(303);
  Rng service_rng(404);
  const auto start = [&] {
    const double service = service_rng.exponential(1.0);
    reset.begin_service(service, sim.now());
    held.begin_service(service, sim.now());
    sim.schedule(service, kDeparture);
  };

  constexpr std::uint64_t kWarmup = 2000;
  constexpr std::uint64_t kTotal = 20000;
  std::uint64_t arrivals = 0;
  std::size_t jobs_at_cut = 0;
  sim.schedule(arrival_rng.exponential(1.25), kArrival);
  while (sim.pending_events() > 0) {
    if (sim.next() == kDeparture) {
      reset.complete_service(sim.now());
      held.complete_service(sim.now());
      if (reset.has_waiting()) start();
      continue;
    }
    ++arrivals;
    const bool idle = reset.arrive(arrivals, sim.now());
    held.arrive(arrivals, sim.now());
    if (idle) start();
    if (arrivals == kWarmup) {  // the cut, with the new job present
      jobs_at_cut = reset.queue_length();
      reset.reset_statistics(sim.now());
      held.reset_statistics(sim.now());
    }
    if (arrivals < kTotal) {
      sim.schedule(arrival_rng.exponential(1.25), kArrival);
    }
  }
  ASSERT_GE(jobs_at_cut, 1u);

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const double now = sim.now();
  EXPECT_EQ(bits(held.wait_times().mean()), bits(reset.wait_times().mean()));
  EXPECT_EQ(bits(held.service_times().mean()),
            bits(reset.service_times().mean()));
  EXPECT_EQ(bits(held.response_times().mean()),
            bits(reset.response_times().mean()));
  EXPECT_EQ(bits(held.utilization(now)), bits(reset.utilization(now)));
  EXPECT_EQ(bits(held.average_number_in_system(now)),
            bits(reset.average_number_in_system(now)));
  EXPECT_EQ(held.arrivals(), reset.arrivals());
  EXPECT_EQ(held.departures(), reset.departures());
  EXPECT_EQ(held.arrivals(), kTotal - kWarmup);
}

// ------------------------------------------------- M/M/1 law validation

struct Mm1Case {
  double lambda;  // arrivals per us
  double mu;      // service rate per us
};

class Mm1Validation : public ::testing::TestWithParam<Mm1Case> {};

TEST_P(Mm1Validation, MatchesTheory) {
  const auto [lambda, mu] = GetParam();
  Rng arrival_rng(101);
  Rng service_rng(202);
  DrivenStation s([&](const FifoStation::Job&) {
    return service_rng.exponential(1.0 / mu);
  });

  Tally responses;
  s.on_departure = [&](const FifoStation::Departure& d) {
    responses.add(d.response_time);
  };

  constexpr std::uint64_t kWarmup = 5000;
  constexpr std::uint64_t kTotal = 120000;
  std::uint64_t arrivals = 0;
  s.on_arrival = [&] {
    if (arrivals == kWarmup) s.station.reset_statistics(s.sim.now());
    if (arrivals++ < kTotal) {
      s.arrive(arrivals);
      s.sim.schedule(arrival_rng.exponential(1.0 / lambda), kArrival);
    }
  };
  s.sim.schedule(arrival_rng.exponential(1.0 / lambda), kArrival);
  s.run();

  namespace mm1 = hmcs::analytic::mm1;
  const double w_theory = mm1::response_time(lambda, mu);
  const double l_theory = mm1::number_in_system(lambda, mu);
  const double rho = mm1::utilization(lambda, mu);

  // Post-warm-up station statistics against theory; tolerance loosens
  // with utilization because M/M/1 converges slowly near saturation.
  const double tol = rho < 0.6 ? 0.05 : 0.15;
  const double now = s.sim.now();
  EXPECT_NEAR(s.station.response_times().mean(), w_theory, tol * w_theory);
  EXPECT_NEAR(s.station.utilization(now), rho, tol * rho);
  EXPECT_NEAR(s.station.average_number_in_system(now), l_theory,
              tol * l_theory);
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, Mm1Validation,
    ::testing::Values(Mm1Case{0.2, 1.0}, Mm1Case{0.5, 1.0}, Mm1Case{0.8, 1.0},
                      Mm1Case{0.0005, 0.00662},  // FE @ 1024B scale
                      Mm1Case{0.9, 1.0}),
    [](const ::testing::TestParamInfo<Mm1Case>& param_info) {
      return "rho" +
             std::to_string(static_cast<int>(100.0 * param_info.param.lambda /
                                             param_info.param.mu));
    });

}  // namespace
