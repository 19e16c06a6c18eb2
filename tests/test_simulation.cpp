#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hmcs/simcore/simulation.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"

namespace {

using hmcs::simcore::Simulator;

/// Takes every pending event; returns the payloads in the order taken.
std::vector<std::uint64_t> run_all(Simulator& sim) {
  std::vector<std::uint64_t> taken;
  while (sim.pending_events() > 0) taken.push_back(sim.next());
  return taken;
}

/// Schedules and takes `count` unit-spaced events, one at a time.
void run_events(Simulator& sim, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    sim.schedule(1.0, i);
    sim.next();
  }
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  sim.schedule(5.0, 5);
  sim.schedule(2.0, 2);
  EXPECT_EQ(sim.next(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.next(), 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  // Delays are relative to the clock at the time of scheduling.
  Simulator sim;
  sim.schedule(1.0, 0);
  std::vector<double> times;
  while (sim.pending_events() > 0) {
    const std::uint64_t depth = sim.next();
    times.push_back(sim.now());
    if (depth < 2) sim.schedule(1.0, depth + 1);
  }
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sim.queue().total_pushed(), 3u);
}

TEST(Simulator, RejectsPastAndNegativeScheduling) {
  Simulator sim;
  sim.schedule(10.0, 0);
  sim.next();
  for (const double delay :
       {-1.0, -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sim.schedule(delay, 0), hmcs::ConfigError) << delay;
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule(0.0, 1);  // a zero delay is "now", not the past
  EXPECT_EQ(sim.next(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, ZeroDelayEventsRunInFifoOrder) {
  Simulator sim;
  sim.schedule(0.0, 1);
  sim.schedule(0.0, 2);
  EXPECT_EQ(run_all(sim), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Simulator, SameTimeEventsFireInPushOrder) {
  // Equal times reached by different delays from different clocks still
  // fire in push order.
  Simulator sim;
  sim.schedule(1.0, 100);
  sim.schedule(4.0, 1);
  sim.schedule(4.0, 2);
  EXPECT_EQ(sim.next(), 100u);
  sim.schedule(3.0, 3);
  sim.schedule(0.5, 50);
  sim.schedule(3.0, 4);
  EXPECT_EQ(run_all(sim), (std::vector<std::uint64_t>{50, 1, 2, 3, 4}));
}

TEST(Simulator, NextOnEmptyCalendarIsALogicError) {
  Simulator sim("Owner");
  try {
    sim.next();
    FAIL() << "next() on an empty calendar returned";
  } catch (const hmcs::LogicError& error) {
    EXPECT_NE(std::string(error.what()).find("Owner: "), std::string::npos)
        << error.what();
  }
}

TEST(Simulator, MaxEventsGuardTripsOnTheEventPastTheLimit) {
  constexpr std::uint64_t kLimit = 5;
  Simulator sim("Owner", kLimit);
  for (std::uint64_t i = 0; i <= kLimit; ++i) sim.schedule(1.0, i);
  for (std::uint64_t i = 0; i < kLimit; ++i) EXPECT_EQ(sim.next(), i);
  try {
    sim.next();
    FAIL() << "event max_events + 1 was taken";
  } catch (const hmcs::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("Owner: exceeded max_events"),
              std::string::npos)
        << error.what();
  }
}

TEST(Simulator, ZeroMaxEventsMeansNoLimit) {
  Simulator sim("Owner", 0);
  run_events(sim, 10000);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

TEST(Simulator, CancelledTokenEndsInCancelled) {
  hmcs::util::CancelToken token;
  token.cancel();
  Simulator sim("Owner", 0, &token);
  // The token is polled every few thousand events, never per event.
  EXPECT_THROW(run_events(sim, 1u << 16), hmcs::Cancelled);
  EXPECT_LE(sim.executed_events(), 4096u);
}

TEST(Simulator, ExpiredDeadlineEndsInDeadlineExceeded) {
  hmcs::util::CancelToken token;
  token.set_deadline_after_ms(1e-6);  // 1 ns: past by the first poll
  Simulator sim("Owner", 0, &token);
  EXPECT_THROW(run_events(sim, 1u << 16), hmcs::DeadlineExceeded);
  EXPECT_LE(sim.executed_events(), 4096u);
}

TEST(Simulator, LiveTokenLetsTheRunFinish) {
  hmcs::util::CancelToken token;
  Simulator sim("Owner", 0, &token);
  run_events(sim, 10000);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

}  // namespace
