// WorkloadScenario (docs/WORKLOADS.md): MMPP rate resolution and exact
// interarrival SCV, the failure/repair two-moment fold, the scenario's
// arrival ca^2 at a rate, JSON round-trips, and the simcore samplers
// (variate_cv2, poisson, Mmpp2) pinned against their analytic moments.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hmcs/analytic/workload.hpp"
#include "hmcs/simcore/distributions.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs::analytic;
namespace simcore = hmcs::simcore;

// ------------------------------------------------------ MMPP algebra

TEST(Mmpp, ResolvedRatesPreserveTheMean) {
  MmppArrivals mmpp;
  mmpp.burst_ratio = 5.0;
  mmpp.burst_fraction = 0.2;
  mmpp.burst_dwell_us = 500.0;
  const double rate = 0.003;
  const MmppRates rates = resolve_mmpp(mmpp, rate);
  // Time-stationary mean (1-f) r0 + f r1 must equal the offered rate.
  const double f = mmpp.burst_fraction;
  EXPECT_NEAR((1.0 - f) * rates.base_rate + f * rates.burst_rate, rate, 1e-15);
  EXPECT_NEAR(rates.burst_rate, mmpp.burst_ratio * rates.base_rate, 1e-15);
  // Detailed balance: pi0 s0 = pi1 s1.
  EXPECT_NEAR((1.0 - f) * rates.leave_base, f * rates.leave_burst, 1e-15);
  EXPECT_NEAR(rates.leave_burst, 1.0 / mmpp.burst_dwell_us, 1e-15);
}

TEST(Mmpp, ScvDegeneratesToPoisson) {
  MmppArrivals flat;
  flat.burst_ratio = 1.0;  // both states share one rate: plain Poisson
  EXPECT_DOUBLE_EQ(mmpp_arrival_scv(flat, 0.002), 1.0);
  MmppArrivals bursty;
  EXPECT_DOUBLE_EQ(mmpp_arrival_scv(bursty, 0.0), 1.0);  // no arrivals
}

TEST(Mmpp, ScvExceedsPoissonAndGrowsWithRate) {
  MmppArrivals mmpp;  // defaults: ratio 4, fraction 0.1, dwell 1000us
  double previous = 1.0;
  for (double rate : {1e-4, 1e-3, 1e-2, 1e-1}) {
    const double scv = mmpp_arrival_scv(mmpp, rate);
    EXPECT_GT(scv, previous);  // burstier per-burst counts at higher rate
    previous = scv;
  }
  // Vanishing rate: at most one arrival per burst, Poisson-like.
  EXPECT_NEAR(mmpp_arrival_scv(mmpp, 1e-9), 1.0, 1e-4);
}

TEST(Mmpp, ScvMatchesSimulatedStream) {
  MmppArrivals mmpp;
  mmpp.burst_ratio = 6.0;
  mmpp.burst_fraction = 0.15;
  mmpp.burst_dwell_us = 200.0;
  const double rate = 0.05;
  const MmppRates rates = resolve_mmpp(mmpp, rate);
  simcore::Mmpp2 source(rates.base_rate, rates.burst_rate, rates.leave_base,
                        rates.leave_burst);
  simcore::Rng rng(20260807);
  source.set_bursty(rng.bernoulli(mmpp.burst_fraction));
  const std::size_t draws = 400000;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    const double x = source.next_interarrival_us(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / static_cast<double>(draws);
  const double second = sum_sq / static_cast<double>(draws);
  const double scv = second / (mean * mean) - 1.0;
  EXPECT_NEAR(mean, 1.0 / rate, 0.02 * (1.0 / rate));
  const double expected = mmpp_arrival_scv(mmpp, rate);
  EXPECT_GT(expected, 1.5);  // the scenario is genuinely bursty
  EXPECT_NEAR(scv, expected, 0.05 * expected);
}

TEST(Mmpp, Validation) {
  MmppArrivals bad;
  bad.burst_ratio = 0.5;
  EXPECT_THROW(bad.validate(), hmcs::ConfigError);
  bad = MmppArrivals{};
  bad.burst_fraction = 1.0;
  EXPECT_THROW(bad.validate(), hmcs::ConfigError);
  bad = MmppArrivals{};
  bad.burst_dwell_us = 0.0;
  EXPECT_THROW(bad.validate(), hmcs::ConfigError);
  EXPECT_THROW(resolve_mmpp(MmppArrivals{}, -1.0), hmcs::ConfigError);
}

// ------------------------------------------- failure/repair fold

TEST(Failure, EffectiveServiceIdentityWhenDisabled) {
  WorkloadScenario scenario;  // no failure object: disabled
  scenario.service_cv2 = 0.5;
  const EffectiveService same = effective_service(2.0, scenario);
  EXPECT_EQ(same.mu, 2.0);
  EXPECT_EQ(same.cs2, 0.5);
  scenario.failure = FailureRepair{1e6, 0.0};  // instantaneous repair
  const EffectiveService still = effective_service(2.0, scenario);
  EXPECT_EQ(still.mu, 2.0);
  EXPECT_EQ(still.cs2, 0.5);
}

TEST(Failure, EffectiveServiceStretchesByAvailability) {
  WorkloadScenario scenario;
  scenario.failure = FailureRepair{9000.0, 1000.0};  // A = 0.9
  const double mu = 0.01;
  const EffectiveService eff = effective_service(mu, scenario);
  EXPECT_NEAR(eff.mu, mu * 0.9, 1e-15);
  // Completion-time SCV inflates: cs2 + 2 A^2 mttr^2 mu / mtbf.
  const double extra = 2.0 * 0.81 * 1000.0 * 1000.0 * mu / 9000.0;
  EXPECT_NEAR(eff.cs2, 1.0 + extra, 1e-12);
  EXPECT_GT(eff.cs2, 1.0);
}

TEST(Failure, AvailabilityHelperAndValidation) {
  FailureRepair repair;
  repair.mtbf_us = 3000.0;
  repair.mttr_us = 1000.0;
  EXPECT_NEAR(repair.availability(), 0.75, 1e-15);
  repair.mtbf_us = 0.0;
  EXPECT_THROW(repair.validate(), hmcs::ConfigError);
  repair = FailureRepair{};
  repair.mttr_us = -1.0;
  EXPECT_THROW(repair.validate(), hmcs::ConfigError);
}

// ---------------------------------------------- scenario plumbing

TEST(Scenario, DefaultsAreThePaperModel) {
  WorkloadScenario scenario;
  EXPECT_TRUE(scenario.is_default());
  scenario.validate();
  scenario.service_cv2 = 2.0;
  EXPECT_FALSE(scenario.is_default());
  scenario = WorkloadScenario{};
  scenario.mmpp = MmppArrivals{};
  EXPECT_FALSE(scenario.is_default());
  scenario = WorkloadScenario{};
  scenario.failure = FailureRepair{};
  EXPECT_FALSE(scenario.is_default());
}

TEST(Scenario, ArrivalCa2AndMmppAreMutuallyExclusive) {
  WorkloadScenario scenario;
  scenario.arrival_ca2 = 2.0;
  scenario.mmpp = MmppArrivals{};
  EXPECT_THROW(scenario.validate(), hmcs::ConfigError);
}

TEST(Scenario, ArrivalScvIsTheFixedCa2WithoutMmpp) {
  WorkloadScenario scenario;
  EXPECT_EQ(arrival_scv(scenario, 0.002), 1.0);  // Poisson
  scenario.arrival_ca2 = 2.0;
  EXPECT_EQ(arrival_scv(scenario, 0.0), 2.0);
  EXPECT_EQ(arrival_scv(scenario, 0.002), 2.0);
}

TEST(Scenario, ArrivalScvResolvesMmppAtTheOfferedRate) {
  WorkloadScenario scenario;
  scenario.mmpp = MmppArrivals{};
  const double rate = 0.01;
  EXPECT_EQ(arrival_scv(scenario, rate),
            mmpp_arrival_scv(*scenario.mmpp, rate));
  EXPECT_GT(arrival_scv(scenario, rate), 1.0);
  EXPECT_EQ(arrival_scv(scenario, 0.0), 1.0);  // no arrivals: Poisson
}

// --------------------------------------------------- JSON surface

TEST(WorkloadJson, RoundTripsNonDefaultScenario) {
  WorkloadScenario scenario;
  scenario.service_cv2 = 4.0;
  scenario.mmpp = MmppArrivals{3.0, 0.25, 750.0};
  scenario.failure = FailureRepair{2e6, 5e3};
  hmcs::JsonWriter json;
  write_json(json, scenario);
  const hmcs::JsonValue doc = hmcs::parse_json(json.str());
  EXPECT_EQ(workload_from_json(doc), scenario);
}

TEST(WorkloadJson, ExplicitDefaultsRenderLikeOmittedOnes) {
  // The canonical writer collapses spelled-out defaults, so a request
  // carrying {"service_cv2": 1.0} keys identically to one without.
  const WorkloadScenario spelled =
      workload_from_json(hmcs::parse_json("{\"service_cv2\": 1.0}"));
  EXPECT_TRUE(spelled.is_default());
  EXPECT_EQ(spelled, WorkloadScenario{});
}

TEST(WorkloadJson, RejectsUnknownAndConflictingKeys) {
  EXPECT_THROW(workload_from_json(hmcs::parse_json("{\"cv2\": 2.0}")),
               hmcs::ConfigError);
  EXPECT_THROW(
      workload_from_json(hmcs::parse_json(
          "{\"arrival_ca2\": 2.0, \"mmpp\": {\"burst_ratio\": 2.0}}")),
      hmcs::ConfigError);
  EXPECT_THROW(
      workload_from_json(hmcs::parse_json("{\"failure\": {\"mtbf_us\": 1e6}}")),
      hmcs::ConfigError);  // mttr_us is required alongside mtbf_us
}

// ------------------------------------------------ simcore samplers

double sample_mean_and_scv(double mean, double cv2, double* out_scv) {
  simcore::Rng rng(77);
  const std::size_t draws = 300000;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    const double x = simcore::variate_cv2(rng, mean, cv2);
    EXPECT_GE(x, 0.0);
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / static_cast<double>(draws);
  const double var = sum_sq / static_cast<double>(draws) - m * m;
  *out_scv = var / (m * m);
  return m;
}

TEST(VariateCv2, MatchesTargetMomentsAcrossRegimes) {
  for (double cv2 : {0.0, 0.3, 0.5, 1.0, 2.0, 4.0}) {
    double scv = 0.0;
    const double mean = sample_mean_and_scv(12.5, cv2, &scv);
    EXPECT_NEAR(mean, 12.5, 0.02 * 12.5) << "cv2=" << cv2;
    EXPECT_NEAR(scv, cv2, 0.03 * (cv2 + 0.25)) << "cv2=" << cv2;
  }
}

TEST(VariateCv2, ExponentialPathIsBitIdenticalToRawDraw) {
  // cv^2 = 1 must make exactly one rng.exponential(mean) call — the
  // default-scenario bit-identity contract for every simulator.
  simcore::Rng a(123), b(123);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(simcore::variate_cv2(a, 3.5, 1.0), b.exponential(3.5));
  }
}

TEST(VariateCv2, DeterministicDrawsNothing) {
  simcore::Rng a(9), b(9);
  EXPECT_EQ(simcore::variate_cv2(a, 7.0, 0.0), 7.0);
  // No state consumed: the next exponential matches a fresh twin.
  EXPECT_EQ(a.exponential(1.0), b.exponential(1.0));
}

TEST(PoissonSampler, MatchesMeanAndHandlesZero) {
  simcore::Rng rng(31337);
  EXPECT_EQ(simcore::poisson(rng, 0.0), 0u);
  const double mean = 3.25;
  const std::size_t draws = 200000;
  double sum = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    sum += static_cast<double>(simcore::poisson(rng, mean));
  }
  EXPECT_NEAR(sum / static_cast<double>(draws), mean, 0.02 * mean);
}

}  // namespace
