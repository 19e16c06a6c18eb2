// Exact MVA solver: closed-form checks on canonical closed networks and
// asymptotic (bottleneck/machine-repairman) laws.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs::analytic;

TEST(Mva, SingleCustomerSeesNoQueueing) {
  // n=1: response time is the bare service time everywhere.
  const std::vector<MvaStation> stations{{1.0, 0.5}, {2.0, 1.0}};
  const MvaResult result = solve_closed_mva(stations, 10.0, 1);
  EXPECT_DOUBLE_EQ(result.response_time_us[0], 2.0);
  EXPECT_DOUBLE_EQ(result.response_time_us[1], 1.0);
  // X = 1 / (Z + v1 W1 + v2 W2) = 1/(10 + 2 + 2).
  EXPECT_NEAR(result.throughput, 1.0 / 14.0, 1e-12);
}

TEST(Mva, TwoCustomersCentralServer) {
  // Hand-run of the recursion: one station (v=1, mu=1), Z=0.
  // n=1: W=1, X=1, L=1. n=2: W=2, X=2/2=1, L=2.
  const std::vector<MvaStation> stations{{1.0, 1.0}};
  const MvaResult result = solve_closed_mva(stations, 0.0, 2);
  EXPECT_DOUBLE_EQ(result.response_time_us[0], 2.0);
  EXPECT_DOUBLE_EQ(result.throughput, 1.0);
  EXPECT_DOUBLE_EQ(result.queue_length[0], 2.0);
}

TEST(Mva, LittleLawHoldsPerStation) {
  const std::vector<MvaStation> stations{{0.5, 0.01}, {1.0, 0.02}, {0.25, 0.005}};
  const MvaResult result = solve_closed_mva(stations, 100.0, 40);
  for (std::size_t i = 0; i < stations.size(); ++i) {
    EXPECT_NEAR(result.queue_length[i],
                result.throughput * stations[i].visit_ratio *
                    result.response_time_us[i],
                1e-9);
  }
  // Population is conserved: customers are thinking or queued.
  double total_queued = 0.0;
  for (const double l : result.queue_length) total_queued += l;
  const double thinking = result.throughput * 100.0;
  EXPECT_NEAR(total_queued + thinking, 40.0, 1e-9);
}

TEST(Mva, BottleneckLawAtLargePopulation) {
  // X(N) -> min_i mu_i / v_i as N grows.
  const std::vector<MvaStation> stations{{1.0, 0.02}, {1.0, 0.05}};
  const MvaResult result = solve_closed_mva(stations, 50.0, 500);
  EXPECT_NEAR(result.throughput, 0.02, 1e-4);
  // Nearly every customer queues at the bottleneck.
  EXPECT_GT(result.queue_length[0], 450.0);
  EXPECT_LT(result.queue_length[1], 5.0);
}

TEST(Mva, ThroughputMonotoneInPopulation) {
  const std::vector<MvaStation> stations{{1.0, 0.01}};
  double previous = 0.0;
  for (const std::uint64_t n : {1ULL, 2ULL, 5ULL, 20ULL, 100ULL}) {
    const double x = solve_closed_mva(stations, 200.0, n).throughput;
    EXPECT_GT(x, previous);
    previous = x;
  }
  EXPECT_LE(previous, 0.01 + 1e-12);  // never exceeds bottleneck capacity
}

TEST(Mva, ZeroVisitStationIsInert) {
  const std::vector<MvaStation> with{{1.0, 0.01}, {0.0, 1e-9}};
  const std::vector<MvaStation> without{{1.0, 0.01}};
  const MvaResult a = solve_closed_mva(with, 100.0, 30);
  const MvaResult b = solve_closed_mva(without, 100.0, 30);
  EXPECT_NEAR(a.throughput, b.throughput, 1e-12);
  EXPECT_DOUBLE_EQ(a.queue_length[1], 0.0);
}

TEST(Mva, HmcsLayoutMatchesArrivalRateShape) {
  const SystemConfig config = paper_scenario(
      HeterogeneityCase::kCase1, 4, NetworkArchitecture::kNonBlocking, 1024.0);
  const CenterServiceTimes service = center_service_times(config);
  const HmcsMvaLayout layout = build_hmcs_mva_layout(config, service);
  ASSERT_EQ(layout.stations.size(), 2u * 4u + 1u);
  // Visit ratios sum to (1-P) + 2P + P = 1 + 2P per cycle.
  double visits = 0.0;
  for (const auto& s : layout.stations) visits += s.visit_ratio;
  const double p = 192.0 / 255.0;
  EXPECT_NEAR(visits, 1.0 + 2.0 * p, 1e-12);
  // Station groups are internally identical.
  EXPECT_DOUBLE_EQ(layout.stations[layout.icn1_index].visit_ratio,
                   layout.stations[layout.icn1_index + 3].visit_ratio);
  EXPECT_DOUBLE_EQ(layout.stations[layout.ecn1_index].service_rate,
                   service.ecn1.service_rate());
  EXPECT_DOUBLE_EQ(layout.stations[layout.icn2_index].visit_ratio, p);
}

// ------------------------------------------- multi-class approximate MVA

TEST(Amva, SingleClassMatchesExactMvaClosely) {
  // Bard-Schweitzer against the exact recursion on the same network.
  const std::vector<MvaStation> stations{{0.5, 0.01}, {1.0, 0.02},
                                         {0.25, 0.004}};
  const std::vector<double> rates{0.01, 0.02, 0.004};
  for (const std::uint64_t population : {1ULL, 4ULL, 32ULL, 256ULL}) {
    const MvaResult exact = solve_closed_mva(stations, 150.0, population);
    MvaClass cls;
    cls.population = population;
    cls.think_time_us = 150.0;
    cls.visit_ratios = {0.5, 1.0, 0.25};
    const MultiClassMvaResult approx = solve_multiclass_amva(rates, {cls});
    ASSERT_TRUE(approx.converged);
    EXPECT_NEAR(approx.throughput[0], exact.throughput,
                0.05 * exact.throughput)
        << "population=" << population;
  }
}

TEST(Amva, SingleCustomerIsExact) {
  // With N=1 the self-exclusion term vanishes and AMVA is exact.
  const std::vector<double> rates{0.01, 0.05};
  MvaClass cls;
  cls.population = 1;
  cls.think_time_us = 10.0;
  cls.visit_ratios = {1.0, 2.0};
  const MultiClassMvaResult result = solve_multiclass_amva(rates, {cls});
  // W_i = 1/mu_i; X = 1/(Z + v.W) = 1/(10 + 100 + 40).
  EXPECT_NEAR(result.throughput[0], 1.0 / 150.0, 1e-9);
  EXPECT_NEAR(result.response_time_us[0][0], 100.0, 1e-9);
}

TEST(Amva, SymmetricClassesShareTheNetworkEqually) {
  const std::vector<double> rates{0.02};
  MvaClass cls;
  cls.population = 10;
  cls.think_time_us = 500.0;
  cls.visit_ratios = {1.0};
  const MultiClassMvaResult result =
      solve_multiclass_amva(rates, {cls, cls});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.throughput[0], result.throughput[1], 1e-9);
  // Two identical classes of 10 vs one class of 20: near-identical
  // aggregate throughput.
  MvaClass merged = cls;
  merged.population = 20;
  const MultiClassMvaResult single = solve_multiclass_amva(rates, {merged});
  EXPECT_NEAR(result.throughput[0] + result.throughput[1],
              single.throughput[0], 0.02 * single.throughput[0]);
}

TEST(Amva, HeavierClassDominatesStationQueue) {
  const std::vector<double> rates{0.01, 0.01};
  MvaClass a;  // hammers station 0
  a.population = 20;
  a.think_time_us = 100.0;
  a.visit_ratios = {1.0, 0.0};
  MvaClass b = a;  // hammers station 1, but thinks much longer
  b.think_time_us = 10000.0;
  b.visit_ratios = {0.0, 1.0};
  const MultiClassMvaResult result = solve_multiclass_amva(rates, {a, b});
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.queue_length[0], 5.0 * result.queue_length[1]);
}

TEST(Amva, PopulationConserved) {
  const std::vector<double> rates{0.01, 0.02, 0.004};
  MvaClass a;
  a.population = 12;
  a.think_time_us = 300.0;
  a.visit_ratios = {1.0, 0.5, 0.25};
  MvaClass b;
  b.population = 30;
  b.think_time_us = 800.0;
  b.visit_ratios = {0.0, 1.0, 0.5};
  const MultiClassMvaResult result = solve_multiclass_amva(rates, {a, b});
  ASSERT_TRUE(result.converged);
  double queued = 0.0;
  for (const double l : result.queue_length) queued += l;
  const double thinking =
      result.throughput[0] * 300.0 + result.throughput[1] * 800.0;
  EXPECT_NEAR(queued + thinking, 42.0, 0.01);
}

TEST(Amva, Validation) {
  const std::vector<double> rates{0.01};
  MvaClass cls;
  cls.population = 2;
  cls.think_time_us = 1.0;
  cls.visit_ratios = {1.0};
  EXPECT_THROW(solve_multiclass_amva({}, {cls}), hmcs::ConfigError);
  EXPECT_THROW(solve_multiclass_amva(rates, {}), hmcs::ConfigError);
  MvaClass bad = cls;
  bad.population = 0;
  EXPECT_THROW(solve_multiclass_amva(rates, {bad}), hmcs::ConfigError);
  bad = cls;
  bad.visit_ratios = {1.0, 2.0};  // wrong width
  EXPECT_THROW(solve_multiclass_amva(rates, {bad}), hmcs::ConfigError);
  EXPECT_THROW(solve_multiclass_amva({0.0}, {cls}), hmcs::ConfigError);
}

TEST(Mva, Validation) {
  EXPECT_THROW(solve_closed_mva({{1.0, 1.0}}, -1.0, 10), hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva({{1.0, 1.0}}, 1.0, 0), hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva({{-1.0, 1.0}}, 1.0, 10), hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva({{1.0, 0.0}}, 1.0, 10), hmcs::ConfigError);
}

// --- Station-class collapse ------------------------------------------------

/// Expands a class list into the equivalent flat station list.
std::vector<MvaStation> expand_classes(
    const std::vector<MvaStationClass>& classes) {
  std::vector<MvaStation> stations;
  for (const MvaStationClass& cls : classes) {
    for (std::uint64_t i = 0; i < cls.multiplicity; ++i) {
      stations.push_back(MvaStation{cls.visit_ratio, cls.service_rate});
    }
  }
  return stations;
}

double rel_diff(double a, double b) {
  const double denom = std::max(std::fabs(a), std::fabs(b));
  return denom > 0.0 ? std::fabs(a - b) / denom : 0.0;
}

TEST(MvaClasses, CollapseMatchesScalarOnRandomizedNetworks) {
  // Property: the class recursion is the scalar recursion with identical
  // stations deduplicated, so every observable agrees to rounding
  // (<= 1e-12 relative; only the cycle-sum association and the hoisted
  // reciprocal differ). Class counts 5 and 9 show the lane kernel has
  // no class-count cap.
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> visit(0.05, 2.0);
  std::uniform_real_distribution<double> mu(0.005, 1.0);
  std::uniform_real_distribution<double> think(0.0, 200.0);
  std::uniform_int_distribution<int> n_classes(1, 4);
  std::uniform_int_distribution<std::uint64_t> multiplicity(1, 6);
  std::uniform_int_distribution<std::uint64_t> population(1, 80);

  for (int trial = 0; trial < 66; ++trial) {
    std::vector<MvaStationClass> classes;
    const int k = trial < 50 ? n_classes(rng) : (trial < 58 ? 5 : 9);
    for (int c = 0; c < k; ++c) {
      classes.push_back(
          MvaStationClass{visit(rng), mu(rng), multiplicity(rng)});
    }
    const double z = think(rng);
    const std::uint64_t n = population(rng);

    const MvaResult scalar = solve_closed_mva(expand_classes(classes), z, n);
    const MvaClassResult collapsed = solve_closed_mva_classes(classes, z, n);

    EXPECT_LE(rel_diff(scalar.throughput, collapsed.throughput), 1e-12);
    EXPECT_LE(rel_diff(scalar.total_residence_us,
                       collapsed.total_residence_us),
              1e-12);
    std::size_t station = 0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      for (std::uint64_t i = 0; i < classes[c].multiplicity; ++i, ++station) {
        EXPECT_LE(rel_diff(scalar.response_time_us[station],
                           collapsed.response_time_us[c]),
                  1e-12);
        EXPECT_LE(rel_diff(scalar.queue_length[station],
                           collapsed.queue_length[c]),
                  1e-12);
      }
    }
  }
}

TEST(MvaClasses, HmcsClassLayoutMatchesStationLayout) {
  const SystemConfig config =
      paper_scenario(HeterogeneityCase::kCase1, 8,
                     NetworkArchitecture::kNonBlocking, 1024.0);
  const CenterServiceTimes service = center_service_times(config);
  const double think = 1.0 / config.generation_rate_per_us;

  const HmcsMvaLayout stations = build_hmcs_mva_layout(config, service);
  const HmcsMvaClassLayout classes =
      build_hmcs_mva_class_layout(config, service);
  ASSERT_EQ(classes.classes.size(), 3u);
  EXPECT_EQ(classes.classes[classes.icn1_class].multiplicity,
            config.clusters);
  EXPECT_EQ(classes.classes[classes.ecn1_class].multiplicity,
            config.clusters);
  EXPECT_EQ(classes.classes[classes.icn2_class].multiplicity, 1u);

  const MvaResult by_station =
      solve_closed_mva(stations.stations, think, config.total_nodes());
  const MvaClassResult by_class = solve_closed_mva_classes(
      classes.classes, think, config.total_nodes());

  EXPECT_LE(rel_diff(by_station.throughput, by_class.throughput), 1e-12);
  EXPECT_LE(rel_diff(by_station.response_time_us[stations.icn1_index],
                     by_class.response_time_us[classes.icn1_class]),
            1e-12);
  EXPECT_LE(rel_diff(by_station.response_time_us[stations.ecn1_index],
                     by_class.response_time_us[classes.ecn1_class]),
            1e-12);
  EXPECT_LE(rel_diff(by_station.response_time_us[stations.icn2_index],
                     by_class.response_time_us[classes.icn2_class]),
            1e-12);
}

TEST(MvaClasses, CancelTokenUnwindsTheRecursion) {
  const std::vector<MvaStationClass> classes{{1.0, 0.5, 4}};
  hmcs::util::CancelToken token;
  token.cancel();
  EXPECT_THROW(solve_closed_mva_classes(classes, 10.0, 100000, &token),
               hmcs::Cancelled);

  hmcs::util::CancelToken deadline;
  deadline.set_deadline_after_ms(1e-6);
  EXPECT_THROW(solve_closed_mva_classes(classes, 10.0, 1u << 24, &deadline),
               hmcs::DeadlineExceeded);
  // The scalar recursion polls the same token.
  EXPECT_THROW(
      solve_closed_mva(expand_classes(classes), 10.0, 1u << 24, &deadline),
      hmcs::DeadlineExceeded);
}

TEST(MvaClasses, Validation) {
  EXPECT_THROW(solve_closed_mva_classes({{1.0, 1.0, 0}}, 1.0, 10),
               hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva_classes({{1.0, 0.0, 1}}, 1.0, 10),
               hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva_classes({{-1.0, 1.0, 1}}, 1.0, 10),
               hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva_classes({{1.0, 1.0, 1}}, 1.0, 0),
               hmcs::ConfigError);
}

TEST(MvaClasses, ZeroCycleNetworkIsAConfigError) {
  // No think time and no visited station: every cycle would take zero
  // time. Both recursions reject it up front as a bad input instead of
  // tripping an internal invariant on their first step.
  EXPECT_THROW(solve_closed_mva({{0.0, 1.0}}, 0.0, 10), hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva({}, 0.0, 10), hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva_classes({{0.0, 1.0, 1}}, 0.0, 10),
               hmcs::ConfigError);
  EXPECT_THROW(solve_closed_mva_classes({}, 0.0, 10), hmcs::ConfigError);
  // Either half alone makes the cycle positive.
  EXPECT_NO_THROW(solve_closed_mva({{0.0, 1.0}}, 1.0, 10));
  EXPECT_NO_THROW(solve_closed_mva({{1.0, 1.0}}, 0.0, 10));
  EXPECT_NO_THROW(solve_closed_mva_classes({{0.0, 1.0, 1}}, 1.0, 10));
  EXPECT_NO_THROW(solve_closed_mva_classes({{1.0, 1.0, 1}}, 0.0, 10));
}

// --- Lane-parallel station-class recursion --------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// k classes with random visit ratios (a few unvisited), rates and
/// multiplicities.
std::vector<MvaStationClass> random_classes(std::mt19937_64& rng,
                                            std::size_t k) {
  std::uniform_real_distribution<double> visit(0.05, 2.0);
  std::uniform_real_distribution<double> mu(0.005, 1.0);
  std::uniform_int_distribution<std::uint64_t> multiplicity(1, 5);
  std::vector<MvaStationClass> classes;
  for (std::size_t i = 0; i < k; ++i) {
    const double v = std::bernoulli_distribution(0.15)(rng) ? 0.0 : visit(rng);
    classes.push_back(MvaStationClass{v, mu(rng), multiplicity(rng)});
  }
  return classes;
}

/// Networks of a lane-parallel solve with the layouts they point into.
struct Networks {
  std::vector<std::vector<MvaStationClass>> layouts;
  std::vector<MvaClassNetwork> networks;
};

Networks random_networks(std::mt19937_64& rng, std::size_t k,
                               std::size_t count) {
  std::uniform_real_distribution<double> think(0.5, 500.0);
  Networks out;
  for (std::size_t i = 0; i < count; ++i) {
    out.layouts.push_back(random_classes(rng, k));
  }
  for (const std::vector<MvaStationClass>& layout : out.layouts) {
    out.networks.push_back(MvaClassNetwork{layout, think(rng)});
  }
  return out;
}

/// Every result of `lanes` bit for bit against a one-network solve (the
/// baseline one-lane path) of the same network.
void expect_one_lane_bits(const Networks& input,
                          const std::vector<MvaClassResult>& lanes,
                          std::uint64_t population, const std::string& where) {
  ASSERT_EQ(lanes.size(), input.networks.size()) << where;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const MvaClassResult alone = solve_closed_mva_classes(
        input.layouts[i], input.networks[i].think_time_us, population);
    const std::string lane = where + " lane " + std::to_string(i);
    EXPECT_TRUE(same_bits(lanes[i].throughput, alone.throughput)) << lane;
    EXPECT_TRUE(
        same_bits(lanes[i].total_residence_us, alone.total_residence_us))
        << lane;
    ASSERT_EQ(lanes[i].response_time_us.size(), alone.response_time_us.size())
        << lane;
    for (std::size_t c = 0; c < alone.response_time_us.size(); ++c) {
      EXPECT_TRUE(same_bits(lanes[i].response_time_us[c],
                            alone.response_time_us[c]))
          << lane;
      EXPECT_TRUE(same_bits(lanes[i].queue_length[c], alone.queue_length[c]))
          << lane;
    }
  }
}

TEST(MvaLanes, EveryLaneIsBitIdenticalToItsOneNetworkSolve) {
  // Lane width + 3 networks: one full group of lanes and a padded one,
  // for the HMCS class count (compiled as a constant) and another.
  std::mt19937_64 rng(4242);
  const std::uint64_t population = 5000;  // crosses a cancel poll
  for (const std::size_t k : {3u, 5u}) {
    const Networks input =
        random_networks(rng, k, mva_lane_width() + 3);
    expect_one_lane_bits(
        input, solve_closed_mva_classes_batch(input.networks, population),
        population, "k=" + std::to_string(k));
  }
}

TEST(MvaLanes, KernelsRunWidestFirstDownToTheBaseline) {
  const std::span<const detail::MvaKernel> kernels =
      detail::supported_mva_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(mva_lane_width(), kernels.front().lanes);
  for (std::size_t i = 1; i < kernels.size(); ++i) {
    EXPECT_GT(kernels[i - 1].lanes, kernels[i].lanes) << kernels[i].name;
  }
  // Eight vectors of two doubles: SSE2 on x86-64, the portable loop
  // elsewhere.
  EXPECT_EQ(kernels.back().lanes, 16u);
}

TEST(MvaLanes, EverySupportedKernelIsBitIdenticalToTheOneLaneSolve) {
  // Each build the CPU runs, not only the dispatched one: the HMCS
  // class count and a run-time count, one lane short of a group, a full
  // group, and a full group plus a lone network.
  std::mt19937_64 rng(20261017);
  const std::uint64_t population = 5000;  // crosses a cancel poll
  for (const detail::MvaKernel& kernel : detail::supported_mva_kernels()) {
    for (const std::size_t k : {3u, 5u}) {
      for (const std::size_t count :
           {kernel.lanes - 1, kernel.lanes, kernel.lanes + 1}) {
        const Networks input = random_networks(rng, k, count);
        expect_one_lane_bits(input, kernel.solve(input.networks, population),
                             population,
                             std::string(kernel.name) +
                                 " k=" + std::to_string(k) +
                                 " count=" + std::to_string(count));
      }
    }
  }
}

TEST(MvaLanes, HmcsGridLayoutsAreBitIdenticalOnEveryKernel) {
  // The networks an analytic grid's exact-MVA cells solve: the HMCS
  // class layout at every cluster count of the paper's sweep (C = 1
  // visits neither ECN1 nor ICN2), both architectures and both cases,
  // at four think times, at the grid's population (16 cancel polls),
  // through every kernel the CPU runs.
  const std::uint64_t population = 65536;
  std::size_t cluster_counts = 0;
  const std::uint32_t* clusters = paper_cluster_sweep(&cluster_counts);
  Networks grid;
  std::vector<double> think_times;
  for (std::size_t i = 0; i < cluster_counts; ++i) {
    for (const NetworkArchitecture architecture :
         {NetworkArchitecture::kNonBlocking, NetworkArchitecture::kBlocking}) {
      for (const HeterogeneityCase hetero :
           {HeterogeneityCase::kCase1, HeterogeneityCase::kCase2}) {
        for (const double rate_per_s : {25.0, 120.0, 480.0, 880.0}) {
          const SystemConfig config =
              paper_scenario(hetero, clusters[i], architecture, 1024.0,
                             static_cast<std::uint32_t>(population),
                             rate_per_s * 1e-6);
          grid.layouts.push_back(
              build_hmcs_mva_class_layout(config,
                                          center_service_times(config))
                  .classes);
          think_times.push_back(1.0 / config.generation_rate_per_us);
        }
      }
    }
  }
  for (std::size_t i = 0; i < grid.layouts.size(); ++i) {
    grid.networks.push_back(MvaClassNetwork{grid.layouts[i], think_times[i]});
  }
  ASSERT_EQ(grid.networks.size(), 144u);

  // Another class count runs one lane at a time on every kernel.
  std::mt19937_64 rng(65536);
  for (const detail::MvaKernel& kernel : detail::supported_mva_kernels()) {
    const std::string name(kernel.name);
    expect_one_lane_bits(grid, kernel.solve(grid.networks, population),
                         population, name + " grid");
    const Networks five = random_networks(rng, 5, kernel.lanes + 1);
    expect_one_lane_bits(five, kernel.solve(five.networks, population),
                         population, name + " k=5");
  }
}

TEST(MvaLanes, BatchValidatesEveryNetwork) {
  const std::vector<MvaStationClass> good{{1.0, 0.5, 2}, {0.5, 0.25, 1}};
  const std::vector<MvaStationClass> one_class{{1.0, 0.5, 2}};
  const std::vector<MvaStationClass> unvisited{{0.0, 0.5, 2}, {0.0, 1.0, 1}};
  EXPECT_TRUE(solve_closed_mva_classes_batch({}, 10).empty());
  const MvaClassNetwork mixed_counts[] = {{good, 1.0}, {one_class, 1.0}};
  EXPECT_THROW(solve_closed_mva_classes_batch(mixed_counts, 10),
               hmcs::ConfigError);
  const MvaClassNetwork zero_cycle[] = {{good, 1.0}, {unvisited, 0.0}};
  EXPECT_THROW(solve_closed_mva_classes_batch(zero_cycle, 10),
               hmcs::ConfigError);
  const MvaClassNetwork negative_think[] = {{good, 1.0}, {good, -1.0}};
  EXPECT_THROW(solve_closed_mva_classes_batch(negative_think, 10),
               hmcs::ConfigError);
  const MvaClassNetwork fine[] = {{good, 1.0}, {good, 2.0}};
  EXPECT_THROW(solve_closed_mva_classes_batch(fine, 0), hmcs::ConfigError);
}

TEST(MvaLanes, OverflowToANonFiniteStateIsAnInvariantFailure) {
  // A subnormal service rate passes validation, but its reciprocal
  // overflows and the recursion state turns NaN within two steps. The
  // lane kernel reports that at its cancel polls and at the end.
  const std::vector<MvaStationClass> healthy{{1.0, 0.5, 1}};
  const std::vector<MvaStationClass> overflowing{{1.0, 1e-310, 1}};
  EXPECT_THROW(solve_closed_mva_classes(overflowing, 1.0, 3),
               hmcs::LogicError);
  const MvaClassNetwork lanes[] = {{healthy, 1.0}, {overflowing, 1.0}};
  EXPECT_THROW(solve_closed_mva_classes_batch(lanes, 10000),
               hmcs::LogicError);
  for (const detail::MvaKernel& kernel : detail::supported_mva_kernels()) {
    EXPECT_THROW(kernel.solve(lanes, 10000), hmcs::LogicError)
        << kernel.name;
  }
}

}  // namespace
