// Behavioural tests of the validation simulator itself: reproducibility,
// routing accounting, warm-up handling, and the paper's run protocol.

#include <gtest/gtest.h>

#include <memory>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/simcore/warmup.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs;
using analytic::HeterogeneityCase;
using analytic::NetworkArchitecture;
using analytic::paper_scenario;
using sim::MultiClusterSim;
using sim::SimOptions;
using sim::SimResult;

analytic::SystemConfig small_config() {
  return paper_scenario(HeterogeneityCase::kCase1, 4,
                        NetworkArchitecture::kNonBlocking, 1024.0, 32, 1e-4);
}

SimOptions fast_options(std::uint64_t seed = 7) {
  SimOptions options;
  options.measured_messages = 3000;
  options.warmup_messages = 300;
  options.seed = seed;
  return options;
}

TEST(MultiClusterSim, SameSeedSameResult) {
  MultiClusterSim a(small_config(), fast_options());
  MultiClusterSim b(small_config(), fast_options());
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  EXPECT_DOUBLE_EQ(ra.mean_latency_us, rb.mean_latency_us);
  EXPECT_EQ(ra.events_executed, rb.events_executed);
  EXPECT_DOUBLE_EQ(ra.window_duration_us, rb.window_duration_us);
}

TEST(MultiClusterSim, DifferentSeedsDiffer) {
  MultiClusterSim a(small_config(), fast_options(1));
  MultiClusterSim b(small_config(), fast_options(2));
  EXPECT_NE(a.run().mean_latency_us, b.run().mean_latency_us);
}

TEST(MultiClusterSim, MeasuresExactlyRequestedMessages) {
  MultiClusterSim simulator(small_config(), fast_options());
  const SimResult result = simulator.run();
  EXPECT_EQ(result.messages_measured, 3000u);
  EXPECT_GT(result.window_duration_us, 0.0);
  EXPECT_GT(result.events_executed, 3000u);
}

TEST(MultiClusterSim, RemoteFractionMatchesEq8) {
  // C=4, N0=8: P = 24/31.
  MultiClusterSim simulator(small_config(), fast_options());
  const SimResult result = simulator.run();
  EXPECT_NEAR(result.remote_fraction, 24.0 / 31.0, 0.03);
}

TEST(MultiClusterSim, RemoteMessagesSlowerThanLocal) {
  MultiClusterSim simulator(small_config(), fast_options());
  const SimResult result = simulator.run();
  EXPECT_GT(result.mean_remote_latency_us, result.mean_local_latency_us);
  // Overall mean lies between the two class means.
  EXPECT_GT(result.mean_latency_us, result.mean_local_latency_us);
  EXPECT_LT(result.mean_latency_us, result.mean_remote_latency_us);
}

TEST(MultiClusterSim, SingleClusterHasNoRemoteTraffic) {
  const auto config = paper_scenario(HeterogeneityCase::kCase1, 1,
                                     NetworkArchitecture::kNonBlocking,
                                     1024.0, 32, 1e-4);
  MultiClusterSim simulator(config, fast_options());
  const SimResult result = simulator.run();
  EXPECT_DOUBLE_EQ(result.remote_fraction, 0.0);
  EXPECT_EQ(result.ecn1.departures, 0u);
  EXPECT_EQ(result.icn2.departures, 0u);
  EXPECT_EQ(result.icn1.departures, 3000u);
}

TEST(MultiClusterSim, FullyDispersedHasOnlyRemoteTraffic) {
  const auto config = paper_scenario(HeterogeneityCase::kCase1, 32,
                                     NetworkArchitecture::kNonBlocking,
                                     1024.0, 32, 1e-4);
  MultiClusterSim simulator(config, fast_options());
  const SimResult result = simulator.run();
  EXPECT_DOUBLE_EQ(result.remote_fraction, 1.0);
  EXPECT_EQ(result.icn1.departures, 0u);
  // Each remote message crosses two ECN1 stations and ICN2 once; a few
  // messages straddle the measurement-window edges.
  EXPECT_NEAR(static_cast<double>(result.icn2.departures),
              static_cast<double>(result.ecn1.departures) / 2.0, 40.0);
}

TEST(MultiClusterSim, EffectiveRateBelowOffered) {
  // Heavy load: the closed loop throttles sources (assumption 4).
  const auto config = paper_scenario(HeterogeneityCase::kCase1, 4,
                                     NetworkArchitecture::kNonBlocking,
                                     1024.0, 256, analytic::kPaperRatePerUs);
  MultiClusterSim simulator(config, fast_options());
  const SimResult result = simulator.run();
  EXPECT_LT(result.effective_rate_per_us, config.generation_rate_per_us);
  EXPECT_GT(result.total_avg_queue_length, 1.0);
}

TEST(MultiClusterSim, DeterministicServiceReducesVariance) {
  auto deterministic = small_config();
  deterministic.scenario.service_cv2 = 0.0;
  MultiClusterSim a(small_config(), fast_options());
  MultiClusterSim b(deterministic, fast_options());
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  // M/D/1 waits are shorter than M/M/1 (PK formula halves the queue).
  EXPECT_LT(rb.mean_latency_us, ra.mean_latency_us);
}

TEST(MultiClusterSim, PrecisionStoppingTightensTheInterval) {
  auto fixed = fast_options();
  fixed.measured_messages = 1000;

  auto precise = fast_options();
  precise.measured_messages = 1000;  // minimum only
  precise.target_relative_ci = 0.01;
  precise.message_cap = 200000;

  MultiClusterSim fixed_sim(small_config(), fixed);
  MultiClusterSim precise_sim(small_config(), precise);
  const SimResult fixed_result = fixed_sim.run();
  const SimResult precise_result = precise_sim.run();

  EXPECT_GT(precise_result.messages_measured,
            fixed_result.messages_measured);
  EXPECT_LE(precise_result.latency_ci.half_width,
            0.0105 * precise_result.mean_latency_us);
  EXPECT_GT(fixed_result.latency_ci.half_width,
            precise_result.latency_ci.half_width);
}

TEST(MultiClusterSim, MessageCapBoundsPrecisionRuns) {
  auto options = fast_options();
  options.measured_messages = 500;
  options.target_relative_ci = 1e-6;  // unreachable
  options.message_cap = 3000;
  MultiClusterSim simulator(small_config(), options);
  const SimResult result = simulator.run();
  EXPECT_EQ(result.messages_measured, 3000u);
}

TEST(MultiClusterSim, HistogramAvailableAfterRun) {
  MultiClusterSim simulator(small_config(), fast_options());
  EXPECT_THROW(simulator.latency_histogram(), hmcs::ConfigError);
  const SimResult result = simulator.run();
  const auto& histogram = simulator.latency_histogram();
  EXPECT_EQ(histogram.count(), result.messages_measured);
  EXPECT_EQ(histogram.overflow(), 0u);
}

TEST(MultiClusterSim, DefaultWarmupSurvivesMserAudit) {
  // Run with NO warm-up, then let MSER find the transient: it should be
  // comfortably below the protocol's default 2000-message discard,
  // confirming the paper's fixed warm-up is adequate at this scale.
  const auto config = paper_scenario(HeterogeneityCase::kCase1, 4,
                                     NetworkArchitecture::kNonBlocking,
                                     1024.0, 256, analytic::kPaperRatePerUs);
  SimOptions options;
  options.measured_messages = 12000;
  options.warmup_messages = 0;
  options.seed = 77;
  MultiClusterSim simulator(config, options);
  EXPECT_THROW(simulator.measured_latencies(), hmcs::ConfigError);
  simulator.run();
  const auto analysis =
      hmcs::simcore::mser_warmup(simulator.measured_latencies());
  EXPECT_LT(analysis.truncation_samples, 2000u);
}

TEST(MultiClusterSim, RunIsSingleShot) {
  MultiClusterSim simulator(small_config(), fast_options());
  simulator.run();
  EXPECT_THROW(simulator.run(), hmcs::ConfigError);
}

TEST(MultiClusterSim, MaxEventsGuardTrips) {
  auto options = fast_options();
  options.max_events = 100;  // far too few to finish
  MultiClusterSim simulator(small_config(), options);
  EXPECT_THROW(simulator.run(), hmcs::ConfigError);
}

TEST(MultiClusterSim, CustomTrafficPatternIsHonoured) {
  auto options = fast_options();
  const auto space = workload::NodeSpace::uniform(4, 8);
  options.traffic = std::make_shared<workload::LocalizedTraffic>(space, 1.0);
  MultiClusterSim simulator(small_config(), options);
  const SimResult result = simulator.run();
  EXPECT_DOUBLE_EQ(result.remote_fraction, 0.0);
}

TEST(MultiClusterSim, HeterogeneousConfigRuns) {
  // Ragged clusters are a hand-built depth-2 tree on the same engine.
  using analytic::ModelNode;
  const ModelNode big = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(12, 1e-4)});
  const ModelNode small = ModelNode::internal(
      analytic::fast_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(4, 2e-4)});
  analytic::ModelTree tree;
  tree.root = ModelNode::internal(analytic::fast_ethernet(), {big, small});
  tree.switch_params = {24, 10.0};
  tree.architecture = analytic::NetworkArchitecture::kNonBlocking;
  tree.message_bytes = 512.0;

  sim::TreeSim simulator(tree, fast_options());
  const SimResult result = simulator.run();
  EXPECT_GT(result.mean_latency_us, 0.0);
  // P for ragged clusters: weighted mix; sanity-bound it.
  EXPECT_GT(result.remote_fraction, 0.2);
  EXPECT_LT(result.remote_fraction, 0.9);
}

TEST(MultiClusterSim, RejectsDegenerateRuns) {
  // A one-node system has no possible destinations: its configuration
  // is refused, and so is a simulator built from it unvalidated.
  EXPECT_THROW(paper_scenario(HeterogeneityCase::kCase1, 1,
                              NetworkArchitecture::kNonBlocking, 1024.0, 1,
                              1e-4),
               hmcs::ConfigError);
  auto one_node = paper_scenario(HeterogeneityCase::kCase1, 1,
                                 NetworkArchitecture::kNonBlocking, 1024.0, 2,
                                 1e-4);
  one_node.nodes_per_cluster = 1;
  EXPECT_THROW(MultiClusterSim(one_node, fast_options()), hmcs::ConfigError);
}

}  // namespace
