// The paper's validation claim, as a test: across the experiment grid
// (both heterogeneity cases, both architectures, several cluster counts
// and message sizes), the analytical prediction tracks the simulation.
//
// Two analytical variants are checked: the exact-MVA model must agree
// tightly everywhere (the simulator is the closed network MVA solves);
// the paper's eq. (6)-(7) approximation is held to a looser bound and is
// allowed its known weak spot (partial saturation at small C, where the
// open-network approximation misallocates queueing between centres —
// EXPERIMENTS.md quantifies this).

#include <gtest/gtest.h>

#include <string>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/analytic/workload.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/util/math_util.hpp"

namespace {

using namespace hmcs;
using analytic::HeterogeneityCase;
using analytic::NetworkArchitecture;

struct GridPoint {
  HeterogeneityCase hetero;
  NetworkArchitecture architecture;
  std::uint32_t clusters;
  double message_bytes;
};

class ModelVsSim : public ::testing::TestWithParam<GridPoint> {};

TEST_P(ModelVsSim, MvaTracksSimulation) {
  const GridPoint& point = GetParam();
  const analytic::SystemConfig config =
      analytic::paper_scenario(point.hetero, point.clusters,
                               point.architecture, point.message_bytes);

  analytic::ModelOptions mva;
  mva.fixed_point.method = analytic::SourceThrottling::kExactMva;
  const auto closed = analytic::predict_latency(config, mva);
  const auto open = analytic::predict_latency(config);

  sim::SimOptions options;
  options.measured_messages = 8000;
  options.warmup_messages = 2000;
  options.seed = 20240615 + point.clusters;
  sim::MultiClusterSim simulator(config, options);
  const auto result = simulator.run();

  // Exact MVA: tight agreement. The gap is simulation noise plus the
  // single-class collapse: each processor's messages leave from its own
  // cluster, so the simulated network has one customer class per
  // cluster, which the single-class MVA averages (a bias of at most
  // about 1.5% on the figure grid, docs/MODEL.md section 7).
  EXPECT_LT(relative_error(closed.mean_latency_us, result.mean_latency_us),
            0.10)
      << "MVA " << closed.mean_latency_us << " vs sim "
      << result.mean_latency_us;

  // Paper's approximation: correct order and shape everywhere; the known
  // partial-saturation weak spot is bounded rather than exact.
  EXPECT_LT(relative_error(open.mean_latency_us, result.mean_latency_us), 0.55)
      << "open model " << open.mean_latency_us << " vs sim "
      << result.mean_latency_us;

  // Throughput view: MVA's effective rate matches the measured one.
  EXPECT_LT(relative_error(closed.lambda_effective,
                           result.effective_rate_per_us),
            0.10);
}

std::string grid_name(const ::testing::TestParamInfo<GridPoint>& param_info) {
  const GridPoint& p = param_info.param;
  std::string name = p.hetero == HeterogeneityCase::kCase1 ? "case1" : "case2";
  name += p.architecture == NetworkArchitecture::kNonBlocking ? "_fattree"
                                                              : "_chain";
  name += "_C" + std::to_string(p.clusters);
  name += "_M" + std::to_string(static_cast<int>(p.message_bytes));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, ModelVsSim,
    ::testing::Values(
        GridPoint{HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 1, 1024.0},
        GridPoint{HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 2, 1024.0},
        GridPoint{HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 16, 512.0},
        GridPoint{HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 256, 1024.0},
        GridPoint{HeterogeneityCase::kCase2, NetworkArchitecture::kNonBlocking, 4, 512.0},
        GridPoint{HeterogeneityCase::kCase2, NetworkArchitecture::kNonBlocking, 64, 1024.0},
        GridPoint{HeterogeneityCase::kCase1, NetworkArchitecture::kBlocking, 4, 512.0},
        GridPoint{HeterogeneityCase::kCase1, NetworkArchitecture::kBlocking, 32, 1024.0},
        GridPoint{HeterogeneityCase::kCase2, NetworkArchitecture::kBlocking, 8, 1024.0},
        GridPoint{HeterogeneityCase::kCase2, NetworkArchitecture::kBlocking, 128, 512.0}),
    grid_name);

TEST(ModelVsSim, OpenLoopSimMatchesUncorrectedJacksonModel) {
  // Assumption 4 removed on both sides: open Poisson sources in the
  // simulator against SourceThrottling::kNone in the model. With every
  // centre stable the open Jackson network is exact, so the agreement
  // here isolates eq. (7) as the only approximation the paper adds.
  const analytic::SystemConfig config = analytic::paper_scenario(
      HeterogeneityCase::kCase1, 4, NetworkArchitecture::kNonBlocking,
      1024.0, 32, 1e-4);
  analytic::ModelOptions none;
  none.fixed_point.method = analytic::SourceThrottling::kNone;
  const auto open_model = analytic::predict_latency(config, none);

  sim::SimOptions options;
  options.measured_messages = 30000;
  options.warmup_messages = 3000;
  options.seed = 1234;
  options.closed_loop = false;
  sim::MultiClusterSim simulator(config, options);
  const auto result = simulator.run();

  EXPECT_LT(relative_error(open_model.mean_latency_us,
                           result.mean_latency_us),
            0.05)
      << "open model " << open_model.mean_latency_us << " vs open-loop sim "
      << result.mean_latency_us;
  // Open-loop throughput equals the offered rate (nothing throttles).
  EXPECT_LT(relative_error(result.effective_rate_per_us,
                           config.generation_rate_per_us),
            0.05);
}

TEST(ModelVsSim, DeterministicServiceMatchesMD1Model) {
  // cv^2 = 0 in the open model vs the simulator's deterministic service,
  // at moderate load where the PK term matters but nothing saturates.
  const analytic::SystemConfig config = analytic::paper_scenario(
      HeterogeneityCase::kCase1, 8, NetworkArchitecture::kNonBlocking, 1024.0,
      256, 25e-6);  // 25 msg/s
  analytic::SystemConfig deterministic = config;
  deterministic.scenario.service_cv2 = 0.0;
  const auto deterministic_model = analytic::predict_latency(deterministic);
  const auto exponential_model = analytic::predict_latency(config);

  sim::SimOptions options;
  options.measured_messages = 20000;
  options.warmup_messages = 4000;
  options.seed = 314;
  sim::MultiClusterSim simulator(deterministic, options);
  const auto result = simulator.run();

  EXPECT_LT(relative_error(deterministic_model.mean_latency_us,
                           result.mean_latency_us),
            0.06)
      << "M/D/1 model " << deterministic_model.mean_latency_us << " vs sim "
      << result.mean_latency_us;
  // And the M/D/1 model must beat the exponential one on this workload.
  EXPECT_LT(relative_error(deterministic_model.mean_latency_us,
                           result.mean_latency_us),
            relative_error(exponential_model.mean_latency_us,
                           result.mean_latency_us));
}

TEST(ModelVsSim, LowLoadLimitIsExact) {
  // At the literal Table 2 rate (0.25 msg/s) there is no queueing: both
  // model and simulation must sit on the bare service-time latency.
  const analytic::SystemConfig config = analytic::paper_scenario(
      HeterogeneityCase::kCase1, 8, NetworkArchitecture::kNonBlocking, 1024.0,
      256, analytic::kPaperLiteralRatePerUs);
  const auto prediction = analytic::predict_latency(config);

  sim::SimOptions options;
  options.measured_messages = 5000;
  options.warmup_messages = 500;
  sim::MultiClusterSim simulator(config, options);
  const auto result = simulator.run();
  EXPECT_LT(relative_error(prediction.mean_latency_us, result.mean_latency_us),
            0.03);
}

TEST(ModelVsSim, HyperexponentialServiceTracksAllenCunneen) {
  // cv^2 = 4 service on both sides: the simulator samples a balanced-
  // means H2 and the model prices it through Allen–Cunneen. The same
  // moderate-load grid point as the M/D/1 check, so the queueing term
  // matters without saturating.
  analytic::SystemConfig config = analytic::paper_scenario(
      HeterogeneityCase::kCase1, 8, NetworkArchitecture::kNonBlocking, 1024.0,
      256, 25e-6);
  config.scenario.service_cv2 = 4.0;
  const auto hyper_model = analytic::predict_latency(config);
  analytic::SystemConfig exponential = config;
  exponential.scenario = analytic::WorkloadScenario{};
  const auto exponential_model = analytic::predict_latency(exponential);

  sim::SimOptions options;
  options.measured_messages = 30000;
  options.warmup_messages = 5000;
  options.seed = 2718;
  sim::MultiClusterSim simulator(config, options);
  const auto result = simulator.run();

  EXPECT_LT(relative_error(hyper_model.mean_latency_us,
                           result.mean_latency_us),
            0.12)
      << "G/G/1 cv2=4 model " << hyper_model.mean_latency_us << " vs sim "
      << result.mean_latency_us;
  // Variability hurts on both sides of the fence.
  EXPECT_GT(result.mean_latency_us, exponential_model.mean_latency_us);
  EXPECT_GT(hyper_model.mean_latency_us, exponential_model.mean_latency_us);
}

TEST(ModelVsSim, MmppArrivalsTrackEffectiveCa2Model) {
  // 2-state MMPP sources in the simulator vs the analytic reduction to
  // an effective interarrival ca^2, compared open-loop (assumption 4
  // removed on both sides) so source burstiness reaches the queues —
  // closed-loop blocking throttles a bursting source structurally.
  // Small clusters keep the per-queue aggregation low; superposing many
  // independent MMPPs washes burstiness back toward Poisson while the
  // QNA-style model keeps the per-source SCV, so high aggregation is
  // exactly where the approximation is known to be pessimistic.
  analytic::SystemConfig config = analytic::paper_scenario(
      HeterogeneityCase::kCase1, 2, NetworkArchitecture::kNonBlocking, 1024.0,
      8, 3e-4);
  analytic::MmppArrivals mmpp;
  mmpp.burst_ratio = 8.0;
  mmpp.burst_fraction = 0.1;
  mmpp.burst_dwell_us = 5e4;
  config.scenario.mmpp = mmpp;
  analytic::ModelOptions none;
  none.fixed_point.method = analytic::SourceThrottling::kNone;
  const auto bursty_model = analytic::predict_latency(config, none);
  analytic::SystemConfig poisson = config;
  poisson.scenario = analytic::WorkloadScenario{};
  const auto poisson_model = analytic::predict_latency(poisson, none);
  // The scenario must actually engage: effective ca^2 > 1 raises the
  // prediction above the Poisson baseline.
  EXPECT_GT(bursty_model.mean_latency_us, poisson_model.mean_latency_us);

  sim::SimOptions options;
  options.measured_messages = 60000;
  options.warmup_messages = 8000;
  options.seed = 6021;
  options.closed_loop = false;
  sim::MultiClusterSim bursty_sim(config, options);
  const auto bursty_result = bursty_sim.run();
  sim::MultiClusterSim poisson_sim(poisson, options);
  const auto poisson_result = poisson_sim.run();

  // Burstiness measurably hurts in the simulation too (4-8% here).
  EXPECT_GT(bursty_result.mean_latency_us, poisson_result.mean_latency_us);
  EXPECT_LT(relative_error(bursty_model.mean_latency_us,
                           bursty_result.mean_latency_us),
            0.15)
      << "MMPP model " << bursty_model.mean_latency_us << " vs sim "
      << bursty_result.mean_latency_us;
}

TEST(ModelVsSim, FailureRepairTracksPerformabilityFold) {
  // Breakdown/repair on both sides: the simulator inflates each service
  // by Poisson(S/mtbf) exponential repairs, the model by the two-moment
  // completion-time fold. Frequent-but-cheap failures keep the DES
  // statistics dense.
  analytic::SystemConfig config = analytic::paper_scenario(
      HeterogeneityCase::kCase1, 8, NetworkArchitecture::kNonBlocking, 1024.0,
      256, 25e-6);
  config.scenario.failure = analytic::FailureRepair{1000.0, 100.0};
  const auto degraded_model = analytic::predict_latency(config);
  analytic::SystemConfig healthy = config;
  healthy.scenario = analytic::WorkloadScenario{};
  const auto healthy_model = analytic::predict_latency(healthy);
  EXPECT_GT(degraded_model.mean_latency_us, healthy_model.mean_latency_us);

  sim::SimOptions options;
  options.measured_messages = 30000;
  options.warmup_messages = 5000;
  options.seed = 40897;
  sim::MultiClusterSim simulator(config, options);
  const auto result = simulator.run();

  EXPECT_GT(result.mean_latency_us, healthy_model.mean_latency_us);
  EXPECT_LT(relative_error(degraded_model.mean_latency_us,
                           result.mean_latency_us),
            0.15)
      << "performability model " << degraded_model.mean_latency_us
      << " vs sim " << result.mean_latency_us;
}

TEST(ModelVsSim, HeteroModelTracksHeteroSimulation) {
  // The Cluster-of-Clusters extension, a depth-2 tree of unequal
  // clusters, validates against the same simulator running that tree.
  using analytic::ModelNode;
  const ModelNode big = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(24, 1e-4)});
  const ModelNode small = ModelNode::internal(
      analytic::fast_ethernet(), analytic::gigabit_ethernet(),
      {ModelNode::leaf(8, 2e-4)});
  analytic::ModelTree tree;
  tree.root =
      ModelNode::internal(analytic::fast_ethernet(), {big, small, small});
  tree.switch_params = {24, 10.0};
  tree.architecture = NetworkArchitecture::kNonBlocking;
  tree.message_bytes = 1024.0;

  analytic::TreeModelOptions open_options;
  open_options.fixed_point.method = analytic::SourceThrottling::kBisection;
  open_options.fixed_point.queue_rule = analytic::QueueLengthRule::kConsistent;
  const auto open = analytic::predict_model_tree(tree, open_options);
  analytic::TreeModelOptions amva_options;
  amva_options.fixed_point.method = analytic::SourceThrottling::kExactMva;
  const auto amva = analytic::predict_model_tree(tree, amva_options);

  sim::TreeSimOptions options;
  options.measured_messages = 10000;
  options.warmup_messages = 2000;
  options.seed = 99;
  sim::TreeSim simulator(tree, options);
  const auto result = simulator.run();

  EXPECT_LT(relative_error(open.mean_latency_us, result.mean_latency_us),
            0.15)
      << "hetero open model " << open.mean_latency_us << " vs sim "
      << result.mean_latency_us;
  // The multi-class AMVA extension should do at least as well, and
  // tightly in absolute terms.
  EXPECT_LT(relative_error(amva.mean_latency_us, result.mean_latency_us),
            0.08)
      << "hetero AMVA " << amva.mean_latency_us << " vs sim "
      << result.mean_latency_us;
}

}  // namespace
