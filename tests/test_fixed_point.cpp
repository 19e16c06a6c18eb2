// The blocked-source fixed point, eqs. (6)-(7): solver agreement,
// self-consistency, saturation throttling, and the queue-length rules.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs::analytic;

SystemConfig light_config() {
  // Low load: throttling should be negligible.
  return paper_scenario(HeterogeneityCase::kCase1, 4,
                        NetworkArchitecture::kNonBlocking, 1024.0, 256,
                        kPaperLiteralRatePerUs);  // 0.25 msg/s
}

SystemConfig heavy_config() {
  // The paper's headline rate saturates the FE egress path.
  return paper_scenario(HeterogeneityCase::kCase1, 4,
                        NetworkArchitecture::kNonBlocking, 1024.0, 256,
                        kPaperRatePerUs);  // 0.25 msg/ms
}

/// The fixed point as predict_latency reports it, under `options`.
LatencyPrediction solve(const SystemConfig& config,
                        const FixedPointOptions& options = {}) {
  ModelOptions model;
  model.fixed_point = options;
  return predict_latency(config, model);
}

TEST(FixedPoint, LightLoadKeepsOfferedRate) {
  const SystemConfig config = light_config();
  const LatencyPrediction result = solve(config);
  EXPECT_TRUE(result.fixed_point_converged);
  EXPECT_NEAR(result.lambda_effective, config.generation_rate_per_us,
              1e-3 * config.generation_rate_per_us);
  // At 0.25 msg/s total offered work is ~0.06% of capacity; only a few
  // hundredths of a customer are ever queued system-wide.
  EXPECT_LT(result.total_queue_length, 0.1);
}

TEST(FixedPoint, HeavyLoadThrottles) {
  const SystemConfig config = heavy_config();
  const LatencyPrediction result = solve(config);
  EXPECT_TRUE(result.fixed_point_converged);
  EXPECT_LT(result.lambda_effective, 0.5 * config.generation_rate_per_us);
  EXPECT_GT(result.total_queue_length, 10.0);
  EXPECT_LE(result.total_queue_length,
            static_cast<double>(config.total_nodes()));
}

TEST(FixedPoint, SolutionIsSelfConsistent) {
  // lambda_eff == lambda * (N - L(lambda_eff)) / N at the returned point.
  for (const auto hetero : {HeterogeneityCase::kCase1, HeterogeneityCase::kCase2}) {
    for (const std::uint32_t clusters : {1u, 2u, 16u, 256u}) {
      const SystemConfig config = paper_scenario(
          hetero, clusters, NetworkArchitecture::kNonBlocking, 1024.0);
      const LatencyPrediction result = solve(config);
      const double n = static_cast<double>(config.total_nodes());
      const double recomputed =
          config.generation_rate_per_us * (n - result.total_queue_length) / n;
      EXPECT_NEAR(result.lambda_effective, recomputed,
                  1e-4 * config.generation_rate_per_us)
          << "C=" << clusters;
    }
  }
}

TEST(FixedPoint, PicardAgreesWithBisectionWhenItConverges) {
  const SystemConfig config = light_config();
  FixedPointOptions picard;
  picard.method = SourceThrottling::kPicard;
  FixedPointOptions bisect;
  bisect.method = SourceThrottling::kBisection;
  const LatencyPrediction a = solve(config, picard);
  const LatencyPrediction b = solve(config, bisect);
  ASSERT_TRUE(a.fixed_point_converged);
  EXPECT_NEAR(a.lambda_effective, b.lambda_effective,
              1e-6 * config.generation_rate_per_us);
}

TEST(FixedPoint, DampedPicardHandlesModerateLoad) {
  SystemConfig config = heavy_config();
  config.generation_rate_per_us = 0.4e-4;  // rho just under saturation
  FixedPointOptions picard;
  picard.method = SourceThrottling::kPicard;
  picard.picard_damping = 0.3;
  picard.max_iterations = 5000;
  picard.tolerance = 1e-10;
  const LatencyPrediction a = solve(config, picard);
  const LatencyPrediction b = solve(config);
  if (a.fixed_point_converged) {
    EXPECT_NEAR(a.lambda_effective, b.lambda_effective,
                0.02 * config.generation_rate_per_us);
  }
}

TEST(FixedPoint, NoneReturnsOfferedRate) {
  const SystemConfig config = heavy_config();
  FixedPointOptions none;
  none.method = SourceThrottling::kNone;
  const LatencyPrediction result = solve(config, none);
  EXPECT_DOUBLE_EQ(result.lambda_effective, config.generation_rate_per_us);
  // At the raw rate the FE path is saturated: L snaps to N.
  EXPECT_DOUBLE_EQ(result.total_queue_length,
                   static_cast<double>(config.total_nodes()));
}

TEST(FixedPoint, MvaAgreesWithBisectionAtLightLoad) {
  const SystemConfig config = light_config();
  FixedPointOptions mva;
  mva.method = SourceThrottling::kExactMva;
  const LatencyPrediction a = solve(config, mva);
  const LatencyPrediction b = solve(config);
  EXPECT_NEAR(a.lambda_effective, b.lambda_effective,
              1e-3 * config.generation_rate_per_us);
}

TEST(FixedPoint, QueueRuleEq6CountsEcn1Twice) {
  const SystemConfig config = heavy_config();
  const CenterServiceTimes service = center_service_times(config);
  const double rate = 0.3e-4;  // below saturation so L is finite
  FixedPointOptions paper_rule;
  paper_rule.queue_rule = QueueLengthRule::kPaperEq6;
  FixedPointOptions consistent_rule;
  consistent_rule.queue_rule = QueueLengthRule::kConsistent;
  const double paper = total_queue_length(config, service, rate, paper_rule);
  const double consistent =
      total_queue_length(config, service, rate, consistent_rule);
  EXPECT_GT(paper, consistent);
}

TEST(FixedPoint, EffectiveRateMonotoneInOfferedRate) {
  double previous = 0.0;
  for (const double rate : {0.5e-4, 1e-4, 2e-4, 4e-4, 8e-4}) {
    SystemConfig config = heavy_config();
    config.generation_rate_per_us = rate;
    const double eff = solve(config).lambda_effective;
    EXPECT_GE(eff, previous - 1e-12);
    EXPECT_LE(eff, rate);
    previous = eff;
  }
}

TEST(FixedPoint, ZeroGenerationRateConvergesAtZero) {
  // lambda == 0 used to divide the Picard residual by lambda (NaN) and
  // make the tolerance test a vacuous `<= 0`; all solvers now return
  // the exact answer — converged at 0 in 0 iterations — and the
  // residual trace stays empty and finite.
  SystemConfig config = light_config();
  config.generation_rate_per_us = 0.0;
  config.validate();  // zero load is a valid configuration

  for (const SourceThrottling method :
       {SourceThrottling::kPicard, SourceThrottling::kBisection,
        SourceThrottling::kExactMva, SourceThrottling::kNone}) {
    FixedPointOptions options;
    options.method = method;
    std::vector<double> residuals;
    options.residual_trace = &residuals;
    const LatencyPrediction result = solve(config, options);
    EXPECT_TRUE(result.fixed_point_converged) << static_cast<int>(method);
    EXPECT_DOUBLE_EQ(result.lambda_effective, 0.0);
    EXPECT_DOUBLE_EQ(result.total_queue_length, 0.0);
    EXPECT_EQ(result.fixed_point_iterations, 0u);
    for (const double r : residuals) EXPECT_FALSE(std::isnan(r));
  }
}

/// The ConfigError message `solve` throws, or "" when it returns.
template <class Solve>
std::string config_error(Solve solve) {
  try {
    solve();
  } catch (const hmcs::ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(FixedPoint, Validation) {
  // Both analytic entry points run one check of the solver options: the
  // tree, given the flat-shaped tree of the same config, refuses every
  // bad option with the same error as predict_latency.
  const SystemConfig config = paper_scenario(
      HeterogeneityCase::kCase1, 8, NetworkArchitecture::kNonBlocking, 1024.0);
  const ModelTree tree = ModelTree::from_system(config);
  FixedPointOptions tolerance;  // bisection
  tolerance.tolerance = 0.0;
  FixedPointOptions iterations;
  iterations.method = SourceThrottling::kPicard;
  iterations.max_iterations = 0;
  FixedPointOptions no_damping;
  no_damping.method = SourceThrottling::kPicard;
  no_damping.picard_damping = 0.0;
  FixedPointOptions overdamped;
  overdamped.method = SourceThrottling::kPicard;
  overdamped.picard_damping = 1.5;
  for (const FixedPointOptions& bad :
       {tolerance, iterations, no_damping, overdamped}) {
    const std::string flat = config_error([&] { solve(config, bad); });
    EXPECT_NE(flat, "");
    TreeModelOptions options;
    options.fixed_point = bad;
    EXPECT_EQ(config_error([&] { predict_model_tree(tree, options); }), flat);
  }
  const CenterServiceTimes service = center_service_times(config);
  EXPECT_THROW(total_queue_length(config, service, -1.0, FixedPointOptions{}),
               hmcs::ConfigError);
}

}  // namespace
