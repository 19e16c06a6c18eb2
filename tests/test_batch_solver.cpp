// Structure-of-arrays batch solver (batch_solver.hpp): bit-identity of
// predict_latency_batch's fixed points with the plain scalar loops of
// the test-only reference (reference_fixed_point.hpp) for every
// SourceThrottling method over a dense rate grid (idle, light, saturated
// cells), topology grouping, seeded randomized reference-vs-batch
// differential chunks, and cancellation/deadline unwinding.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "hmcs/analytic/batch_solver.hpp"
#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/mva.hpp"  // mva_lane_width
#include "hmcs/analytic/network_tech.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"
#include "reference_fixed_point.hpp"

namespace {

using namespace hmcs::analytic;

SystemConfig make_config(std::uint32_t clusters,
                         std::uint32_t nodes_per_cluster) {
  SystemConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = nodes_per_cluster;
  config.icn1 = gigabit_ethernet();
  config.ecn1 = fast_ethernet();
  config.icn2 = gigabit_ethernet();
  return config;
}

/// Idle cell, then a ramp from light load through deep saturation of
/// the ECN1 centre — the mix every equivalence test runs over. The tail
/// cells are far past saturation, where the Picard recurrence
/// oscillates and never converges.
std::vector<double> dense_rates() {
  std::vector<double> rates{0.0, 1e-5, 2e-5, 5e-5};  // Picard-friendly
  for (int i = 1; i <= 48; ++i) {
    rates.push_back(5e-3 * static_cast<double>(i) / 48.0);
  }
  return rates;
}

const SourceThrottling kAllMethods[] = {
    SourceThrottling::kNone, SourceThrottling::kPicard,
    SourceThrottling::kBisection, SourceThrottling::kExactMva};

const char* method_name(SourceThrottling method) {
  switch (method) {
    case SourceThrottling::kNone: return "none";
    case SourceThrottling::kPicard: return "picard";
    case SourceThrottling::kBisection: return "bisection";
    case SourceThrottling::kExactMva: return "mva";
  }
  return "?";
}

/// `base` at each of `rates`, in order: one same-topology group.
std::vector<SystemConfig> rate_grid(const SystemConfig& base,
                                    const std::vector<double>& rates) {
  std::vector<SystemConfig> grid(rates.size(), base);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    grid[i].generation_rate_per_us = rates[i];
  }
  return grid;
}

ModelOptions with_fixed_point(const FixedPointOptions& fixed_point) {
  ModelOptions options;
  options.fixed_point = fixed_point;
  return options;
}

// ---------------------------------------------------------------------
// Cold path: every cell of a group starts cold, so the batch solver's
// per-cell iterate sequence is arithmetic-identical to the reference's
// plain scalar loops, and all four fixed-point fields of each
// prediction match bitwise — converged or not.

TEST(BatchSolver, ColdPathIsBitIdenticalForEveryMethod) {
  const SystemConfig base = make_config(16, 8);
  const std::vector<SystemConfig> grid = rate_grid(base, dense_rates());
  const CenterServiceTimes service = center_service_times(base);

  for (const SourceThrottling method : kAllMethods) {
    FixedPointOptions options;
    options.method = method;
    const std::vector<LatencyPrediction> batch =
        predict_latency_batch(grid, with_fixed_point(options));
    ASSERT_EQ(batch.size(), grid.size());

    for (std::size_t i = 0; i < grid.size(); ++i) {
      const FixedPointResult scalar =
          reference::solve_effective_rate(grid[i], service, options);
      EXPECT_EQ(batch[i].lambda_effective, scalar.lambda_effective)
          << method_name(method) << " cell " << i;
      EXPECT_EQ(batch[i].total_queue_length, scalar.total_queue_length)
          << method_name(method) << " cell " << i;
      EXPECT_EQ(batch[i].fixed_point_iterations, scalar.iterations)
          << method_name(method) << " cell " << i;
      EXPECT_EQ(batch[i].fixed_point_converged, scalar.converged)
          << method_name(method) << " cell " << i;
    }
  }
}

TEST(BatchSolver, ColdPathHonoursNonDefaultSolverKnobs) {
  SystemConfig base = make_config(8, 4);
  base.scenario.service_cv2 = 0.0;  // deterministic service
  const std::vector<SystemConfig> grid = rate_grid(base, dense_rates());
  const CenterServiceTimes service = center_service_times(base);

  FixedPointOptions options;
  options.method = SourceThrottling::kPicard;
  options.picard_damping = 1.0;  // the paper's undamped recurrence
  options.queue_rule = QueueLengthRule::kConsistent;
  options.tolerance = 1e-9;
  options.max_iterations = 50;

  const std::vector<LatencyPrediction> batch =
      predict_latency_batch(grid, with_fixed_point(options));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const FixedPointResult scalar =
        reference::solve_effective_rate(grid[i], service, options);
    EXPECT_EQ(batch[i].lambda_effective, scalar.lambda_effective) << i;
    EXPECT_EQ(batch[i].fixed_point_iterations, scalar.iterations) << i;
    EXPECT_EQ(batch[i].fixed_point_converged, scalar.converged) << i;
  }
}

// ---------------------------------------------------------------------
// Structural cases.

TEST(BatchSolver, ZeroRateCellsShortCircuit) {
  const std::vector<SystemConfig> grid =
      rate_grid(make_config(4, 4), {0.0, 0.0, 1e-4, 0.0});
  for (const SourceThrottling method : kAllMethods) {
    ModelOptions options;
    options.fixed_point.method = method;
    const std::vector<LatencyPrediction> batch =
        predict_latency_batch(grid, options);
    for (const std::size_t i : {0u, 1u, 3u}) {
      EXPECT_EQ(batch[i].lambda_effective, 0.0) << method_name(method);
      EXPECT_EQ(batch[i].total_queue_length, 0.0) << method_name(method);
      EXPECT_EQ(batch[i].fixed_point_iterations, 0u) << method_name(method);
      EXPECT_TRUE(batch[i].fixed_point_converged) << method_name(method);
    }
    EXPECT_GT(batch[2].lambda_effective, 0.0) << method_name(method);
  }
}

TEST(BatchSolver, EmptyGridReturnsEmpty) {
  EXPECT_TRUE(predict_latency_batch(std::vector<SystemConfig>{}).empty());
}

TEST(BatchSolver, RejectsInvalidCellRates) {
  const SystemConfig base = make_config(4, 4);
  EXPECT_THROW(predict_latency_batch(rate_grid(base, {1e-4, -1e-4})),
               hmcs::ConfigError);
  EXPECT_THROW(predict_latency_batch(rate_grid(base, {std::nan("")})),
               hmcs::ConfigError);
}

TEST(BatchSolver, RejectsWarmStarts) {
  // Every solve starts cold; BatchOptions keeps only the spelling of a
  // cold call, {false}, which behaves like the two-argument call.
  const std::vector<SystemConfig> grid =
      rate_grid(make_config(4, 4), {1e-4, 2e-4});
  EXPECT_THROW(predict_latency_batch(grid, ModelOptions{}, BatchOptions{true}),
               hmcs::ConfigError);
  const std::vector<LatencyPrediction> cold =
      predict_latency_batch(grid, ModelOptions{}, BatchOptions{false});
  const std::vector<LatencyPrediction> plain = predict_latency_batch(grid);
  ASSERT_EQ(cold.size(), plain.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].mean_latency_us, plain[i].mean_latency_us) << i;
  }
}

TEST(BatchSolver, MvaIterationsReportPopulationSteps) {
  // The exact-MVA path reports one recursion step per customer; the
  // field is 64-bit so total_nodes >= 2^32 cannot truncate.
  static_assert(sizeof(FixedPointResult{}.iterations) == 8);
  static_assert(sizeof(LatencyPrediction{}.fixed_point_iterations) == 8);
  const std::vector<SystemConfig> grid =
      rate_grid(make_config(4, 8), {1e-4, 2e-4});  // 32 nodes
  ModelOptions options;
  options.fixed_point.method = SourceThrottling::kExactMva;
  const std::vector<LatencyPrediction> batch =
      predict_latency_batch(grid, options);
  EXPECT_EQ(batch[0].fixed_point_iterations, 32u);
  EXPECT_EQ(batch[1].fixed_point_iterations, 32u);
}

// ---------------------------------------------------------------------
// predict_latency_batch: contiguous same-topology runs are grouped; the
// per-cell epilogue is the one the reference predict_latency uses, so
// the cold batch is bit-identical cell for cell across mixed-topology
// inputs — including singleton groups and the kExactMva path.

TEST(BatchSolver, PredictBatchMatchesScalarAcrossMixedTopologies) {
  const SystemConfig small = make_config(4, 8);
  const SystemConfig large = make_config(16, 8);
  SystemConfig big_message = small;
  big_message.message_bytes = 4096.0;

  std::vector<SystemConfig> configs;
  for (int i = 0; i < 10; ++i) {  // a ten-cell group
    SystemConfig cell = small;
    cell.generation_rate_per_us = 1e-4 * static_cast<double>(i);
    configs.push_back(cell);
  }
  for (int i = 0; i < 3; ++i) {
    SystemConfig cell = large;
    cell.generation_rate_per_us = 5e-5 * static_cast<double>(i + 1);
    configs.push_back(cell);
  }
  configs.push_back(big_message);  // singleton group
  configs.push_back(small);       // regrouping after the singleton

  for (const SourceThrottling method : kAllMethods) {
    ModelOptions options;
    options.fixed_point.method = method;
    const std::vector<LatencyPrediction> batch =
        predict_latency_batch(configs, options);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const LatencyPrediction scalar =
          reference::predict_latency(configs[i], options);
      EXPECT_EQ(batch[i].mean_latency_us, scalar.mean_latency_us)
          << method_name(method) << " cell " << i;
      EXPECT_EQ(batch[i].lambda_offered, scalar.lambda_offered);
      EXPECT_EQ(batch[i].lambda_effective, scalar.lambda_effective);
      EXPECT_EQ(batch[i].total_queue_length, scalar.total_queue_length);
      EXPECT_EQ(batch[i].fixed_point_converged,
                scalar.fixed_point_converged);
      EXPECT_EQ(batch[i].fixed_point_iterations,
                scalar.fixed_point_iterations);
      EXPECT_EQ(batch[i].icn1.response_time_us, scalar.icn1.response_time_us);
      EXPECT_EQ(batch[i].ecn1.queue_length, scalar.ecn1.queue_length);
      EXPECT_EQ(batch[i].icn2.utilization, scalar.icn2.utilization);
    }
  }
}

TEST(BatchSolver, ScenarioCellsMatchScalarBitwise) {
  // A non-default workload scenario (G/G/1 cs^2 and ca^2 plus the
  // failure/repair fold) threads through the SoA group constants; the
  // cold batch path must still be arithmetic-identical to the scalar
  // solver, cell by cell.
  SystemConfig base = make_config(8, 8);
  base.scenario.service_cv2 = 4.0;
  base.scenario.arrival_ca2 = 2.0;
  base.scenario.failure = FailureRepair{5e5, 2e3};

  std::vector<SystemConfig> configs;
  for (int i = 0; i < 12; ++i) {
    SystemConfig cell = base;
    cell.generation_rate_per_us = 1e-4 * static_cast<double>(i);
    configs.push_back(cell);
  }

  for (const SourceThrottling method :
       {SourceThrottling::kNone, SourceThrottling::kPicard,
        SourceThrottling::kBisection}) {
    ModelOptions options;
    options.fixed_point.method = method;
    const std::vector<LatencyPrediction> batch =
        predict_latency_batch(configs, options);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const LatencyPrediction scalar =
          reference::predict_latency(configs[i], options);
      EXPECT_EQ(batch[i].mean_latency_us, scalar.mean_latency_us)
          << method_name(method) << " cell " << i;
      EXPECT_EQ(batch[i].lambda_effective, scalar.lambda_effective);
      EXPECT_EQ(batch[i].total_queue_length, scalar.total_queue_length);
      EXPECT_EQ(batch[i].fixed_point_iterations,
                scalar.fixed_point_iterations);
    }
  }
}

TEST(BatchSolver, MmppCellsResolvePerCellArrivalScv) {
  // The MMPP effective ca^2 is rate-dependent, so the batch solver must
  // resolve it per cell — matching the scalar path at every rate.
  SystemConfig base = make_config(4, 8);
  base.scenario.mmpp = MmppArrivals{6.0, 0.15, 5e3};

  std::vector<SystemConfig> configs;
  for (int i = 0; i < 10; ++i) {
    SystemConfig cell = base;
    cell.generation_rate_per_us = 5e-5 * static_cast<double>(i);
    configs.push_back(cell);
  }

  const std::vector<LatencyPrediction> batch =
      predict_latency_batch(configs);
  ASSERT_EQ(batch.size(), configs.size());
  double previous_scv = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const LatencyPrediction scalar = reference::predict_latency(configs[i]);
    EXPECT_EQ(batch[i].mean_latency_us, scalar.mean_latency_us) << i;
    EXPECT_EQ(batch[i].lambda_effective, scalar.lambda_effective) << i;
    // And the per-cell SCV really varies across the grid.
    const double scv = mmpp_arrival_scv(*base.scenario.mmpp,
                                        configs[i].generation_rate_per_us);
    if (i > 1) {
      EXPECT_GT(scv, previous_scv) << i;
    }
    previous_scv = scv;
  }
}

TEST(BatchSolver, MvaRejectsNonProductFormScenarios) {
  // Exact MVA is product-form only: the batch path refuses the same
  // scenarios the scalar path refuses, rather than mispricing them, and
  // the tree path refuses them too — non-exponential service at any
  // load, an idle cell included.
  SystemConfig base = make_config(4, 4);
  base.scenario.service_cv2 = 2.0;
  base.generation_rate_per_us = 1e-4;
  ModelOptions mva;
  mva.fixed_point.method = SourceThrottling::kExactMva;
  TreeModelOptions tree_mva;
  tree_mva.fixed_point = mva.fixed_point;
  std::vector<SystemConfig> configs{base};
  EXPECT_THROW(predict_latency_batch(configs, mva), hmcs::ConfigError);
  EXPECT_THROW(predict_model_tree(ModelTree::from_system(base), tree_mva),
               hmcs::ConfigError);

  SystemConfig idle = base;
  idle.scenario.service_cv2 = 4.0;
  idle.generation_rate_per_us = 0.0;
  configs = {idle};
  EXPECT_THROW(predict_latency_batch(configs, mva), hmcs::ConfigError);
  EXPECT_THROW(predict_model_tree(ModelTree::from_system(idle), tree_mva),
               hmcs::ConfigError);

  base.scenario = WorkloadScenario{};
  base.scenario.mmpp = MmppArrivals{};
  configs = {base};
  EXPECT_THROW(predict_latency_batch(configs, mva), hmcs::ConfigError);
  EXPECT_THROW(predict_model_tree(ModelTree::from_system(base), tree_mva),
               hmcs::ConfigError);
}

TEST(BatchSolver, PredictBatchValidatesEveryCell) {
  SystemConfig bad = make_config(4, 4);
  bad.generation_rate_per_us = -1.0;
  std::vector<SystemConfig> configs{make_config(4, 4), bad};
  EXPECT_THROW(predict_latency_batch(configs), hmcs::ConfigError);
}

TEST(BatchSolver, ResidualTraceIsRecordedByOneCellCallsOnly) {
  // One buffer cannot hold interleaved traces: a one-cell call records
  // its solve's residuals, a larger batch leaves the buffer alone.
  SystemConfig cell = make_config(16, 8);
  cell.generation_rate_per_us = 2e-4;
  std::vector<double> residuals{-1.0};
  ModelOptions options;
  options.fixed_point.residual_trace = &residuals;
  const LatencyPrediction one = predict_latency(cell, options);
  EXPECT_GT(residuals.size(), 1u);
  EXPECT_EQ(residuals.size(), one.fixed_point_iterations);

  residuals.assign(1, -1.0);
  predict_latency_batch(std::vector<SystemConfig>{cell, cell}, options);
  ASSERT_EQ(residuals.size(), 1u);
  EXPECT_EQ(residuals[0], -1.0);
}

// ---------------------------------------------------------------------
// Differential: seeded random chunks — clusters, nodes per cluster, both
// technology cases, both architectures, message sizes and rates, with
// zero-rate cells and two populations interleaved — must come out of the
// batch path bit for bit as from the reference predict_latency, for
// every method.
// The chunk lengths straddle the MVA lane width.

/// Bitwise equality, so -0.0 vs 0.0 and NaN payloads count too.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_center(const CenterPrediction& a, const CenterPrediction& b,
                        const std::string& where) {
  EXPECT_TRUE(same_bits(a.arrival_rate, b.arrival_rate)) << where;
  EXPECT_TRUE(same_bits(a.service_rate, b.service_rate)) << where;
  EXPECT_TRUE(same_bits(a.utilization, b.utilization)) << where;
  EXPECT_TRUE(same_bits(a.response_time_us, b.response_time_us)) << where;
  EXPECT_TRUE(same_bits(a.queue_length, b.queue_length)) << where;
}

void expect_same_service(const ServiceTimeBreakdown& a,
                         const ServiceTimeBreakdown& b,
                         const std::string& where) {
  EXPECT_TRUE(same_bits(a.link_latency_us, b.link_latency_us)) << where;
  EXPECT_TRUE(same_bits(a.switch_latency_us, b.switch_latency_us)) << where;
  EXPECT_TRUE(same_bits(a.transmission_us, b.transmission_us)) << where;
  EXPECT_TRUE(same_bits(a.blocking_us, b.blocking_us)) << where;
}

/// Every LatencyPrediction field, bit for bit.
void expect_same_prediction(const LatencyPrediction& a,
                            const LatencyPrediction& b,
                            const std::string& where) {
  EXPECT_TRUE(same_bits(a.mean_latency_us, b.mean_latency_us)) << where;
  EXPECT_TRUE(same_bits(a.inter_cluster_probability,
                        b.inter_cluster_probability))
      << where;
  EXPECT_TRUE(same_bits(a.lambda_offered, b.lambda_offered)) << where;
  EXPECT_TRUE(same_bits(a.lambda_effective, b.lambda_effective)) << where;
  EXPECT_TRUE(same_bits(a.total_queue_length, b.total_queue_length))
      << where;
  EXPECT_EQ(a.fixed_point_converged, b.fixed_point_converged) << where;
  EXPECT_EQ(a.fixed_point_iterations, b.fixed_point_iterations) << where;
  expect_same_center(a.icn1, b.icn1, where + " icn1");
  expect_same_center(a.ecn1, b.ecn1, where + " ecn1");
  expect_same_center(a.icn2, b.icn2, where + " icn2");
  expect_same_service(a.service_times.icn1, b.service_times.icn1,
                      where + " service icn1");
  expect_same_service(a.service_times.ecn1, b.service_times.ecn1,
                      where + " service ecn1");
  expect_same_service(a.service_times.icn2, b.service_times.icn2,
                      where + " service icn2");
}

/// One random cell: a population of 256 or 96 nodes (interleaved), a
/// cluster count dividing it, either technology case and architecture,
/// a message size in [64, 8192) bytes and, one time in five, rate 0.
SystemConfig random_cell(std::mt19937_64& rng) {
  static constexpr std::uint32_t kDivisors256[] = {1, 2, 4, 8, 16, 32, 64,
                                                   128, 256};
  static constexpr std::uint32_t kDivisors96[] = {1, 2, 3, 4, 6, 8,
                                                  12, 16, 24, 32, 48, 96};
  const bool large = std::bernoulli_distribution(0.5)(rng);
  const std::uint32_t population = large ? 256 : 96;
  const std::uint32_t clusters =
      large ? kDivisors256[std::uniform_int_distribution<std::size_t>(0, 8)(
                  rng)]
            : kDivisors96[std::uniform_int_distribution<std::size_t>(0, 11)(
                  rng)];
  const HeterogeneityCase hetero = std::bernoulli_distribution(0.5)(rng)
                                       ? HeterogeneityCase::kCase1
                                       : HeterogeneityCase::kCase2;
  const NetworkArchitecture architecture =
      std::bernoulli_distribution(0.5)(rng) ? NetworkArchitecture::kNonBlocking
                                            : NetworkArchitecture::kBlocking;
  const double bytes = std::uniform_real_distribution<double>(64.0, 8192.0)(rng);
  // Log-uniform in [1e-6, 5e-3] msg/us: idle through deep saturation.
  const double rate =
      std::bernoulli_distribution(0.2)(rng)
          ? 0.0
          : 1e-6 * std::pow(5e3, std::uniform_real_distribution<double>(
                                      0.0, 1.0)(rng));
  return paper_scenario(hetero, clusters, architecture, bytes, population,
                        rate);
}

TEST(BatchSolver, RandomChunksMatchScalarBitwiseForEveryMethod) {
  std::mt19937_64 rng(20261017);
  const std::size_t lanes = mva_lane_width();
  for (const std::size_t length :
       {std::size_t{1}, lanes - 1, lanes, lanes + 1, std::size_t{256}}) {
    std::vector<SystemConfig> chunk;
    for (std::size_t i = 0; i < length; ++i) chunk.push_back(random_cell(rng));

    for (const SourceThrottling method : kAllMethods) {
      ModelOptions options;
      options.fixed_point.method = method;
      const std::vector<LatencyPrediction> batch =
          predict_latency_batch(chunk, options);
      ASSERT_EQ(batch.size(), chunk.size());
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        expect_same_prediction(batch[i],
                               reference::predict_latency(chunk[i], options),
                               std::string(method_name(method)) + " length " +
                                   std::to_string(length) + " cell " +
                                   std::to_string(i));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Cancellation: the batch solvers poll FixedPointOptions::cancel like
// their scalar counterparts, so per-cell deadlines bound even
// population-2^20 MVA batches.

TEST(BatchSolver, CancelledTokenUnwindsTheLockstepSolvers) {
  const std::vector<SystemConfig> grid =
      rate_grid(make_config(16, 8), dense_rates());
  hmcs::util::CancelToken token;
  token.cancel();
  for (const SourceThrottling method :
       {SourceThrottling::kPicard, SourceThrottling::kBisection,
        SourceThrottling::kExactMva}) {
    ModelOptions options;
    options.fixed_point.method = method;
    options.fixed_point.cancel = &token;
    EXPECT_THROW(predict_latency_batch(grid, options), hmcs::Cancelled)
        << method_name(method);
  }
}

TEST(BatchSolver, DeadlineBoundsTheMvaBatch) {
  // total_nodes = 2^20
  const std::vector<SystemConfig> grid =
      rate_grid(make_config(1024, 1024), {1e-4, 2e-4, 3e-4});
  hmcs::util::CancelToken token;
  token.set_deadline_after_ms(1e-6);
  ModelOptions options;
  options.fixed_point.method = SourceThrottling::kExactMva;
  options.fixed_point.cancel = &token;
  EXPECT_THROW(predict_latency_batch(grid, options), hmcs::DeadlineExceeded);
}

}  // namespace
