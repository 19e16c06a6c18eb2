// Independent-replications framework.

#include <gtest/gtest.h>

#include "hmcs/analytic/scenario.hpp"
#include "hmcs/runner/replication.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs;
using runner::ReplicationResult;
using runner::run_replications;

analytic::ModelTree small_tree() {
  return analytic::ModelTree::from_system(analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, 4,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0, 32, 1e-4));
}

sim::SimOptions fast_options() {
  sim::SimOptions options;
  options.measured_messages = 2000;
  options.warmup_messages = 200;
  options.seed = 11;
  return options;
}

TEST(Replication, RunsRequestedCount) {
  const ReplicationResult result =
      run_replications(small_tree(), fast_options(), 4);
  ASSERT_EQ(result.replications.size(), 4u);
  for (const auto& run : result.replications) {
    EXPECT_EQ(run.messages_measured, 2000u);
  }
}

TEST(Replication, ReplicationsAreDecorrelated) {
  const ReplicationResult result =
      run_replications(small_tree(), fast_options(), 3);
  EXPECT_NE(result.replications[0].mean_latency_us,
            result.replications[1].mean_latency_us);
  EXPECT_NE(result.replications[1].mean_latency_us,
            result.replications[2].mean_latency_us);
}

TEST(Replication, GrandMeanIsMeanOfMeans) {
  const ReplicationResult result =
      run_replications(small_tree(), fast_options(), 3);
  double sum = 0.0;
  for (const auto& run : result.replications) sum += run.mean_latency_us;
  EXPECT_NEAR(result.mean_latency_us, sum / 3.0, 1e-9);
}

TEST(Replication, ReproducibleFromBaseSeed) {
  const ReplicationResult a =
      run_replications(small_tree(), fast_options(), 3);
  const ReplicationResult b =
      run_replications(small_tree(), fast_options(), 3);
  EXPECT_DOUBLE_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_DOUBLE_EQ(a.latency_ci.half_width, b.latency_ci.half_width);
}

TEST(Replication, IntervalCoversReplicationSpread) {
  const ReplicationResult result =
      run_replications(small_tree(), fast_options(), 5);
  EXPECT_GT(result.latency_ci.half_width, 0.0);
  EXPECT_LE(result.latency_ci.lower, result.mean_latency_us);
  EXPECT_GE(result.latency_ci.upper, result.mean_latency_us);
}

TEST(Replication, SingleReplicationFallsBackToWithinRunCi) {
  const ReplicationResult result =
      run_replications(small_tree(), fast_options(), 1);
  EXPECT_DOUBLE_EQ(result.latency_ci.half_width,
                   result.replications[0].latency_ci.half_width);
}

TEST(Replication, RejectsZeroReplications) {
  EXPECT_THROW(run_replications(small_tree(), fast_options(), 0),
               ConfigError);
}

TEST(Replication, PercentilesOrdered) {
  const ReplicationResult result =
      run_replications(small_tree(), fast_options(), 1);
  const auto& run = result.replications[0];
  EXPECT_LE(run.min_latency_us, run.p50_latency_us);
  EXPECT_LE(run.p50_latency_us, run.p95_latency_us);
  EXPECT_LE(run.p95_latency_us, run.p99_latency_us);
  EXPECT_LE(run.p99_latency_us, run.max_latency_us);
  // Mean above median for right-skewed latency distributions.
  EXPECT_GT(run.mean_latency_us, 0.0);
}

}  // namespace
