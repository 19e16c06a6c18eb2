// Declarative sweep expansion: axis defaulting, cartesian nesting
// order, zipped lockstep, labels, and the deterministic seed chain.

#include <gtest/gtest.h>

#include "hmcs/runner/sweep_spec.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs;
using runner::AxisMode;
using runner::SweepPoint;
using runner::SweepSpec;
using runner::expand_sweep;

TEST(SweepSpec, EmptyAxesExpandToPaperDefaults) {
  const std::vector<SweepPoint> points = expand_sweep(SweepSpec{});
  std::size_t count = 0;
  const std::uint32_t* sweep = analytic::paper_cluster_sweep(&count);
  ASSERT_EQ(points.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].clusters, sweep[i]);
    EXPECT_DOUBLE_EQ(points[i].message_bytes, 1024.0);
    EXPECT_DOUBLE_EQ(points[i].lambda_per_us, analytic::kPaperRatePerUs);
    EXPECT_EQ(points[i].architecture,
              analytic::NetworkArchitecture::kNonBlocking);
    EXPECT_EQ(points[i].technology_label,
              analytic::to_string(analytic::HeterogeneityCase::kCase1));
    // Case 1 (Table 2): GE intra-cluster, FE everywhere else.
    EXPECT_EQ(points[i].config.icn1.name, analytic::gigabit_ethernet().name);
    EXPECT_EQ(points[i].config.ecn1.name, analytic::fast_ethernet().name);
    EXPECT_EQ(points[i].config.icn2.name, analytic::fast_ethernet().name);
  }
}

TEST(SweepSpec, CartesianOrderIsClustersMajorSizeMinor) {
  SweepSpec spec;
  spec.axes.clusters = {2, 4};
  spec.axes.message_bytes = {1024.0, 512.0};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].clusters, 2u);
  EXPECT_DOUBLE_EQ(points[0].message_bytes, 1024.0);
  EXPECT_EQ(points[1].clusters, 2u);
  EXPECT_DOUBLE_EQ(points[1].message_bytes, 512.0);
  EXPECT_EQ(points[2].clusters, 4u);
  EXPECT_DOUBLE_EQ(points[2].message_bytes, 1024.0);
  EXPECT_EQ(points[3].clusters, 4u);
  EXPECT_DOUBLE_EQ(points[3].message_bytes, 512.0);
}

TEST(SweepSpec, ConfigIsFullyBuilt) {
  SweepSpec spec;
  spec.axes.clusters = {8};
  spec.total_nodes = 64;
  spec.axes.architectures = {analytic::NetworkArchitecture::kBlocking};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].config.clusters, 8u);
  EXPECT_EQ(points[0].config.nodes_per_cluster, 8u);
  EXPECT_EQ(points[0].config.architecture,
            analytic::NetworkArchitecture::kBlocking);
  EXPECT_EQ(points[0].config.switch_params.ports, analytic::kPaperSwitchPorts);
}

TEST(SweepSpec, LabelIsFigureStyleForSingletonExtras) {
  SweepSpec spec;
  spec.id = "fig6";
  spec.axes.clusters = {16};
  spec.axes.message_bytes = {512.0};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "fig6 C=16 M=512");
}

TEST(SweepSpec, LabelGrowsSuffixesForVaryingExtras) {
  SweepSpec spec;
  spec.id = "s";
  spec.axes.clusters = {4};
  spec.axes.architectures = {analytic::NetworkArchitecture::kNonBlocking,
                             analytic::NetworkArchitecture::kBlocking};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label,
            std::string("s C=4 M=1024 ") +
                analytic::to_string(
                    analytic::NetworkArchitecture::kNonBlocking));
  EXPECT_EQ(points[1].label,
            std::string("s C=4 M=1024 ") +
                analytic::to_string(analytic::NetworkArchitecture::kBlocking));
}

TEST(SweepSpec, DefaultSeedMatchesSplitMixChain) {
  // The figures' historical derivation, kept bit-exact.
  simcore::SplitMix64 seed_mix(3);
  simcore::SplitMix64 cluster_mix(seed_mix.next() ^ 8u);
  simcore::SplitMix64 byte_mix(cluster_mix.next() ^
                               static_cast<std::uint64_t>(512.0));
  const std::uint64_t expected = byte_mix.next();
  EXPECT_EQ(runner::default_point_seed(3, 8, 512.0), expected);

  SweepSpec spec;
  spec.base_seed = 3;
  spec.axes.clusters = {8};
  spec.axes.message_bytes = {512.0};
  EXPECT_EQ(expand_sweep(spec)[0].seed, expected);
}

TEST(SweepSpec, ZippedWalksAxesInLockstep) {
  SweepSpec spec;
  spec.mode = AxisMode::kZipped;
  spec.axes.clusters = {2, 4, 8};
  spec.axes.message_bytes = {64.0, 256.0, 1024.0};
  spec.axes.architectures = {analytic::NetworkArchitecture::kBlocking};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(points[i].clusters, spec.axes.clusters[i]);
    EXPECT_DOUBLE_EQ(points[i].message_bytes, spec.axes.message_bytes[i]);
    // The singleton architecture axis broadcasts.
    EXPECT_EQ(points[i].architecture,
              analytic::NetworkArchitecture::kBlocking);
  }
}

TEST(SweepSpec, ZippedRejectsLengthMismatch) {
  SweepSpec spec;
  spec.mode = AxisMode::kZipped;
  spec.axes.clusters = {2, 4, 8};
  spec.axes.message_bytes = {64.0, 256.0};
  EXPECT_THROW(expand_sweep(spec), ConfigError);
}

TEST(SweepSpec, RejectsClustersNotDividingTotalNodes) {
  SweepSpec spec;
  spec.axes.clusters = {3};  // 256 % 3 != 0
  EXPECT_THROW(expand_sweep(spec), ConfigError);
}

}  // namespace
