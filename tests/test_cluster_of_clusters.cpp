// Heterogeneous Cluster-of-Clusters (the paper's future work) as a
// hand-built depth-2 ModelTree: reduction to the Super-Cluster model for
// identical clusters, and qualitative behaviour for genuinely
// heterogeneous ones.

#include <gtest/gtest.h>

#include <algorithm>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/tree_model.hpp"

namespace {

using namespace hmcs::analytic;

/// One cluster: intra network, egress to the backbone, one leaf group.
ModelNode cluster(std::uint32_t nodes, const NetworkTechnology& icn1,
                  const NetworkTechnology& ecn1, double rate_per_us) {
  return ModelNode::internal(icn1, ecn1,
                             {ModelNode::leaf(nodes, rate_per_us)});
}

ModelTree depth2_tree(const NetworkTechnology& icn2,
                      std::vector<ModelNode> clusters) {
  ModelTree tree;
  tree.root = ModelNode::internal(icn2, std::move(clusters));
  tree.switch_params = {24, 10.0};
  tree.architecture = NetworkArchitecture::kNonBlocking;
  tree.message_bytes = 1024.0;
  return tree;
}

ModelTree hetero_tree() {
  // Two big GE clusters + two small FE clusters behind a FE backbone.
  const ModelNode fast =
      cluster(32, gigabit_ethernet(), fast_ethernet(), 1e-4);
  const ModelNode slow = cluster(8, fast_ethernet(), fast_ethernet(), 0.5e-4);
  return depth2_tree(fast_ethernet(), {fast, fast, slow, slow});
}

/// `super` as identical clusters behind its ICN2.
ModelTree identical_clusters(const SystemConfig& super) {
  ModelTree tree = depth2_tree(
      super.icn2,
      std::vector<ModelNode>(super.clusters,
                             cluster(super.nodes_per_cluster, super.icn1,
                                     super.ecn1,
                                     super.generation_rate_per_us)));
  tree.switch_params = super.switch_params;
  tree.architecture = super.architecture;
  tree.message_bytes = super.message_bytes;
  return tree;
}

/// The open-network model: eq. (7) by bisection, each centre counted once.
TreeLatencyPrediction open_model(const ModelTree& tree) {
  TreeModelOptions options;
  options.fixed_point.method = SourceThrottling::kBisection;
  options.fixed_point.queue_rule = QueueLengthRule::kConsistent;
  return predict_model_tree(tree, options);
}

/// Multi-class Bard-Schweitzer AMVA on heterogeneous trees (exact MVA on
/// identical clusters).
TreeLatencyPrediction amva(const ModelTree& tree) {
  TreeModelOptions options;
  options.fixed_point.method = SourceThrottling::kExactMva;
  return predict_model_tree(tree, options);
}

// Centres in tree_centers order: ICN2, then ICN1_i / ECN1_i per cluster.
const TreeCenterPrediction& icn2(const TreeLatencyPrediction& prediction) {
  return prediction.centers[0];
}
const TreeCenterPrediction& ecn1(const TreeLatencyPrediction& prediction,
                                 std::size_t cluster_index) {
  return prediction.centers[2 + 2 * cluster_index];
}

void set_rates(ModelTree& tree, double rate_per_us) {
  for (ModelNode& child : tree.root.children) {
    child.children.front().generation_rate_per_us = rate_per_us;
  }
}

TEST(ClusterOfClusters, HomogeneousReductionMatchesSuperClusterModel) {
  // Identical clusters must reproduce the Super-Cluster prediction (with
  // the consistent ECN1 accounting and the same bisection fixed point).
  for (const std::uint32_t clusters : {2u, 4u, 8u}) {
    const SystemConfig super = paper_scenario(
        HeterogeneityCase::kCase1, clusters,
        NetworkArchitecture::kNonBlocking, 1024.0, 64, 1e-4);
    ModelOptions options;
    options.fixed_point.queue_rule = QueueLengthRule::kConsistent;
    const LatencyPrediction expected = predict_latency(super, options);

    const TreeLatencyPrediction actual =
        open_model(identical_clusters(super));

    EXPECT_NEAR(actual.mean_latency_us, expected.mean_latency_us,
                1e-6 * expected.mean_latency_us)
        << "C=" << clusters;
    for (const double per_cluster : actual.per_leaf_latency_us) {
      EXPECT_NEAR(per_cluster, expected.mean_latency_us,
                  1e-6 * expected.mean_latency_us);
    }
    EXPECT_NEAR(actual.effective_rate_scale,
                expected.lambda_effective / expected.lambda_offered,
                1e-6);
  }
}

TEST(ClusterOfClusters, AmvaHomogeneousReductionMatchesExactMva) {
  // Identical clusters form a uniform tree, so kExactMva takes the
  // station-class exact MVA, not the multi-class AMVA, and must land on
  // the Super-Cluster exact-MVA prediction.
  const SystemConfig super = paper_scenario(
      HeterogeneityCase::kCase1, 4, NetworkArchitecture::kNonBlocking,
      1024.0, 128, 2e-4);
  ModelOptions options;
  options.fixed_point.method = SourceThrottling::kExactMva;
  const LatencyPrediction exact = predict_latency(super, options);

  const TreeLatencyPrediction approx = amva(identical_clusters(super));
  EXPECT_TRUE(approx.fixed_point_converged);
  EXPECT_NEAR(approx.mean_latency_us, exact.mean_latency_us,
              0.05 * exact.mean_latency_us);
  EXPECT_NEAR(icn2(approx).utilization, exact.icn2.utilization, 0.05);
}

TEST(ClusterOfClusters, AmvaHandlesSaturationGracefully) {
  ModelTree tree = hetero_tree();
  set_rates(tree, 1e-2);
  const TreeLatencyPrediction prediction = amva(tree);
  EXPECT_TRUE(prediction.fixed_point_converged);
  EXPECT_LT(prediction.effective_rate_scale, 0.5);
  for (std::size_t i = 0; i < tree.root.children.size(); ++i) {
    EXPECT_LT(ecn1(prediction, i).utilization, 1.0 + 1e-9);
  }
}

TEST(ClusterOfClusters, SlowClusterSeesHigherLocalLatency) {
  const TreeLatencyPrediction prediction = open_model(hetero_tree());
  // Clusters 0/1 have GE intra networks; 2/3 have FE. Their source
  // latencies must reflect that.
  EXPECT_LT(prediction.per_leaf_latency_us[0],
            prediction.per_leaf_latency_us[2]);
  EXPECT_NEAR(prediction.per_leaf_latency_us[0],
              prediction.per_leaf_latency_us[1], 1e-9);
}

TEST(ClusterOfClusters, MeanIsGenerationWeighted) {
  const TreeLatencyPrediction prediction = open_model(hetero_tree());
  double lo = prediction.per_leaf_latency_us[0];
  double hi = lo;
  for (const double v : prediction.per_leaf_latency_us) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(prediction.mean_latency_us, lo);
  EXPECT_LE(prediction.mean_latency_us, hi);
}

TEST(ClusterOfClusters, IngressEgressBalanceAtIcn2) {
  // Everything leaving the clusters passes ICN2 exactly once.
  const ModelTree tree = hetero_tree();
  const TreeLatencyPrediction prediction = open_model(tree);
  double ecn1_total = 0.0;
  for (std::size_t i = 0; i < tree.root.children.size(); ++i) {
    ecn1_total += ecn1(prediction, i).arrival_rate;
  }
  EXPECT_NEAR(ecn1_total, 2.0 * icn2(prediction).arrival_rate, 1e-12);
}

TEST(ClusterOfClusters, ThrottlesUnderHeavyLoad) {
  ModelTree tree = hetero_tree();
  set_rates(tree, 1e-2);
  const TreeLatencyPrediction prediction = open_model(tree);
  EXPECT_TRUE(prediction.fixed_point_converged);
  EXPECT_LT(prediction.effective_rate_scale, 0.5);
  EXPECT_GT(prediction.mean_latency_us, 0.0);
}

}  // namespace
