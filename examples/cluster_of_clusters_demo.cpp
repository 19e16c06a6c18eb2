// Cluster-of-Clusters demo — the paper's future-work extension made
// concrete: an LLNL-style conglomerate of four unequal clusters (the
// paper cites MCR / ALC / Thunder / PVC) with different sizes, network
// technologies, and generation rates, built as a depth-2 ModelTree. The
// tree model predicts per-cluster and overall latency; the tree
// simulator validates it.
//
//   $ ./cluster_of_clusters_demo

#include <cstdio>
#include <iostream>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

namespace {

using namespace hmcs;
using namespace hmcs::analytic;

/// One cluster: its intra network, its egress to the backbone, and one
/// group of processors generating at `rate_per_s`.
ModelNode cluster(const char* name, std::uint32_t nodes,
                  NetworkTechnology icn1, NetworkTechnology ecn1,
                  double rate_per_s) {
  return ModelNode::internal(
      std::move(icn1), std::move(ecn1),
      {ModelNode::leaf(nodes, units::per_s_to_per_us(rate_per_s))}, name);
}

/// The open-network model: the eq. (7) fixed point by bisection, with
/// each centre counted once in eq. (6) (the rule under which identical
/// clusters reduce exactly to the Super-Cluster model). kExactMva on a
/// heterogeneous tree is the multi-class AMVA instead.
TreeLatencyPrediction solve(const ModelTree& tree, SourceThrottling method) {
  TreeModelOptions options;
  options.fixed_point.method = method;
  if (method == SourceThrottling::kBisection) {
    options.fixed_point.queue_rule = QueueLengthRule::kConsistent;
  }
  return predict_model_tree(tree, options);
}

}  // namespace

int main() {
  try {
    // Four clusters loosely modelled on the LLNL conglomerate the paper
    // cites: two large compute clusters, one premium-interconnect
    // cluster, one small visualisation cluster.
    ModelTree tree;
    tree.root = ModelNode::internal(
        gigabit_ethernet(),
        {cluster("MCR-like", 96, gigabit_ethernet(), fast_ethernet(), 60.0),
         cluster("ALC-like", 64, gigabit_ethernet(), fast_ethernet(), 60.0),
         cluster("Thunder-like", 64, myrinet(), gigabit_ethernet(), 120.0),
         cluster("PVC-like", 32, fast_ethernet(), fast_ethernet(), 30.0)});
    tree.switch_params = {24, 10.0};
    tree.architecture = NetworkArchitecture::kNonBlocking;
    tree.message_bytes = 1024.0;

    // Centres in tree_centers order: ICN2, then ICN1/ECN1 per cluster.
    const TreeLatencyPrediction prediction =
        solve(tree, SourceThrottling::kBisection);
    const std::vector<ModelNode>& clusters = tree.root.children;
    std::printf("cluster-of-clusters: %llu nodes in %zu clusters\n\n",
                static_cast<unsigned long long>(tree.total_processors()),
                clusters.size());

    Table table({"cluster", "nodes", "ICN1", "rate (msg/s)",
                 "source latency (ms)", "ICN1 util", "ECN1 util"});
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      const ModelNode& group = clusters[i].children.front();
      table.add_row(
          {clusters[i].name, std::to_string(group.processors),
           clusters[i].network.name,
           format_fixed(units::per_us_to_per_s(group.generation_rate_per_us),
                        0),
           format_fixed(units::us_to_ms(prediction.per_leaf_latency_us[i]), 3),
           format_fixed(prediction.centers[1 + 2 * i].utilization, 3),
           format_fixed(prediction.centers[2 + 2 * i].utilization, 3)});
    }
    std::cout << table;
    std::printf("\nICN2 utilization          : %.3f\n",
                prediction.centers[0].utilization);
    std::printf("effective-rate scale (eq.7): %.3f\n",
                prediction.effective_rate_scale);
    std::printf("overall mean latency      : %.3f ms (open-network model)\n",
                units::us_to_ms(prediction.mean_latency_us));

    const TreeLatencyPrediction amva =
        solve(tree, SourceThrottling::kExactMva);
    std::printf("overall mean latency      : %.3f ms (multi-class AMVA)\n",
                units::us_to_ms(amva.mean_latency_us));

    sim::TreeSimOptions options;
    options.measured_messages = 20000;
    options.warmup_messages = 4000;
    options.seed = 2005;
    sim::TreeSim simulator(tree, options);
    const sim::TreeSimResult result = simulator.run();
    std::printf("overall mean latency      : %.3f ms (simulation, "
                "95%% CI ±%.3f)\n",
                units::us_to_ms(result.mean_latency_us),
                units::us_to_ms(result.latency_ci.half_width));
    std::printf("model vs simulation       : %+.1f%%\n",
                100.0 *
                    (units::us_to_ms(prediction.mean_latency_us) -
                     units::us_to_ms(result.mean_latency_us)) /
                    units::us_to_ms(result.mean_latency_us));
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
