#pragma once

/// \file multicluster_sim.hpp
/// The flat validation surface of Section 6: the Super-Cluster
/// SystemConfig lowered onto its depth-2 ModelTree
/// (ModelTree::from_system) and run by the tree engine in tree_sim.hpp.
/// A heterogeneous Cluster-of-Clusters is a hand-built depth-2 tree and
/// runs on TreeSim directly.
/// Messages traverse
///
///   local:   ICN1(cluster)
///   remote:  ECN1(source cluster) -> ICN2 -> ECN1(destination cluster)
///
/// with each network a FIFO service centre whose mean service time comes
/// from the same Section 5 formulas the analytical model uses (that is
/// the paper's validation setup: same parameters, stochastic execution).
/// Node ids are cluster * nodes_per_cluster + local index, the
/// numbering workload::NodeSpace and the traffic patterns use.

#include "hmcs/analytic/system_config.hpp"
#include "hmcs/sim/tree_sim.hpp"

namespace hmcs::sim {

class MultiClusterSim : public TreeSim {
 public:
  MultiClusterSim(const analytic::SystemConfig& config, SimOptions options);
};

}  // namespace hmcs::sim
