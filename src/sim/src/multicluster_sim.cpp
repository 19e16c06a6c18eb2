#include "hmcs/sim/multicluster_sim.hpp"

#include <utility>

namespace hmcs::sim {

MultiClusterSim::MultiClusterSim(const analytic::SystemConfig& config,
                                 SimOptions options)
    : TreeSim(analytic::ModelTree::from_system(config), std::move(options)) {}

}  // namespace hmcs::sim
