#pragma once

/// \file replication.hpp
/// Independent-replications methodology: run the simulator R times with
/// decorrelated seeds and build the confidence interval across the
/// replication means. This is the statistically sound way to interval a
/// steady-state simulation (batch means within one run being the cheap
/// approximation). It is the DES backend's one seeding protocol, at any
/// R, as the Figure 4-7 configs use it
/// (configs/sweeps/fig{4,5,6,7}.json).

#include <cstdint>
#include <vector>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/simcore/tally.hpp"

namespace hmcs::runner {

struct ReplicationResult {
  /// Grand mean of the per-replication mean latencies (microseconds).
  double mean_latency_us = 0.0;
  /// CI across replication means (Student-t, R-1 df).
  simcore::ConfidenceInterval latency_ci{0.0, 0.0, 0.0};
  /// Mean of the per-replication effective rates.
  double effective_rate_per_us = 0.0;
  std::vector<sim::SimResult> replications;
};

/// Runs `replications` >= 1 independent simulations of `tree`, one
/// after another; seeds are derived from base_options.seed via
/// splitmix so runs are decorrelated yet the whole experiment
/// reproduces from one seed. Flat configs pass their depth-2 lowering
/// (ModelTree::from_system). Replications run serially: the sweep's
/// points already use the machine.
ReplicationResult run_replications(const analytic::ModelTree& tree,
                                   const sim::SimOptions& base_options,
                                   std::uint32_t replications);

}  // namespace hmcs::runner
