#pragma once

/// \file replication.hpp
/// Independent-replications methodology: run the simulator R times with
/// decorrelated seeds and build the confidence interval across the
/// replication means. This is the statistically sound way to interval a
/// steady-state simulation (batch means within one run being the cheap
/// approximation); the DES backend uses it when replications > 1, as
/// the Figure 4-7 configs do (configs/sweeps/fig{4,5,6,7}.json).

#include <cstdint>
#include <vector>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/system_config.hpp"
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

/// Runs `replications` >= 1 independent simulations; seeds are derived
/// from base_options.seed via splitmix so runs are decorrelated yet the
/// whole experiment reproduces from one seed. Replications execute on
/// up to `parallelism` threads (0 = hardware concurrency); each
/// simulator instance is thread-confined, so results are bit-identical
/// to a serial run regardless of the thread count.
ReplicationResult run_replications(const analytic::ModelTree& tree,
                                   const sim::SimOptions& base_options,
                                   std::uint32_t replications,
                                   std::uint32_t parallelism = 0);

/// The same on the config's depth-2 lowering (ModelTree::from_system).
ReplicationResult run_replications(const analytic::SystemConfig& config,
                                   const sim::SimOptions& base_options,
                                   std::uint32_t replications,
                                   std::uint32_t parallelism = 0);

}  // namespace hmcs::runner
