#include "hmcs/runner/replication.hpp"

#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::runner {

ReplicationResult run_replications(const analytic::ModelTree& tree,
                                   const sim::SimOptions& base_options,
                                   std::uint32_t replications) {
  require(replications >= 1, "run_replications: needs >= 1 replication");
  simcore::SplitMix64 seeder(base_options.seed);
  ReplicationResult result;
  result.replications.reserve(replications);
  for (std::uint32_t r = 0; r < replications; ++r) {
    sim::SimOptions options = base_options;
    options.seed = seeder.next();
    // One lifecycle recorder cannot tell replications apart; they drop
    // it.
    options.trace.reset();
    result.replications.push_back(sim::TreeSim(tree, options).run());
  }

  simcore::Tally means;
  simcore::Tally rates;
  for (const sim::SimResult& run : result.replications) {
    means.add(run.mean_latency_us);
    rates.add(run.effective_rate_per_us);
  }
  result.mean_latency_us = means.mean();
  result.effective_rate_per_us = rates.mean();
  if (replications >= 2) {
    result.latency_ci = means.confidence_interval();
  } else {
    result.latency_ci = result.replications.front().latency_ci;
  }
  return result;
}

}  // namespace hmcs::runner
