#include "hmcs/runner/replication.hpp"

#include <algorithm>
#include <future>
#include <thread>
#include <vector>

#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::runner {

ReplicationResult run_replications(const analytic::ModelTree& tree,
                                   const sim::SimOptions& base_options,
                                   std::uint32_t replications,
                                   std::uint32_t parallelism) {
  require(replications >= 1, "run_replications: needs >= 1 replication");
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  parallelism = std::min(parallelism, replications);

  // Pre-derive every replication's seed so the result is independent of
  // scheduling order.
  simcore::SplitMix64 seeder(base_options.seed);
  std::vector<std::uint64_t> seeds(replications);
  for (auto& seed : seeds) seed = seeder.next();

  ReplicationResult result;
  result.replications.resize(replications);

  auto run_one = [&](std::uint32_t r) {
    sim::SimOptions options = base_options;
    options.seed = seeds[r];
    // Tracing is not thread-safe to share; replications drop it.
    options.trace.reset();
    sim::TreeSim simulator(tree, options);
    result.replications[r] = simulator.run();
  };

  if (parallelism == 1) {
    for (std::uint32_t r = 0; r < replications; ++r) run_one(r);
  } else {
    // Static block partition: each worker owns a contiguous range, so
    // there is no shared mutable state beyond the preallocated slots.
    std::vector<std::future<void>> workers;
    workers.reserve(parallelism);
    for (std::uint32_t w = 0; w < parallelism; ++w) {
      workers.push_back(std::async(std::launch::async, [&, w] {
        for (std::uint32_t r = w; r < replications; r += parallelism) {
          run_one(r);
        }
      }));
    }
    for (auto& worker : workers) worker.get();  // propagates exceptions
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

ReplicationResult run_replications(const analytic::SystemConfig& config,
                                   const sim::SimOptions& base_options,
                                   std::uint32_t replications,
                                   std::uint32_t parallelism) {
  return run_replications(analytic::ModelTree::from_system(config),
                          base_options, replications, parallelism);
}

}  // namespace hmcs::runner
