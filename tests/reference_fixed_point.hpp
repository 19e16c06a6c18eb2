#pragma once

// Test-only reference implementation of the blocked-source fixed point,
// eqs. (6)-(7): the plain scalar Picard and bisection loops over the
// public total_queue_length, and a predict_latency built on them and on
// the library's detail:: epilogues. The library runs every solve
// through one lockstep engine (src/analytic/src/fixed_point_engine.hpp);
// the bitwise BatchSolver pins compare it against this independent copy
// of the arithmetic. No validation, cancellation or residual trace: the
// library's own tests cover those.

#include <cmath>
#include <cstdint>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/system_config.hpp"
#include "hmcs/analytic/workload.hpp"

namespace hmcs::analytic::reference {

inline FixedPointResult solve_picard(const SystemConfig& config,
                                     const CenterServiceTimes& service,
                                     const FixedPointOptions& options) {
  const double lambda = config.generation_rate_per_us;
  const double n = static_cast<double>(config.total_nodes());
  double current = lambda;
  double queue = 0.0;
  for (std::uint32_t i = 1; i <= options.max_iterations; ++i) {
    queue = total_queue_length(config, service, current, options);
    const double candidate = lambda * (n - queue) / n;
    const double next = options.picard_damping * candidate +
                        (1.0 - options.picard_damping) * current;
    if (std::fabs(next - current) <= options.tolerance * lambda) {
      return FixedPointResult{
          next, total_queue_length(config, service, next, options), i, true};
    }
    current = next;
  }
  // Exhausted: the last iterate with the queue of the one before it.
  return FixedPointResult{current, queue, options.max_iterations, false};
}

inline FixedPointResult solve_bisection(const SystemConfig& config,
                                        const CenterServiceTimes& service,
                                        const FixedPointOptions& options) {
  const double lambda = config.generation_rate_per_us;
  const double n = static_cast<double>(config.total_nodes());
  const auto g = [&](double x) {
    return lambda * (n - total_queue_length(config, service, x, options)) /
               n -
           x;
  };
  // g(lambda) <= 0 always; g(lambda) == 0 means a load-free system.
  if (g(lambda) >= 0.0) {
    return FixedPointResult{
        lambda, total_queue_length(config, service, lambda, options), 1,
        true};
  }
  double lo = 0.0;  // g(0+) = lambda > 0
  double hi = lambda;
  std::uint32_t iterations = 0;
  while (iterations < options.max_iterations &&
         (hi - lo) > options.tolerance * lambda) {
    ++iterations;
    const double mid = 0.5 * (lo + hi);
    if (g(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // The stable side of the bracket (queue length finite).
  return FixedPointResult{lo, total_queue_length(config, service, lo, options),
                          iterations, (hi - lo) <= options.tolerance * lambda};
}

/// The fixed point of one configuration at its own rate, with `service`
/// used as given and the workload read from config.scenario, as
/// total_queue_length does.
inline FixedPointResult solve_effective_rate(
    const SystemConfig& config, const CenterServiceTimes& service,
    const FixedPointOptions& options = {}) {
  const double lambda = config.generation_rate_per_us;
  if (lambda == 0.0) return FixedPointResult{0.0, 0.0, 0, true};
  switch (options.method) {
    case SourceThrottling::kNone:
      return FixedPointResult{
          lambda, total_queue_length(config, service, lambda, options), 0,
          true};
    case SourceThrottling::kPicard:
      return reference::solve_picard(config, service, options);
    case SourceThrottling::kBisection:
      return reference::solve_bisection(config, service, options);
    case SourceThrottling::kExactMva: {
      const HmcsMvaClassLayout layout =
          build_hmcs_mva_class_layout(config, service);
      return detail::mva_fixed_point(
          layout,
          solve_closed_mva_classes(layout.classes, 1.0 / lambda,
                                   config.total_nodes()),
          config.total_nodes());
    }
  }
  return {};
}

/// predict_latency's contract: the config's workload scenario, an
/// MMPP's ca^2 resolved at its own rate; positive-rate kExactMva cells
/// take the closed-network epilogue, every other cell the open-network
/// one.
inline LatencyPrediction predict_latency(const SystemConfig& config,
                                         const ModelOptions& options = {}) {
  const double p =
      inter_cluster_probability(config.clusters, config.nodes_per_cluster);
  const CenterServiceTimes service = center_service_times(config);
  const FixedPointOptions& fp = options.fixed_point;
  if (fp.method == SourceThrottling::kExactMva &&
      config.generation_rate_per_us > 0.0) {
    const HmcsMvaClassLayout layout =
        build_hmcs_mva_class_layout(config, service);
    return detail::finish_mva_prediction(
        config, p, service, layout,
        solve_closed_mva_classes(layout.classes,
                                 1.0 / config.generation_rate_per_us,
                                 config.total_nodes()));
  }
  return detail::finish_open_prediction(
      config, p, service, reference::solve_effective_rate(config, service, fp),
      arrival_scv(config.scenario, config.generation_rate_per_us));
}

}  // namespace hmcs::analytic::reference
