#include "hmcs/analytic/fixed_point.hpp"

#include <algorithm>
#include <cmath>

#include "hmcs/analytic/arrival_rates.hpp"
#include "hmcs/analytic/mm1.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/obs/metrics.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

double total_queue_length(const SystemConfig& config,
                          const CenterServiceTimes& service,
                          double lambda_effective, QueueLengthRule rule,
                          double service_cv2) {
  FixedPointOptions options;
  options.queue_rule = rule;
  options.service_cv2 = service_cv2;
  return total_queue_length(config, service, lambda_effective, options);
}

double total_queue_length(const SystemConfig& config,
                          const CenterServiceTimes& service,
                          double lambda_effective,
                          const FixedPointOptions& options) {
  require(lambda_effective >= 0.0, "total_queue_length: rate must be >= 0");
  const double n = static_cast<double>(config.total_nodes());
  const double p =
      inter_cluster_probability(config.clusters, config.nodes_per_cluster);
  const ArrivalRates rates = compute_arrival_rates(
      config.clusters, config.nodes_per_cluster, p, lambda_effective);

  // Breakdowns inflate every centre's completion time (same cv^2 knob
  // the samplers realise); identity when failures are disabled.
  const EffectiveService icn1 = effective_service(
      service.icn1.service_rate(), options.service_cv2, options);
  const EffectiveService ecn1 = effective_service(
      service.ecn1.service_rate(), options.service_cv2, options);
  const EffectiveService icn2 = effective_service(
      service.icn2.service_rate(), options.service_cv2, options);
  const double ca2 = options.arrival_ca2;
  const double l_icn1 =
      gg1::number_in_system(rates.icn1, icn1.mu, ca2, icn1.cs2);
  const double l_ecn1 =
      gg1::number_in_system(rates.ecn1, ecn1.mu, ca2, ecn1.cs2);
  const double l_icn2 =
      gg1::number_in_system(rates.icn2, icn2.mu, ca2, icn2.cs2);
  if (std::isinf(l_icn1) || std::isinf(l_ecn1) || std::isinf(l_icn2)) {
    return n;  // a saturated centre eventually blocks every source
  }

  const double c = static_cast<double>(config.clusters);
  const double ecn1_weight =
      (options.queue_rule == QueueLengthRule::kPaperEq6) ? 2.0 : 1.0;
  const double total = c * (ecn1_weight * l_ecn1 + l_icn1) + l_icn2;
  return std::min(total, n);
}

FixedPointOptions with_scenario(const FixedPointOptions& options,
                                const WorkloadScenario& scenario,
                                double mean_rate_per_us) {
  FixedPointOptions out = options;
  if (scenario.service_cv2 != 1.0) out.service_cv2 = scenario.service_cv2;
  if (scenario.mmpp.has_value()) {
    // Evaluated once at the offered per-source rate and held fixed
    // through the fixed point: the modulation is a property of the
    // sources, not of the throttled throughput.
    out.arrival_ca2 = mmpp_arrival_scv(*scenario.mmpp, mean_rate_per_us);
  } else if (scenario.arrival_ca2 != 1.0) {
    out.arrival_ca2 = scenario.arrival_ca2;
  }
  if (scenario.failure.has_value()) {
    out.failure_mtbf_us = scenario.failure->mtbf_us;
    out.failure_mttr_us = scenario.failure->mttr_us;
  }
  return out;
}

namespace {

FixedPointResult solve_none(const SystemConfig& config,
                            const CenterServiceTimes& service,
                            const FixedPointOptions& options) {
  return FixedPointResult{
      config.generation_rate_per_us,
      total_queue_length(config, service, config.generation_rate_per_us,
                         options),
      0, true};
}

/// lambda == 0 short-circuit shared by the iterative solvers: a source
/// that never generates has lambda_eff = 0 and an empty system, and the
/// solvers' lambda-relative residuals and tolerances (|next - current| /
/// lambda, tolerance * lambda) are 0/0 = NaN and a vacuous `<= 0` test
/// there. Converged at 0 in 0 iterations, by definition.
FixedPointResult zero_rate_result() { return FixedPointResult{0.0, 0.0, 0, true}; }

FixedPointResult solve_picard(const SystemConfig& config,
                              const CenterServiceTimes& service,
                              const FixedPointOptions& options) {
  const double lambda = config.generation_rate_per_us;
  if (lambda == 0.0) return zero_rate_result();
  const double n = static_cast<double>(config.total_nodes());
  double current = lambda;
  double queue = 0.0;
  for (std::uint32_t i = 1; i <= options.max_iterations; ++i) {
    if (options.cancel != nullptr) options.cancel->check("fixed_point");
    queue = total_queue_length(config, service, current, options);
    const double candidate = lambda * (n - queue) / n;
    const double next = options.picard_damping * candidate +
                        (1.0 - options.picard_damping) * current;
    if (options.residual_trace != nullptr) {
      options.residual_trace->push_back(std::fabs(next - current) / lambda);
    }
    if (std::fabs(next - current) <= options.tolerance * lambda) {
      return FixedPointResult{next,
                              total_queue_length(config, service, next,
                                                 options),
                              i, true};
    }
    current = next;
  }
  return FixedPointResult{current, queue, options.max_iterations, false};
}

FixedPointResult solve_bisection(const SystemConfig& config,
                                 const CenterServiceTimes& service,
                                 const FixedPointOptions& options) {
  const double lambda = config.generation_rate_per_us;
  if (lambda == 0.0) return zero_rate_result();
  const double n = static_cast<double>(config.total_nodes());
  auto g = [&](double x) {
    return lambda * (n - total_queue_length(config, service, x, options)) /
               n -
           x;
  };

  // g(lambda) <= 0 always; if g(lambda) == 0 the system is load-free.
  if (g(lambda) >= 0.0) {
    return FixedPointResult{
        lambda,
        total_queue_length(config, service, lambda, options), 1, true};
  }

  double lo = 0.0;  // g(0+) = lambda > 0
  double hi = lambda;
  std::uint32_t iterations = 0;
  while (iterations < options.max_iterations &&
         (hi - lo) > options.tolerance * lambda) {
    if (options.cancel != nullptr) options.cancel->check("fixed_point");
    ++iterations;
    const double mid = 0.5 * (lo + hi);
    if (g(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (options.residual_trace != nullptr) {
      options.residual_trace->push_back((hi - lo) / lambda);
    }
  }
  // Report the stable side of the bracket (queue length finite).
  const double solution = lo;
  return FixedPointResult{
      solution,
      total_queue_length(config, service, solution, options),
      iterations, (hi - lo) <= options.tolerance * lambda};
}

FixedPointResult solve_mva(const SystemConfig& config,
                           const CenterServiceTimes& service,
                           const FixedPointOptions& options) {
  if (config.generation_rate_per_us == 0.0) return zero_rate_result();
  // Station-class recursion: the C ICN1 (and C ECN1) stations are
  // identical, so the 2C+1-station network collapses to 3 classes and
  // the O(N * stations) recursion to O(N * 3) (docs/PERFORMANCE.md).
  const HmcsMvaClassLayout layout =
      build_hmcs_mva_class_layout(config, service);
  const double think = 1.0 / config.generation_rate_per_us;
  return detail::mva_fixed_point(
      layout,
      solve_closed_mva_classes(layout.classes, think, config.total_nodes(),
                               options.cancel),
      config.total_nodes());
}

}  // namespace

namespace detail {

FixedPointResult mva_fixed_point(const HmcsMvaClassLayout& layout,
                                 const MvaClassResult& mva,
                                 std::uint64_t total_nodes) {
  double total_queue = 0.0;
  for (std::size_t i = 0; i < layout.classes.size(); ++i) {
    total_queue += static_cast<double>(layout.classes[i].multiplicity) *
                   mva.queue_length[i];
  }
  // The recursion runs one step per customer: report the population as
  // the iteration count (64-bit — populations >= 2^32 must not wrap).
  return FixedPointResult{mva.throughput / static_cast<double>(total_nodes),
                          total_queue, total_nodes, true};
}

}  // namespace detail

FixedPointResult solve_effective_rate(const SystemConfig& config,
                                      const CenterServiceTimes& service,
                                      const FixedPointOptions& options) {
  config.validate();
  require(options.tolerance > 0.0, "fixed_point: tolerance must be > 0");
  require(options.max_iterations >= 1, "fixed_point: needs >= 1 iteration");
  require(options.picard_damping > 0.0 && options.picard_damping <= 1.0,
          "fixed_point: damping must be in (0, 1]");
  require(options.service_cv2 >= 0.0, "fixed_point: cv^2 must be >= 0");
  require(options.arrival_ca2 >= 0.0, "fixed_point: ca^2 must be >= 0");
  require(options.failure_mtbf_us >= 0.0 && options.failure_mttr_us >= 0.0,
          "fixed_point: failure mtbf/mttr must be >= 0");
  require(options.method != SourceThrottling::kExactMva ||
              options.service_cv2 == 1.0,
          "fixed_point: exact MVA requires exponential service (cv^2 = 1)");
  require(options.method != SourceThrottling::kExactMva ||
              (options.arrival_ca2 == 1.0 &&
               (options.failure_mtbf_us <= 0.0 ||
                options.failure_mttr_us <= 0.0)),
          "fixed_point: exact MVA requires Poisson arrivals and no "
          "failure/repair (product form)");
  if (options.residual_trace != nullptr) options.residual_trace->clear();

  const auto instrumented = [&options](FixedPointResult result) {
    HMCS_OBS_COUNTER_INC("analytic.fixed_point.solves");
    HMCS_OBS_COUNTER_ADD("analytic.fixed_point.iterations", result.iterations);
    if (!result.converged) {
      HMCS_OBS_COUNTER_INC("analytic.fixed_point.nonconverged");
    }
    HMCS_OBS_STAT_OBSERVE("analytic.fixed_point.iterations_per_solve",
                          result.iterations);
    if (options.residual_trace != nullptr &&
        !options.residual_trace->empty()) {
      HMCS_OBS_GAUGE_SET("analytic.fixed_point.last_residual",
                         options.residual_trace->back());
    }
    return result;
  };

  switch (options.method) {
    case SourceThrottling::kNone:
      return instrumented(solve_none(config, service, options));
    case SourceThrottling::kPicard:
      return instrumented(solve_picard(config, service, options));
    case SourceThrottling::kBisection:
      return instrumented(solve_bisection(config, service, options));
    case SourceThrottling::kExactMva:
      return instrumented(solve_mva(config, service, options));
  }
  ensure(false, "fixed_point: unknown method");
  return {};
}

}  // namespace hmcs::analytic
