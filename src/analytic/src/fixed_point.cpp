#include "hmcs/analytic/fixed_point.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "fixed_point_engine.hpp"
#include "hmcs/analytic/arrival_rates.hpp"
#include "hmcs/analytic/mm1.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

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

  const WorkloadScenario& scenario = config.scenario;
  const EffectiveService icn1 =
      effective_service(service.icn1.service_rate(), scenario);
  const EffectiveService ecn1 =
      effective_service(service.ecn1.service_rate(), scenario);
  const EffectiveService icn2 =
      effective_service(service.icn2.service_rate(), scenario);
  const double ca2 = arrival_scv(scenario, config.generation_rate_per_us);
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

void validate_solve_inputs(const FixedPointOptions& options,
                           const WorkloadScenario& scenario,
                           std::span<const double> arrival_ca2s) {
  require(options.tolerance > 0.0, "fixed_point: tolerance must be > 0");
  require(options.max_iterations >= 1, "fixed_point: needs >= 1 iteration");
  require(options.picard_damping > 0.0 && options.picard_damping <= 1.0,
          "fixed_point: damping must be in (0, 1]");
  if (options.method != SourceThrottling::kExactMva) return;
  // Checked at every load, zero included: MVA cannot represent a
  // non-product-form workload at all.
  const bool poisson = std::all_of(arrival_ca2s.begin(), arrival_ca2s.end(),
                                   [](double ca2) { return ca2 == 1.0; });
  require(scenario.service_cv2 == 1.0 && poisson &&
              (!scenario.failure.has_value() ||
               scenario.failure->mttr_us <= 0.0),
          "exact MVA requires exponential service, Poisson arrivals and no "
          "failure/repair (product form)");
}

}  // namespace detail

}  // namespace hmcs::analytic
