#include "hmcs/analytic/latency_model.hpp"

#include "hmcs/analytic/batch_solver.hpp"
#include "hmcs/analytic/mm1.hpp"
#include "hmcs/analytic/mva.hpp"

namespace hmcs::analytic {

namespace {

CenterPrediction solve_center(double arrival_rate, double service_rate,
                              const WorkloadScenario& scenario,
                              double arrival_ca2) {
  // Failure/repair inflates the completion-time distribution; the
  // reported service rate and utilization are the effective ones (the
  // same rates a breakdown-suffering DES measures).
  const EffectiveService effective = effective_service(service_rate, scenario);
  CenterPrediction out{};
  out.arrival_rate = arrival_rate;
  out.service_rate = effective.mu;
  out.utilization = mm1::utilization(arrival_rate, effective.mu);
  out.response_time_us = gg1::response_time(arrival_rate, effective.mu,
                                            arrival_ca2, effective.cs2);
  out.queue_length = gg1::number_in_system(arrival_rate, effective.mu,
                                           arrival_ca2, effective.cs2);
  return out;
}

}  // namespace

namespace detail {

LatencyPrediction finish_open_prediction(const SystemConfig& config, double p,
                                         const CenterServiceTimes& service,
                                         const FixedPointResult& fixed_point,
                                         double arrival_ca2) {
  LatencyPrediction out{};
  out.lambda_offered = config.generation_rate_per_us;
  out.inter_cluster_probability = p;
  out.service_times = service;
  out.lambda_effective = fixed_point.lambda_effective;
  out.total_queue_length = fixed_point.total_queue_length;
  out.fixed_point_converged = fixed_point.converged;
  out.fixed_point_iterations = fixed_point.iterations;

  const ArrivalRates rates =
      compute_arrival_rates(config.clusters, config.nodes_per_cluster, p,
                            fixed_point.lambda_effective);
  out.icn1 = solve_center(rates.icn1, service.icn1.service_rate(),
                          config.scenario, arrival_ca2);
  out.ecn1 = solve_center(rates.ecn1, service.ecn1.service_rate(),
                          config.scenario, arrival_ca2);
  out.icn2 = solve_center(rates.icn2, service.icn2.service_rate(),
                          config.scenario, arrival_ca2);

  // eq. (15). When P == 0 (single cluster) the remote centres never see
  // traffic; when N0 == 1 (fully dispersed) no traffic is local. Guard
  // the zero-weight terms so an untraversed centre's W cannot poison the
  // sum even in degenerate setups.
  const double local_term = (p < 1.0) ? (1.0 - p) * out.icn1.response_time_us : 0.0;
  const double remote_term =
      (p > 0.0) ? p * (out.icn2.response_time_us + 2.0 * out.ecn1.response_time_us)
                : 0.0;
  out.mean_latency_us = local_term + remote_term;
  return out;
}

/// kExactMva path: every per-centre quantity comes from the MVA solution
/// of the closed network — solved over the three station classes of the
/// HMCS layout (C identical ICN1, C identical ECN1, one ICN2) — rather
/// than from open M/M/1 formulas.
LatencyPrediction finish_mva_prediction(const SystemConfig& config, double p,
                                        const CenterServiceTimes& service,
                                        const HmcsMvaClassLayout& layout,
                                        const MvaClassResult& mva) {
  LatencyPrediction out{};
  out.lambda_offered = config.generation_rate_per_us;
  out.inter_cluster_probability = p;
  out.service_times = service;

  const FixedPointResult fixed_point =
      mva_fixed_point(layout, mva, config.total_nodes());
  out.lambda_effective = fixed_point.lambda_effective;
  out.total_queue_length = fixed_point.total_queue_length;
  out.fixed_point_converged = fixed_point.converged;
  out.fixed_point_iterations = fixed_point.iterations;

  const double x = mva.throughput;  // system-wide cycles per us

  auto fill = [&](std::size_t cls) {
    CenterPrediction center{};
    center.arrival_rate = x * layout.classes[cls].visit_ratio;
    center.service_rate = layout.classes[cls].service_rate;
    center.utilization = center.arrival_rate / center.service_rate;
    center.response_time_us = mva.response_time_us[cls];
    center.queue_length = mva.queue_length[cls];
    return center;
  };
  out.icn1 = fill(layout.icn1_class);
  out.ecn1 = fill(layout.ecn1_class);
  out.icn2 = fill(layout.icn2_class);

  // eq. (15) with MVA waiting times; identically sum_k m_k v_k W_k.
  out.mean_latency_us = mva.total_residence_us;
  return out;
}

}  // namespace detail

LatencyPrediction predict_latency(const SystemConfig& config,
                                  const ModelOptions& options) {
  const SystemConfig* const cell = &config;
  return predict_latency_batch(&cell, 1, options).front();
}

}  // namespace hmcs::analytic
