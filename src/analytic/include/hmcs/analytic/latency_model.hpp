#pragma once

/// \file latency_model.hpp
/// The end-to-end analytical model (Section 4): combines the routing
/// probability (eq. 8), Jackson arrival rates (eqs. 1-5), per-network
/// service times (Section 5), the blocked-source fixed point (eqs. 6-7),
/// and eq. (15)
///
///     T_W = (1-P) W_I1 + P (W_I2 + 2 W_E1)
///
/// into a mean-message-latency prediction with full per-centre
/// diagnostics. This is the paper's primary deliverable.

#include <cstdint>

#include "hmcs/analytic/arrival_rates.hpp"
#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/system_config.hpp"

namespace hmcs::analytic {

struct ModelOptions {
  FixedPointOptions fixed_point;
};

/// Per-service-centre view of the solved network.
struct CenterPrediction {
  double arrival_rate;      ///< messages/us at lambda_effective
  double service_rate;      ///< mu = 1/T
  double utilization;       ///< rho
  double response_time_us;  ///< W = 1/(mu - lambda), eq. (16)
  double queue_length;      ///< L = rho/(1-rho)
};

struct LatencyPrediction {
  /// eq. (15) evaluated at the effective rate: the headline number.
  double mean_latency_us;

  double inter_cluster_probability;  ///< eq. (8)
  double lambda_offered;             ///< configured per-processor rate
  double lambda_effective;           ///< eq. (7) fixed point
  double total_queue_length;         ///< eq. (6) at the fixed point
  bool fixed_point_converged;
  /// Solver iterations; the exact-MVA path reports its population steps
  /// here, so the field is 64-bit (total_nodes may exceed 2^32).
  std::uint64_t fixed_point_iterations;

  CenterPrediction icn1;
  CenterPrediction ecn1;
  CenterPrediction icn2;
  CenterServiceTimes service_times;
};

/// Solves the model for one configuration. Throws hmcs::ConfigError for
/// invalid configurations; a saturated system is *not* an error — the
/// fixed point throttles lambda_effective below saturation, exactly the
/// behaviour assumption 4 models. A one-cell call of
/// predict_latency_batch (batch_solver.hpp): the same engine and
/// epilogues as every grid.
LatencyPrediction predict_latency(const SystemConfig& config,
                                  const ModelOptions& options = {});

struct HmcsMvaClassLayout;  // mva.hpp
struct MvaClassResult;      // mva.hpp

namespace detail {

/// The open-network epilogue of predict_latency_batch
/// (batch_solver.hpp): assembles the full prediction from an
/// already-solved fixed point. Exposed so that tests can assemble
/// predictions from a reference solve with the same arithmetic. Every
/// centre is priced with config.scenario's service cs^2 and
/// failure/repair fold and with `arrival_ca2`, the scenario's arrival
/// ca^2 at the config's offered rate (arrival_scv, workload.hpp).
LatencyPrediction finish_open_prediction(const SystemConfig& config, double p,
                                         const CenterServiceTimes& service,
                                         const FixedPointResult& fixed_point,
                                         double arrival_ca2);

/// Same, for the kExactMva path: assembles the prediction from the
/// solved station-class MVA recursion.
LatencyPrediction finish_mva_prediction(const SystemConfig& config, double p,
                                        const CenterServiceTimes& service,
                                        const HmcsMvaClassLayout& layout,
                                        const MvaClassResult& mva);

}  // namespace detail

}  // namespace hmcs::analytic
