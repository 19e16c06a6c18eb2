#pragma once

/// \file tree_model.hpp
/// The analytic model evaluated over a recursive ModelTree — the
/// compositional generalisation of the paper's pipeline
/// (docs/COMPOSITION.md):
///
///   routing     eq. (8) generalises to uniform-destination counting per
///               level: a message from leaf group a meets its
///               destination at ancestor v with probability
///               (S(v) - S(below)) / (N - 1), where S(below) is the
///               subtree the message came up through (1 for the source
///               processor itself at the first level);
///   arrivals    eqs. (1)-(5) generalise to bottom-up aggregation: a
///               node's network carries the traffic its children send
///               past each other, an egress carries its subtree's exit
///               plus entry traffic;
///   fixed point eqs. (6)-(7) generalise to a throttle factor phi on
///               every leaf rate (the same blocked-source argument),
///               solved by the flat engine (batch_solver.hpp) as one
///               cell at rate 1;
///   latency     eq. (15) generalises to a sum over the source leaf's
///               ancestors of P(LCA = v) * (egress climb + W_net(v) +
///               expected egress descent).
///
/// SourceThrottling::kExactMva maps to exact station-class MVA when the
/// tree is uniform (is_uniform_tree — all customers exchangeable) and to
/// the multi-class Bard-Schweitzer AMVA otherwise, one class per leaf.
///
/// Every tree runs this recursion, flat-shaped ones included; on the
/// flat two-stage shape it agrees with predict_latency to rounding, not
/// bit for bit. Callers that want the flat engine's exact numbers for a
/// flat-shaped tree lower it where input enters — expand_sweep and
/// serve::parse_request do — rather than here (docs/COMPOSITION.md).

#include <cstdint>
#include <string>
#include <vector>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/model_tree.hpp"

namespace hmcs::analytic {

struct TreeModelOptions {
  FixedPointOptions fixed_point;
};

/// One queueing centre of the solved tree, in tree_centers order.
struct TreeCenterPrediction {
  std::string path;  ///< node path + ".icn" or ".egress"
  bool egress = false;
  double arrival_rate;      ///< messages/us at the effective rate
  double service_rate;      ///< mu = 1/T
  double utilization;       ///< rho
  double response_time_us;  ///< W
  double queue_length;      ///< L
};

struct TreeLatencyPrediction {
  /// Generation-weighted mean latency over all source leaves.
  double mean_latency_us;
  /// Mean latency of messages originating in each leaf (DFS order).
  std::vector<double> per_leaf_latency_us;
  /// Aggregate offered generation rate of the whole tree, messages/us.
  double lambda_offered_total;
  /// Common throttle factor phi applied to every leaf's rate.
  double effective_rate_scale;
  double total_queue_length;
  bool fixed_point_converged;
  std::uint64_t fixed_point_iterations;

  std::vector<TreeCenterPrediction> centers;
};

/// Solves the model for one tree. Throws hmcs::ConfigError for invalid
/// trees, and for out-of-domain solver options or a non-product-form
/// scenario under kExactMva exactly where predict_latency does (the
/// same check; an MMPP's ca^2 is resolved at the processor-weighted
/// mean source rate). Saturation is not an error (the fixed point
/// throttles below it). The MVA paths additionally require every leaf
/// generation rate to be > 0 (all-zero trees fall back to the no-load
/// open solution).
TreeLatencyPrediction predict_model_tree(const ModelTree& tree,
                                         const TreeModelOptions& options = {});

}  // namespace hmcs::analytic
