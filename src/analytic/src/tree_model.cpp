#include "hmcs/analytic/tree_model.hpp"

#include <algorithm>
#include <cmath>

#include "fixed_point_engine.hpp"
#include "hmcs/analytic/mm1.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

namespace {

/// Per-node lookup of a node's network / egress centre in the
/// tree_centers vector (FlatNode::npos for the root's absent egress).
struct CenterIndex {
  std::vector<std::size_t> net;
  std::vector<std::size_t> egress;
};

CenterIndex index_centers(const FlatTreeView& view,
                          const std::vector<TreeCenter>& centers) {
  CenterIndex index;
  index.net.assign(view.nodes.size(), FlatNode::npos);
  index.egress.assign(view.nodes.size(), FlatNode::npos);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    (centers[c].egress ? index.egress : index.net)[centers[c].node] = c;
  }
  return index;
}

/// Arrival rate of every centre at throttle factor `phi` into `rates`,
/// aligned with the tree_centers vector. A node's network carries the
/// traffic its children send past each other (a leaf child excludes
/// only the source processor — intra-group messages still cross the
/// network; an internal child excludes its whole subtree, handled at a
/// deeper LCA); an egress carries the subtree's exit plus entry traffic.
void center_arrival_rates(const FlatTreeView& view,
                          const std::vector<TreeCenter>& centers, double phi,
                          std::vector<double>& rates) {
  const double n = static_cast<double>(view.total_processors);
  const double total_gen = view.total_generation_rate * phi;
  rates.assign(centers.size(), 0.0);
  if (n <= 1.0) return;  // no destinations: nothing ever routes
  const double denom = n - 1.0;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const FlatNode& node = view.nodes[centers[c].node];
    const double s_u = static_cast<double>(node.subtree_processors);
    double rate = 0.0;
    if (centers[c].egress) {
      const double gen_u = node.subtree_generation_rate * phi;
      rate = gen_u * (n - s_u) / denom + (total_gen - gen_u) * s_u / denom;
    } else {
      for (const std::size_t li : node.leaf_children) {
        const FlatLeaf& leaf = view.leaves[li];
        const double gen =
            static_cast<double>(leaf.processors) * leaf.rate_per_us * phi;
        rate += gen * (s_u - 1.0) / denom;
      }
      for (const std::size_t ci : node.internal_children) {
        const FlatNode& child = view.nodes[ci];
        const double gen = child.subtree_generation_rate * phi;
        rate += gen *
                static_cast<double>(node.subtree_processors -
                                    child.subtree_processors) /
                denom;
      }
    }
    rates[c] = rate;
  }
}

/// What every L(phi) evaluation of one open-tree solve shares: the
/// scenario's arrival ca^2, each centre's effective service, computed
/// once, and the arrival-rate buffer each evaluation refills, so a phi
/// evaluation allocates nothing.
struct ThrottleCenters {
  ThrottleCenters(const FlatTreeView& tree_view,
                  const std::vector<TreeCenter>& tree_centers,
                  const WorkloadScenario& scenario, double ca2)
      : view(tree_view), centers(tree_centers), arrival_ca2(ca2) {
    service.reserve(centers.size());
    for (const TreeCenter& center : centers) {
      service.push_back(
          effective_service(center.service.service_rate(), scenario));
    }
    rates.reserve(centers.size());
  }

  const FlatTreeView& view;
  const std::vector<TreeCenter>& centers;
  double arrival_ca2;
  std::vector<EffectiveService> service;
  std::vector<double> rates;  ///< at the phi of the last evaluation
};

/// L(phi) per the chosen queue rule, capped at N; N when any centre is
/// saturated (mirrors analytic::total_queue_length).
double queue_length_at(ThrottleCenters& state, const FixedPointOptions& fp,
                       double phi) {
  const std::vector<TreeCenter>& centers = state.centers;
  center_arrival_rates(state.view, centers, phi, state.rates);
  const double n = static_cast<double>(state.view.total_processors);
  double total = 0.0;
  bool saturated = false;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const EffectiveService& eff = state.service[c];
    const double l = gg1::number_in_system(state.rates[c], eff.mu,
                                           state.arrival_ca2, eff.cs2);
    if (std::isinf(l)) {
      saturated = true;
    } else {
      const double weight =
          centers[c].egress && fp.queue_rule == QueueLengthRule::kPaperEq6
              ? 2.0
              : 1.0;
      total += weight * l;
    }
  }
  return saturated ? n : std::min(total, n);
}

/// The blocked-source fixed point on the common throttle factor phi in
/// (0, 1]: the flat engine (fixed_point_engine.hpp) run as one cell at
/// rate 1 and start 1, so its root function is g(phi) = (N - L(phi))/N -
/// phi — decreasing, with g(0+) > 0. An idle tree, or kNone, keeps
/// phi = 1 without iterating.
FixedPointResult solve_throttle(ThrottleCenters& state,
                                const FixedPointOptions& fp) {
  if (fp.residual_trace != nullptr) fp.residual_trace->clear();
  FixedPointResult phi{1.0, 0.0, 0, true};
  if (state.view.total_generation_rate <= 0.0 ||
      fp.method == SourceThrottling::kNone) {
    return phi;
  }
  const double n = static_cast<double>(state.view.total_processors);
  const auto queue = [&](std::size_t, double x) {
    return queue_length_at(state, fp, x);
  };
  const double rate = 1.0;
  if (fp.method == SourceThrottling::kPicard) {
    detail::solve_picard(queue, n, fp, "tree_model", {&rate, 1}, &phi);
  } else {
    detail::solve_bisection(queue, n, fp, "tree_model", {&rate, 1}, &phi);
  }
  detail::record_solves(&phi, 1, fp);
  return phi;
}

/// Mean latency of a message sourced in each leaf, given every centre's
/// response time W. The generalised eq. (15): sum over the source's
/// ancestors v of P(LCA = v) * (egress climb + W_net(v) + expected
/// egress descent), where the descent cost of landing in subtree u is
/// down(u) = W_egress(u) + sum_c (S(c)/S(u)) down(c) over internal
/// children (destinations in a leaf group attached to u's network are
/// delivered directly).
std::vector<double> assemble_leaf_latencies(
    const FlatTreeView& view, const CenterIndex& index,
    const std::vector<double>& response) {
  const double n = static_cast<double>(view.total_processors);
  std::vector<double> down(view.nodes.size(), 0.0);
  // Pre-order guarantees children follow their parent, so a descending
  // pass sees every child's down() before the parent needs it.
  for (std::size_t u = view.nodes.size(); u-- > 0;) {
    const FlatNode& node = view.nodes[u];
    if (node.parent == FlatNode::npos) continue;  // root: no egress
    double d = response[index.egress[u]];
    for (const std::size_t c : node.internal_children) {
      d += (static_cast<double>(view.nodes[c].subtree_processors) /
            static_cast<double>(node.subtree_processors)) *
           down[c];
    }
    down[u] = d;
  }

  std::vector<double> latencies(view.leaves.size(), 0.0);
  for (std::size_t a = 0; a < view.leaves.size(); ++a) {
    double climb = 0.0;
    double total = 0.0;
    std::size_t below = FlatNode::npos;  // path child at the current level
    for (std::size_t v = view.leaves[a].parent; v != FlatNode::npos;
         v = view.nodes[v].parent) {
      const FlatNode& node = view.nodes[v];
      const double excluded =
          below == FlatNode::npos
              ? 1.0
              : static_cast<double>(view.nodes[below].subtree_processors);
      const double reachable =
          static_cast<double>(node.subtree_processors) - excluded;
      const double p = n <= 1.0 ? 0.0 : reachable / (n - 1.0);
      // The p > 0 guard keeps zero-probability levels from poisoning the
      // sum when a saturated centre reports an infinite response time.
      if (p > 0.0) {
        double down_sum = 0.0;
        for (const std::size_t c : node.internal_children) {
          if (c == below) continue;
          down_sum +=
              static_cast<double>(view.nodes[c].subtree_processors) * down[c];
        }
        total += p * (climb + response[index.net[v]] + down_sum / reachable);
      }
      if (node.parent != FlatNode::npos) climb += response[index.egress[v]];
      below = v;
    }
    latencies[a] = total;
  }
  return latencies;
}

/// Offered-rate-weighted mean over source leaves (processor-weighted
/// when every rate is zero, where all latencies are no-load anyway).
double weighted_mean_latency(const FlatTreeView& view,
                             const std::vector<double>& per_leaf) {
  double weighted = 0.0;
  double weight_total = 0.0;
  for (std::size_t a = 0; a < view.leaves.size(); ++a) {
    const double weight =
        static_cast<double>(view.leaves[a].processors) *
        (view.total_generation_rate > 0.0 ? view.leaves[a].rate_per_us : 1.0);
    weighted += weight * per_leaf[a];
    weight_total += weight;
  }
  ensure(weight_total > 0.0, "tree_model: zero latency weight");
  return weighted / weight_total;
}

TreeLatencyPrediction predict_open(const FlatTreeView& view,
                                   const std::vector<TreeCenter>& centers,
                                   const CenterIndex& index,
                                   const WorkloadScenario& scenario,
                                   double arrival_ca2,
                                   const FixedPointOptions& fp) {
  ThrottleCenters state(view, centers, scenario, arrival_ca2);
  const FixedPointResult solved = solve_throttle(state, fp);
  const double phi = solved.lambda_effective;

  TreeLatencyPrediction out{};
  out.lambda_offered_total = view.total_generation_rate;
  out.effective_rate_scale = phi;
  // Evaluated at the final phi, also where Picard ran out of iterations;
  // leaves state.rates at that phi for the per-centre view below.
  out.total_queue_length = queue_length_at(state, fp, phi);
  out.fixed_point_converged = solved.converged;
  out.fixed_point_iterations = solved.iterations;

  const std::vector<double>& rates = state.rates;
  std::vector<double> response(centers.size());
  out.centers.reserve(centers.size());
  for (std::size_t c = 0; c < centers.size(); ++c) {
    TreeCenterPrediction center{};
    center.path = centers[c].path;
    center.egress = centers[c].egress;
    center.arrival_rate = rates[c];
    const EffectiveService& eff = state.service[c];
    center.service_rate = eff.mu;
    center.utilization = mm1::utilization(rates[c], eff.mu);
    center.response_time_us =
        gg1::response_time(rates[c], eff.mu, arrival_ca2, eff.cs2);
    center.queue_length =
        gg1::number_in_system(rates[c], eff.mu, arrival_ca2, eff.cs2);
    response[c] = center.response_time_us;
    out.centers.push_back(std::move(center));
  }

  out.per_leaf_latency_us = assemble_leaf_latencies(view, index, response);
  out.mean_latency_us = weighted_mean_latency(view, out.per_leaf_latency_us);
  return out;
}

/// Uniform trees: every customer is exchangeable, so the closed network
/// is single-class and exact station-class MVA applies. Centres with
/// bit-equal (visit ratio, service time) pairs collapse into one class —
/// symmetric siblings compute both through identical operation
/// sequences, so the collapse recovers PR 6's O(classes) recursion (the
/// flat layout's 2C+1 -> 3).
TreeLatencyPrediction predict_uniform_mva(const FlatTreeView& view,
                                          const std::vector<TreeCenter>& centers,
                                          const CenterIndex& index,
                                          const FixedPointOptions& fp) {
  const double total_gen = view.total_generation_rate;
  std::vector<double> offered;
  center_arrival_rates(view, centers, 1.0, offered);

  std::vector<MvaStationClass> classes;
  std::vector<std::size_t> class_of(centers.size());
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const double visit = offered[c] / total_gen;
    const double rate = centers[c].service.service_rate();
    std::size_t k = 0;
    for (; k < classes.size(); ++k) {
      if (classes[k].visit_ratio == visit &&
          classes[k].service_rate == rate) {
        break;
      }
    }
    if (k == classes.size()) {
      classes.push_back(MvaStationClass{visit, rate, 1});
    } else {
      ++classes[k].multiplicity;
    }
    class_of[c] = k;
  }

  const double leaf_rate = view.leaves.front().rate_per_us;
  const std::uint64_t population = view.total_processors;
  const MvaClassResult mva = solve_closed_mva_classes(
      classes, 1.0 / leaf_rate, population, fp.cancel);

  TreeLatencyPrediction out{};
  out.mean_latency_us = mva.total_residence_us;
  out.lambda_offered_total = total_gen;
  out.effective_rate_scale = mva.throughput / total_gen;
  out.fixed_point_converged = true;
  out.fixed_point_iterations = population;

  std::vector<double> response(centers.size());
  out.centers.reserve(centers.size());
  out.total_queue_length = 0.0;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    TreeCenterPrediction center{};
    center.path = centers[c].path;
    center.egress = centers[c].egress;
    center.service_rate = centers[c].service.service_rate();
    center.arrival_rate = mva.throughput * classes[class_of[c]].visit_ratio;
    center.utilization = center.arrival_rate / center.service_rate;
    center.response_time_us = mva.response_time_us[class_of[c]];
    center.queue_length = mva.queue_length[class_of[c]];
    response[c] = center.response_time_us;
    out.total_queue_length += center.queue_length;
    out.centers.push_back(std::move(center));
  }

  out.per_leaf_latency_us = assemble_leaf_latencies(view, index, response);
  return out;
}

/// Heterogeneous trees: multi-class Bard-Schweitzer AMVA, one customer
/// class per leaf (own population, think time, visit ratios). Exact
/// multi-class MVA is intractable: its state space is the product of
/// the class populations.
TreeLatencyPrediction predict_tree_amva(const FlatTreeView& view,
                                        const std::vector<TreeCenter>& centers,
                                        const CenterIndex& index,
                                        const FixedPointOptions& fp) {
  const double n = static_cast<double>(view.total_processors);
  for (const FlatLeaf& leaf : view.leaves) {
    require(leaf.rate_per_us > 0.0,
            "tree_model: the MVA path needs every leaf generation rate > 0 "
            "(use the open fixed point for idle leaves)");
  }

  std::vector<double> station_rates(centers.size());
  for (std::size_t c = 0; c < centers.size(); ++c) {
    station_rates[c] = centers[c].service.service_rate();
  }

  std::vector<bool> is_ancestor(view.nodes.size());
  std::vector<MvaClass> classes(view.leaves.size());
  for (std::size_t a = 0; a < view.leaves.size(); ++a) {
    MvaClass& cls = classes[a];
    cls.population = view.leaves[a].processors;
    cls.think_time_us = 1.0 / view.leaves[a].rate_per_us;
    cls.visit_ratios.assign(centers.size(), 0.0);
    if (n <= 1.0) continue;

    std::fill(is_ancestor.begin(), is_ancestor.end(), false);
    for (std::size_t v = view.leaves[a].parent; v != FlatNode::npos;
         v = view.nodes[v].parent) {
      is_ancestor[v] = true;
    }
    // Network visits: P(LCA = v) at each ancestor.
    std::size_t below = FlatNode::npos;
    for (std::size_t v = view.leaves[a].parent; v != FlatNode::npos;
         v = view.nodes[v].parent) {
      const double excluded =
          below == FlatNode::npos
              ? 1.0
              : static_cast<double>(view.nodes[below].subtree_processors);
      cls.visit_ratios[index.net[v]] =
          (static_cast<double>(view.nodes[v].subtree_processors) - excluded) /
          (n - 1.0);
      below = v;
    }
    // Egress visits: an ancestor's egress is crossed when the
    // destination is outside its subtree; a non-ancestor's when the
    // destination is inside it.
    for (std::size_t u = 0; u < view.nodes.size(); ++u) {
      if (view.nodes[u].parent == FlatNode::npos) continue;
      const double s_u =
          static_cast<double>(view.nodes[u].subtree_processors);
      cls.visit_ratios[index.egress[u]] =
          is_ancestor[u] ? (n - s_u) / (n - 1.0) : s_u / (n - 1.0);
    }
  }

  const MultiClassMvaResult mva =
      solve_multiclass_amva(station_rates, classes, fp.cancel);

  TreeLatencyPrediction out{};
  out.fixed_point_converged = mva.converged;
  out.fixed_point_iterations = mva.iterations;
  out.total_queue_length = 0.0;
  for (const double l : mva.queue_length) out.total_queue_length += l;

  out.centers.reserve(centers.size());
  for (std::size_t c = 0; c < centers.size(); ++c) {
    TreeCenterPrediction center{};
    center.path = centers[c].path;
    center.egress = centers[c].egress;
    center.service_rate = station_rates[c];
    double weighted_response = 0.0;
    for (std::size_t a = 0; a < classes.size(); ++a) {
      const double arrival = mva.throughput[a] * classes[a].visit_ratios[c];
      center.arrival_rate += arrival;
      weighted_response += arrival * mva.response_time_us[a][c];
    }
    center.utilization = center.arrival_rate / center.service_rate;
    center.response_time_us = center.arrival_rate > 0.0
                                  ? weighted_response / center.arrival_rate
                                  : 1.0 / center.service_rate;
    center.queue_length = mva.queue_length[c];
    out.centers.push_back(std::move(center));
  }

  out.per_leaf_latency_us.resize(view.leaves.size());
  double delivered = 0.0;
  double offered = 0.0;
  double weighted_latency = 0.0;
  for (std::size_t a = 0; a < view.leaves.size(); ++a) {
    // Per-message latency = cycle residence = N_a/X_a - Z_a.
    const double latency =
        static_cast<double>(classes[a].population) / mva.throughput[a] -
        classes[a].think_time_us;
    out.per_leaf_latency_us[a] = latency;
    weighted_latency += mva.throughput[a] * latency;
    delivered += mva.throughput[a];
    offered += static_cast<double>(view.leaves[a].processors) *
               view.leaves[a].rate_per_us;
  }
  out.mean_latency_us = weighted_latency / delivered;
  out.lambda_offered_total = offered;
  out.effective_rate_scale = delivered / offered;
  return out;
}

}  // namespace

TreeLatencyPrediction predict_model_tree(const ModelTree& tree,
                                         const TreeModelOptions& options) {
  const FlatTreeView view = flatten(tree);  // validates
  const std::vector<TreeCenter> centers = tree_centers(tree, view);
  const CenterIndex index = index_centers(view, centers);
  // The tree-wide scenario's arrival ca^2 at the processor-weighted mean
  // source rate, checked as predict_latency_batch checks a flat cell's:
  // under kExactMva at every load, an idle tree included.
  const double mean_rate =
      view.total_processors > 0
          ? view.total_generation_rate /
                static_cast<double>(view.total_processors)
          : 0.0;
  const double arrival_ca2 = arrival_scv(tree.scenario, mean_rate);
  const FixedPointOptions& fp = options.fixed_point;
  detail::validate_solve_inputs(fp, tree.scenario, {&arrival_ca2, 1});

  if (fp.method == SourceThrottling::kExactMva &&
      view.total_generation_rate > 0.0) {
    if (is_uniform_tree(tree)) {
      return predict_uniform_mva(view, centers, index, fp);
    }
    return predict_tree_amva(view, centers, index, fp);
  }
  return predict_open(view, centers, index, tree.scenario, arrival_ca2, fp);
}

}  // namespace hmcs::analytic
