#include "hmcs/analytic/batch_solver.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "fixed_point_engine.hpp"
#include "hmcs/analytic/mm1.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/obs/metrics.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

namespace {

/// Everything of total_queue_length that does not depend on the cell's
/// rate, hoisted once per group. The arrival rates are linear in the
/// iterate x with the exact coefficients (and associativity) of
/// compute_arrival_rates, so queue_at() below is arithmetic-identical
/// to the public total_queue_length.
struct GroupConstants {
  double n = 0.0;    ///< total nodes
  double c = 0.0;    ///< clusters
  double p = 0.0;    ///< eq. (8)
  double a_icn1 = 0.0;   ///< N0 (1-P):   rate_icn1 = a_icn1 * x
  double a_ecn1f = 0.0;  ///< N0 P:       forward ECN1 rate = a_ecn1f * x
  double a_icn2 = 0.0;   ///< (C N0) P:   rate_icn2 = a_icn2 * x
  double mu_icn1 = 0.0;
  double mu_ecn1 = 0.0;
  double mu_icn2 = 0.0;
  double cs2_icn1 = 1.0;  ///< effective completion-time cs^2 (failures in)
  double cs2_ecn1 = 1.0;
  double cs2_icn2 = 1.0;
  double ecn1_weight = 0.0;  ///< 2 for kPaperEq6, 1 for kConsistent
};

GroupConstants make_constants(const SystemConfig& base,
                              const CenterServiceTimes& service,
                              QueueLengthRule rule) {
  GroupConstants g;
  g.n = static_cast<double>(base.total_nodes());
  g.c = static_cast<double>(base.clusters);
  g.p = inter_cluster_probability(base.clusters, base.nodes_per_cluster);
  const double n0 = static_cast<double>(base.nodes_per_cluster);
  g.a_icn1 = n0 * (1.0 - g.p);
  g.a_ecn1f = n0 * g.p;
  g.a_icn2 = (g.c * n0) * g.p;
  // The failure/repair fold is the same effective_service call
  // total_queue_length makes per evaluation, hoisted once per group —
  // pure in its inputs, so the hoist is bit-identical.
  const EffectiveService icn1 =
      effective_service(service.icn1.service_rate(), base.scenario);
  const EffectiveService ecn1 =
      effective_service(service.ecn1.service_rate(), base.scenario);
  const EffectiveService icn2 =
      effective_service(service.icn2.service_rate(), base.scenario);
  g.mu_icn1 = icn1.mu;
  g.mu_ecn1 = ecn1.mu;
  g.mu_icn2 = icn2.mu;
  g.cs2_icn1 = icn1.cs2;
  g.cs2_ecn1 = ecn1.cs2;
  g.cs2_icn2 = icn2.cs2;
  g.ecn1_weight = (rule == QueueLengthRule::kPaperEq6) ? 2.0 : 1.0;
  return g;
}

/// eq. (6) at iterate x — bit-identical to total_queue_length(base with
/// rate x): same arrival-rate products, same M/G/1 calls, same sum
/// order, same saturation cap.
double queue_at(const GroupConstants& g, double ca2, double x) {
  const double rate_icn1 = g.a_icn1 * x;
  const double rate_icn2 = g.a_icn2 * x;
  const double rate_ecn1 = g.a_ecn1f * x + rate_icn2 / g.c;

  const double l_icn1 =
      gg1::number_in_system(rate_icn1, g.mu_icn1, ca2, g.cs2_icn1);
  const double l_ecn1 =
      gg1::number_in_system(rate_ecn1, g.mu_ecn1, ca2, g.cs2_ecn1);
  const double l_icn2 =
      gg1::number_in_system(rate_icn2, g.mu_icn2, ca2, g.cs2_icn2);
  if (std::isinf(l_icn1) || std::isinf(l_ecn1) || std::isinf(l_icn2)) {
    return g.n;  // a saturated centre eventually blocks every source
  }
  const double total = g.c * (g.ecn1_weight * l_ecn1 + l_icn1) + l_icn2;
  return std::min(total, g.n);
}

void require_cell_rate(double rate) {
  require(std::isfinite(rate) && rate >= 0.0,
          "SystemConfig: generation rate must be >= 0");
}

/// True when the two configs may share one group: equal in every model
/// input except the generation rate (names are labels, not numbers).
bool same_tech(const NetworkTechnology& a, const NetworkTechnology& b) {
  return a.latency_us == b.latency_us &&
         a.bandwidth_bytes_per_us == b.bandwidth_bytes_per_us;
}

bool same_topology(const SystemConfig& a, const SystemConfig& b) {
  return a.clusters == b.clusters &&
         a.nodes_per_cluster == b.nodes_per_cluster &&
         same_tech(a.icn1, b.icn1) && same_tech(a.ecn1, b.ecn1) &&
         same_tech(a.icn2, b.icn2) &&
         a.switch_params.ports == b.switch_params.ports &&
         a.switch_params.latency_us == b.switch_params.latency_us &&
         a.architecture == b.architecture &&
         a.message_bytes == b.message_bytes && a.scenario == b.scenario;
}

/// A topology group of predict_latency_batch with kExactMva cells: the
/// class layout and the epilogue inputs its cells share.
struct MvaGroup {
  HmcsMvaClassLayout layout;
  double p = 0.0;
  CenterServiceTimes service{};
};

/// A positive-rate kExactMva cell of the chunk awaiting its solve.
struct MvaCell {
  std::size_t index = 0;  ///< position in the chunk
  std::size_t group = 0;  ///< into the chunk's MvaGroup list
  std::uint64_t population = 0;
};

/// Solves eqs. (6)-(7) for every cell of a group sharing `base`'s
/// topology and scenario: cell i runs at rates[i] with arrival ca²
/// ca2s[i] (base's own rate is ignored), and records the call
/// (record_solves). kNone, kPicard and kBisection only: exact-MVA cells
/// take predict_latency_batch's population buckets.
void solve_group(const SystemConfig& base, const CenterServiceTimes& service,
                 const FixedPointOptions& options,
                 std::span<const double> rates, std::span<const double> ca2s,
                 FixedPointResult* out) {
  // predict_latency_batch passes a residual trace to one-cell calls only.
  if (options.residual_trace != nullptr) options.residual_trace->clear();

  const GroupConstants g = make_constants(base, service, options.queue_rule);
  const auto queue = [&g, ca2s](std::size_t cell, double x) {
    return queue_at(g, ca2s[cell], x);
  };
  switch (options.method) {
    case SourceThrottling::kNone:
      for (std::size_t i = 0; i < rates.size(); ++i) {
        out[i] = FixedPointResult{rates[i], queue(i, rates[i]), 0, true};
      }
      break;
    case SourceThrottling::kPicard:
      detail::solve_picard(queue, g.n, options, "fixed_point", rates, out);
      break;
    case SourceThrottling::kBisection:
      detail::solve_bisection(queue, g.n, options, "fixed_point", rates, out);
      break;
    case SourceThrottling::kExactMva:
      // predict_latency_batch solves exact-MVA cells by population
      // bucket and never sends them here.
      hmcs::detail::throw_logic_error(
          "solve_group: kExactMva cells take the population-bucketed path",
          std::source_location::current());
  }
  detail::record_solves(out, rates.size(), options);
}

}  // namespace

namespace detail {

void record_solves(const FixedPointResult* results, std::size_t count,
                   const FixedPointOptions& options) {
  HMCS_OBS_COUNTER_INC("analytic.batch.groups");
  HMCS_OBS_COUNTER_ADD("analytic.batch.cells", count);
  HMCS_OBS_COUNTER_ADD("analytic.fixed_point.solves", count);
  std::uint64_t iterations = 0;
  std::uint64_t nonconverged = 0;
  for (std::size_t i = 0; i < count; ++i) {
    iterations += results[i].iterations;
    nonconverged += results[i].converged ? 0 : 1;
    HMCS_OBS_STAT_OBSERVE("analytic.fixed_point.iterations_per_solve",
                          results[i].iterations);
  }
  HMCS_OBS_COUNTER_ADD("analytic.fixed_point.iterations", iterations);
  if (nonconverged != 0) {
    HMCS_OBS_COUNTER_ADD("analytic.fixed_point.nonconverged", nonconverged);
  }
  if (options.residual_trace != nullptr && !options.residual_trace->empty()) {
    HMCS_OBS_GAUGE_SET("analytic.fixed_point.last_residual",
                       options.residual_trace->back());
  }
}

}  // namespace detail

std::vector<LatencyPrediction> predict_latency_batch(
    const SystemConfig* const* configs, std::size_t count,
    const ModelOptions& options) {
  std::vector<LatencyPrediction> out(count);
  // One buffer cannot hold interleaved traces: only a one-cell call
  // (predict_latency) records one.
  FixedPointOptions fixed_point = options.fixed_point;
  if (count != 1) fixed_point.residual_trace = nullptr;
  // Positive-rate kExactMva cells are gathered over the whole chunk, of
  // any topology, and solved together once every group is validated.
  std::vector<MvaGroup> mva_groups;
  std::vector<MvaCell> mva_cells;
  std::vector<double> rates;
  std::vector<double> ca2s;
  std::vector<FixedPointResult> fixed_points;
  for (std::size_t i = 0; i < count; /* advanced below */) {
    require(configs[i] != nullptr, "predict_latency_batch: null config");
    std::size_t end = i + 1;
    while (end < count && configs[end] != nullptr &&
           same_topology(*configs[i], *configs[end])) {
      ++end;
    }

    const SystemConfig& base = *configs[i];
    base.validate();
    rates.clear();
    ca2s.clear();
    for (std::size_t cell = i; cell < end; ++cell) {
      const double rate = configs[cell]->generation_rate_per_us;
      require_cell_rate(rate);
      rates.push_back(rate);
      ca2s.push_back(arrival_scv(base.scenario, rate));
    }
    detail::validate_solve_inputs(fixed_point, base.scenario, ca2s);
    const double p =
        inter_cluster_probability(base.clusters, base.nodes_per_cluster);
    const CenterServiceTimes service = center_service_times(base);

    if (fixed_point.method == SourceThrottling::kExactMva) {
      // Positive-rate cells take the closed-network MVA solution;
      // zero-rate cells route through the open-network epilogue with the
      // converged-at-zero fixed point.
      mva_groups.push_back(
          MvaGroup{build_hmcs_mva_class_layout(base, service), p, service});
      for (std::size_t k = 0; k < rates.size(); ++k) {
        if (rates[k] == 0.0) {
          out[i + k] = detail::finish_open_prediction(
              *configs[i + k], p, service, detail::zero_rate_result(),
              ca2s[k]);
        } else {
          mva_cells.push_back(MvaCell{i + k, mva_groups.size() - 1,
                                      base.total_nodes()});
        }
      }
    } else {
      fixed_points.resize(rates.size());
      solve_group(base, service, fixed_point, rates, ca2s,
                  fixed_points.data());
      for (std::size_t k = 0; k < rates.size(); ++k) {
        out[i + k] = detail::finish_open_prediction(
            *configs[i + k], p, service, fixed_points[k], ca2s[k]);
      }
    }
    i = end;
  }

  // One population bucket at a time: the lanes of a recursion step share
  // the customer count n.
  std::stable_sort(mva_cells.begin(), mva_cells.end(),
                   [](const MvaCell& a, const MvaCell& b) {
                     return a.population < b.population;
                   });
  std::vector<MvaClassNetwork> networks;
  for (std::size_t first = 0; first < mva_cells.size(); /* below */) {
    const std::uint64_t population = mva_cells[first].population;
    std::size_t last = first;
    networks.clear();
    for (; last < mva_cells.size() &&
           mva_cells[last].population == population;
         ++last) {
      const MvaCell& cell = mva_cells[last];
      networks.push_back(MvaClassNetwork{
          mva_groups[cell.group].layout.classes,
          1.0 / configs[cell.index]->generation_rate_per_us});
    }
    const std::vector<MvaClassResult> solved = solve_closed_mva_classes_batch(
        networks, population, options.fixed_point.cancel);
    for (std::size_t k = 0; k < solved.size(); ++k) {
      const MvaCell& cell = mva_cells[first + k];
      const MvaGroup& group = mva_groups[cell.group];
      out[cell.index] = detail::finish_mva_prediction(
          *configs[cell.index], group.p, group.service, group.layout,
          solved[k]);
    }
    first = last;
  }
  return out;
}

std::vector<LatencyPrediction> predict_latency_batch(
    const std::vector<SystemConfig>& configs, const ModelOptions& options,
    const BatchOptions& batch) {
  require(!batch.warm_start,
          "predict_latency_batch: warm starts are not supported");
  std::vector<const SystemConfig*> pointers;
  pointers.reserve(configs.size());
  for (const SystemConfig& config : configs) pointers.push_back(&config);
  return predict_latency_batch(pointers.data(), pointers.size(), options);
}

}  // namespace hmcs::analytic
