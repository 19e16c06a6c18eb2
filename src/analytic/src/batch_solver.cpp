#include "hmcs/analytic/batch_solver.hpp"

#include <algorithm>
#include <cmath>

#include "hmcs/analytic/mm1.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/obs/metrics.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

namespace {

/// Everything of total_queue_length that does not depend on the cell's
/// rate, hoisted once per group. The arrival rates are linear in the
/// iterate x with the exact coefficients (and associativity) of
/// compute_arrival_rates, so queue_at() below is arithmetic-identical
/// to the scalar total_queue_length.
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
                              const FixedPointOptions& options) {
  GroupConstants g;
  g.n = static_cast<double>(base.total_nodes());
  g.c = static_cast<double>(base.clusters);
  g.p = inter_cluster_probability(base.clusters, base.nodes_per_cluster);
  const double n0 = static_cast<double>(base.nodes_per_cluster);
  g.a_icn1 = n0 * (1.0 - g.p);
  g.a_ecn1f = n0 * g.p;
  g.a_icn2 = (g.c * n0) * g.p;
  // The failure/repair fold is the same effective_service call the
  // scalar path makes per evaluation, hoisted once per group — pure in
  // its inputs, so the hoist is bit-identical.
  const EffectiveService icn1 = effective_service(
      service.icn1.service_rate(), options.service_cv2, options);
  const EffectiveService ecn1 = effective_service(
      service.ecn1.service_rate(), options.service_cv2, options);
  const EffectiveService icn2 = effective_service(
      service.icn2.service_rate(), options.service_cv2, options);
  g.mu_icn1 = icn1.mu;
  g.mu_ecn1 = ecn1.mu;
  g.mu_icn2 = icn2.mu;
  g.cs2_icn1 = icn1.cs2;
  g.cs2_ecn1 = ecn1.cs2;
  g.cs2_icn2 = icn2.cs2;
  g.ecn1_weight =
      (options.queue_rule == QueueLengthRule::kPaperEq6) ? 2.0 : 1.0;
  return g;
}

/// Group-level scenario fold: service cv^2, failure/repair and a fixed
/// arrival ca^2 are rate-independent; an engaged MMPP's effective ca^2
/// depends on the cell's rate and is resolved per cell below.
FixedPointOptions fold_scenario(const FixedPointOptions& options,
                                const WorkloadScenario& scenario) {
  WorkloadScenario fixed = scenario;
  fixed.mmpp.reset();
  return with_scenario(options, fixed, 0.0);
}

/// The cell's effective arrival ca^2 — the same mmpp_arrival_scv call
/// the scalar with_scenario makes at this rate.
double cell_arrival_ca2(const FixedPointOptions& folded,
                        const WorkloadScenario& scenario, double rate) {
  return scenario.mmpp.has_value() ? mmpp_arrival_scv(*scenario.mmpp, rate)
                                   : folded.arrival_ca2;
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

/// eq. (7) root function g(x); same expression as the scalar bisection.
double root_fn(const GroupConstants& g, double ca2, double lambda, double x) {
  return lambda * (g.n - queue_at(g, ca2, x)) / g.n - x;
}

FixedPointResult zero_rate_result() {
  return FixedPointResult{0.0, 0.0, 0, true};
}

void require_cell_rate(double rate) {
  require(std::isfinite(rate) && rate >= 0.0,
          "SystemConfig: generation rate must be >= 0");
}

// --- Picard -----------------------------------------------------------------

struct PicardSlot {
  std::size_t cell = 0;
  double lambda = 0.0;
  double ca2 = 1.0;
  double current = 0.0;
  double queue = 0.0;
};

/// Advances every slot one Picard step per sweep; converged slots retire
/// in place (stable compaction). State transitions mirror solve_picard
/// exactly: a converged cell reports the post-update iterate and the
/// queue at it; an exhausted cell reports the final iterate with the
/// queue of the previous one.
void picard_lockstep(const GroupConstants& g, const FixedPointOptions& options,
                     std::vector<PicardSlot> slots, FixedPointResult* out) {
  for (std::uint32_t iter = 1;
       iter <= options.max_iterations && !slots.empty(); ++iter) {
    if (options.cancel != nullptr) options.cancel->check("fixed_point");
    std::size_t keep = 0;
    for (PicardSlot& slot : slots) {
      slot.queue = queue_at(g, slot.ca2, slot.current);
      const double candidate = slot.lambda * (g.n - slot.queue) / g.n;
      const double next = options.picard_damping * candidate +
                          (1.0 - options.picard_damping) * slot.current;
      if (std::fabs(next - slot.current) <=
          options.tolerance * slot.lambda) {
        out[slot.cell] =
            FixedPointResult{next, queue_at(g, slot.ca2, next), iter, true};
      } else {
        slot.current = next;
        slots[keep++] = slot;
      }
    }
    slots.resize(keep);
  }
  for (const PicardSlot& slot : slots) {
    out[slot.cell] = FixedPointResult{slot.current, slot.queue,
                                      options.max_iterations, false};
  }
}

void solve_picard_batch(const GroupConstants& g,
                        const FixedPointOptions& options, bool warm_start,
                        const std::vector<double>& rates,
                        const std::vector<double>& ca2s,
                        FixedPointResult* out) {
  // Cells that iterate (rate > 0), in grid order.
  std::vector<std::size_t> active;
  active.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] == 0.0) {
      out[i] = zero_rate_result();
    } else {
      active.push_back(i);
    }
  }
  if (active.empty()) return;

  auto make_slot = [&](std::size_t cell, double start) {
    PicardSlot slot;
    slot.cell = cell;
    slot.lambda = rates[cell];
    slot.ca2 = ca2s[cell];
    slot.current = start;
    return slot;
  };

  if (!warm_start) {
    std::vector<PicardSlot> slots;
    slots.reserve(active.size());
    for (const std::size_t cell : active) {
      slots.push_back(make_slot(cell, rates[cell]));  // the scalar start
    }
    picard_lockstep(g, options, std::move(slots), out);
    return;
  }

  // Pass 1: anchors (every kWarmStride-th active cell) solve cold.
  std::vector<PicardSlot> anchors;
  for (std::size_t pos = 0; pos < active.size(); pos += kWarmStride) {
    anchors.push_back(make_slot(active[pos], rates[active[pos]]));
  }
  picard_lockstep(g, options, std::move(anchors), out);

  // Pass 2: the cells between anchors start from their preceding
  // anchor's solved fixed point (clamped into (0, lambda]; the fixed
  // point never exceeds the offered rate).
  std::vector<PicardSlot> followers;
  for (std::size_t pos = 0; pos < active.size(); ++pos) {
    if (pos % kWarmStride == 0) continue;
    const std::size_t cell = active[pos];
    const std::size_t anchor = active[pos - pos % kWarmStride];
    const double warm = out[anchor].lambda_effective;
    const double start =
        (warm > 0.0 && warm < rates[cell]) ? warm : rates[cell];
    followers.push_back(make_slot(cell, start));
  }
  picard_lockstep(g, options, std::move(followers), out);
}

// --- Bisection --------------------------------------------------------------

struct BisectionSlot {
  std::size_t cell = 0;
  double lambda = 0.0;
  double ca2 = 1.0;
  double lo = 0.0;
  double hi = 0.0;
  std::uint32_t iterations = 0;
};

void bisection_lockstep(const GroupConstants& g,
                        const FixedPointOptions& options,
                        std::vector<BisectionSlot> slots,
                        FixedPointResult* out) {
  while (!slots.empty()) {
    if (options.cancel != nullptr) options.cancel->check("fixed_point");
    std::size_t keep = 0;
    for (BisectionSlot& slot : slots) {
      if (slot.iterations >= options.max_iterations ||
          (slot.hi - slot.lo) <= options.tolerance * slot.lambda) {
        // Report the stable side of the bracket (queue length finite).
        out[slot.cell] = FixedPointResult{
            slot.lo, queue_at(g, slot.ca2, slot.lo), slot.iterations,
            (slot.hi - slot.lo) <= options.tolerance * slot.lambda};
        continue;
      }
      ++slot.iterations;
      const double mid = 0.5 * (slot.lo + slot.hi);
      if (root_fn(g, slot.ca2, slot.lambda, mid) > 0.0) {
        slot.lo = mid;
      } else {
        slot.hi = mid;
      }
      slots[keep++] = slot;
    }
    slots.resize(keep);
  }
}

void solve_bisection_batch(const GroupConstants& g,
                           const FixedPointOptions& options, bool warm_start,
                           const std::vector<double>& rates,
                           const std::vector<double>& ca2s,
                           FixedPointResult* out) {
  std::vector<std::size_t> active;
  active.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double lambda = rates[i];
    if (lambda == 0.0) {
      out[i] = zero_rate_result();
      continue;
    }
    // g(lambda) <= 0 always; g(lambda) == 0 means the system is
    // load-free — same short-circuit (and iteration count) as scalar.
    if (root_fn(g, ca2s[i], lambda, lambda) >= 0.0) {
      out[i] = FixedPointResult{lambda, queue_at(g, ca2s[i], lambda), 1, true};
      continue;
    }
    active.push_back(i);
  }
  if (active.empty()) return;

  auto cold_slot = [&](std::size_t cell) {
    BisectionSlot slot;
    slot.cell = cell;
    slot.lambda = rates[cell];
    slot.ca2 = ca2s[cell];
    slot.lo = 0.0;  // g(0+) = lambda > 0
    slot.hi = rates[cell];
    return slot;
  };

  if (!warm_start) {
    std::vector<BisectionSlot> slots;
    slots.reserve(active.size());
    for (const std::size_t cell : active) slots.push_back(cold_slot(cell));
    bisection_lockstep(g, options, std::move(slots), out);
    return;
  }

  std::vector<BisectionSlot> anchors;
  for (std::size_t pos = 0; pos < active.size(); pos += kWarmStride) {
    anchors.push_back(cold_slot(active[pos]));
  }
  bisection_lockstep(g, options, std::move(anchors), out);

  // Followers shrink the initial bracket around their anchor's root: a
  // probe pair at anchor*(1 ± 1e-3) usually straddles the neighbouring
  // cell's root, replacing ~10 halvings of [0, lambda] with 2 evals.
  // When it does not straddle, the probe signs still cut the bracket on
  // the correct side, so the result stays a valid bisection from a
  // narrower start — never an approximation.
  std::vector<BisectionSlot> followers;
  for (std::size_t pos = 0; pos < active.size(); ++pos) {
    if (pos % kWarmStride == 0) continue;
    BisectionSlot slot = cold_slot(active[pos]);
    const std::size_t anchor = active[pos - pos % kWarmStride];
    const double warm = out[anchor].lambda_effective;
    if (warm > 0.0 && warm < slot.lambda) {
      const double probe_lo = warm * (1.0 - 1e-3);
      const double probe_hi = std::min(slot.lambda, warm * (1.0 + 1e-3));
      if (probe_lo > 0.0 && root_fn(g, slot.ca2, slot.lambda, probe_lo) > 0.0) {
        slot.lo = probe_lo;
        if (root_fn(g, slot.ca2, slot.lambda, probe_hi) <= 0.0) {
          slot.hi = probe_hi;
        }
      } else if (probe_lo > 0.0) {
        slot.hi = probe_lo;
      }
    }
    followers.push_back(slot);
  }
  bisection_lockstep(g, options, std::move(followers), out);
}

/// Same option validation as solve_effective_rate, hoisted per group.
void validate_options(const FixedPointOptions& options) {
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
}

void record_batch_obs(const FixedPointResult* results, std::size_t count) {
  HMCS_OBS_COUNTER_INC("analytic.batch.groups");
  HMCS_OBS_COUNTER_ADD("analytic.batch.cells", count);
  HMCS_OBS_COUNTER_ADD("analytic.fixed_point.solves", count);
  std::uint64_t iterations = 0;
  std::uint64_t nonconverged = 0;
  for (std::size_t i = 0; i < count; ++i) {
    iterations += results[i].iterations;
    nonconverged += results[i].converged ? 0 : 1;
  }
  HMCS_OBS_COUNTER_ADD("analytic.fixed_point.iterations", iterations);
  if (nonconverged != 0) {
    HMCS_OBS_COUNTER_ADD("analytic.fixed_point.nonconverged", nonconverged);
  }
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

}  // namespace

std::vector<FixedPointResult> solve_effective_rate_batch(
    const RateGrid& grid, const FixedPointOptions& options,
    const BatchOptions& batch) {
  SystemConfig base = grid.base;
  base.generation_rate_per_us = 0.0;  // cell rates are validated below
  base.validate();
  // Fold the base config's workload scenario into the group's options;
  // an MMPP resolves to one effective ca^2 per cell (rate-dependent).
  const FixedPointOptions fp = fold_scenario(options, base.scenario);
  validate_options(fp);
  require(fp.method != SourceThrottling::kExactMva ||
              !base.scenario.mmpp.has_value(),
          "fixed_point: exact MVA requires Poisson arrivals and no "
          "failure/repair (product form)");
  for (const double rate : grid.rates_per_us) require_cell_rate(rate);

  std::vector<FixedPointResult> results(grid.rates_per_us.size());
  if (results.empty()) return results;

  const CenterServiceTimes service = center_service_times(base);
  const GroupConstants g = make_constants(base, service, fp);
  std::vector<double> ca2s(grid.rates_per_us.size(), fp.arrival_ca2);
  if (base.scenario.mmpp.has_value()) {
    for (std::size_t i = 0; i < grid.rates_per_us.size(); ++i) {
      ca2s[i] = cell_arrival_ca2(fp, base.scenario, grid.rates_per_us[i]);
    }
  }

  switch (fp.method) {
    case SourceThrottling::kNone:
      for (std::size_t i = 0; i < grid.rates_per_us.size(); ++i) {
        const double lambda = grid.rates_per_us[i];
        results[i] =
            FixedPointResult{lambda, queue_at(g, ca2s[i], lambda), 0, true};
      }
      break;
    case SourceThrottling::kPicard:
      solve_picard_batch(g, fp, batch.warm_start, grid.rates_per_us, ca2s,
                         results.data());
      break;
    case SourceThrottling::kBisection:
      solve_bisection_batch(g, fp, batch.warm_start, grid.rates_per_us, ca2s,
                            results.data());
      break;
    case SourceThrottling::kExactMva: {
      // The positive-rate cells, solved together by the lane-parallel
      // station-class recursion (mva.hpp).
      const HmcsMvaClassLayout layout =
          build_hmcs_mva_class_layout(base, service);
      std::vector<std::size_t> cells;
      std::vector<MvaClassNetwork> networks;
      for (std::size_t i = 0; i < grid.rates_per_us.size(); ++i) {
        if (grid.rates_per_us[i] == 0.0) {
          results[i] = zero_rate_result();
        } else {
          cells.push_back(i);
          networks.push_back(
              MvaClassNetwork{layout.classes, 1.0 / grid.rates_per_us[i]});
        }
      }
      const std::vector<MvaClassResult> solved =
          solve_closed_mva_classes_batch(networks, base.total_nodes(),
                                         fp.cancel);
      for (std::size_t k = 0; k < cells.size(); ++k) {
        results[cells[k]] =
            detail::mva_fixed_point(layout, solved[k], base.total_nodes());
      }
      break;
    }
  }
  record_batch_obs(results.data(), results.size());
  return results;
}

std::vector<LatencyPrediction> predict_latency_batch(
    const SystemConfig* const* configs, std::size_t count,
    const ModelOptions& options, const BatchOptions& batch) {
  std::vector<LatencyPrediction> out(count);
  // Positive-rate kExactMva cells are gathered over the whole chunk, of
  // any topology, and solved together once every group is validated.
  std::vector<MvaGroup> mva_groups;
  std::vector<MvaCell> mva_cells;
  for (std::size_t i = 0; i < count; /* advanced below */) {
    require(configs[i] != nullptr, "predict_latency_batch: null config");
    std::size_t end = i + 1;
    while (end < count && configs[end] != nullptr &&
           same_topology(*configs[i], *configs[end])) {
      ++end;
    }

    const SystemConfig& base = *configs[i];
    base.validate();
    RateGrid grid;
    grid.base = base;
    grid.rates_per_us.reserve(end - i);
    for (std::size_t cell = i; cell < end; ++cell) {
      grid.rates_per_us.push_back(configs[cell]->generation_rate_per_us);
    }

    const double p =
        inter_cluster_probability(base.clusters, base.nodes_per_cluster);
    const CenterServiceTimes service = center_service_times(base);
    const FixedPointOptions group_fp =
        fold_scenario(options.fixed_point, base.scenario);
    // Per-cell epilogue options: only the MMPP-derived ca^2 varies.
    const auto cell_fp = [&](double rate) {
      FixedPointOptions fp = group_fp;
      fp.arrival_ca2 = cell_arrival_ca2(group_fp, base.scenario, rate);
      return fp;
    };

    if (options.fixed_point.method == SourceThrottling::kExactMva) {
      // Positive-rate cells take the closed-network MVA solution;
      // zero-rate cells route through the open-network epilogue with the
      // converged-at-zero fixed point — exactly predict_latency's split.
      validate_options(group_fp);
      require(!base.scenario.mmpp.has_value(),
              "fixed_point: exact MVA requires Poisson arrivals and no "
              "failure/repair (product form)");
      for (const double rate : grid.rates_per_us) require_cell_rate(rate);
      mva_groups.push_back(
          MvaGroup{build_hmcs_mva_class_layout(base, service), p, service});
      for (std::size_t k = 0; k < grid.rates_per_us.size(); ++k) {
        if (grid.rates_per_us[k] == 0.0) {
          out[i + k] = detail::finish_open_prediction(
              *configs[i + k], p, service, zero_rate_result(), cell_fp(0.0));
        } else {
          mva_cells.push_back(MvaCell{i + k, mva_groups.size() - 1,
                                      base.total_nodes()});
        }
      }
    } else {
      const std::vector<FixedPointResult> solved =
          solve_effective_rate_batch(grid, options.fixed_point, batch);
      for (std::size_t k = 0; k < solved.size(); ++k) {
        out[i + k] = detail::finish_open_prediction(
            *configs[i + k], p, service, solved[k],
            cell_fp(grid.rates_per_us[k]));
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
  std::vector<const SystemConfig*> pointers;
  pointers.reserve(configs.size());
  for (const SystemConfig& config : configs) pointers.push_back(&config);
  return predict_latency_batch(pointers.data(), pointers.size(), options,
                               batch);
}

}  // namespace hmcs::analytic
