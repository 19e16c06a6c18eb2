#include "hmcs/analytic/mva.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <utility>

#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/system_config.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

namespace {

/// Deadline/cancel poll cadence for the O(population) recursions — the
/// same rare-path granularity the simulators use (every 4096 events).
constexpr std::uint64_t kMvaCancelPollMask = 4095;
constexpr std::uint64_t kMvaPollSteps = kMvaCancelPollMask + 1;

/// Class count of the HMCS layout (ICN1, ECN1, ICN2), which the lane
/// kernel is also compiled for as a constant.
constexpr std::size_t kHmcsClasses = 3;

/// A cycle must take time: with no think time and no visited station
/// the first step would divide by a zero cycle.
void require_positive_cycle(double think_time_us, bool visits_a_station) {
  require(think_time_us > 0.0 || visits_a_station,
          "mva: think time 0 needs a station with visit ratio > 0");
}

void validate_class_network(std::span<const MvaStationClass> classes,
                            double think_time_us) {
  require(std::isfinite(think_time_us) && think_time_us >= 0.0,
          "mva: think time must be >= 0");
  bool visits_a_station = false;
  for (const MvaStationClass& cls : classes) {
    require(std::isfinite(cls.visit_ratio) && cls.visit_ratio >= 0.0,
            "mva: visit ratios must be >= 0");
    require(std::isfinite(cls.service_rate) && cls.service_rate > 0.0,
            "mva: service rates must be > 0");
    require(cls.multiplicity >= 1, "mva: class multiplicity must be >= 1");
    visits_a_station = visits_a_station || cls.visit_ratio > 0.0;
  }
  require_positive_cycle(think_time_us, visits_a_station);
}

/// One station class across the L lanes of a solve, class-major x lane:
/// lane j's constants and recursion state sit at index j of contiguous
/// arrays, so the step's loop over the lanes vectorises.
template <std::size_t L>
struct LaneClass {
  /// 1/mu, hoisted: the step then carries one division (n / cycle)
  /// instead of k+1, which shortens its loop-carried dependency chain.
  /// It costs an ulp on W against the station recursion's (1 + l)/mu,
  /// well inside the <= 1e-12 contract.
  double inv_rate[L];
  double class_visits[L];  ///< m v: the class's share of the cycle
  double visit_ratio[L];
  double w[L];  ///< response time per visit at one member station
  double l[L];  ///< queue length at one member station
};

/// The state check of the lane kernel. After validation a cycle is
/// positive until the recursion overflows, and a non-finite state
/// persists once reached (inf turns into NaN within two steps, and NaN
/// propagates), so polling it every kMvaPollSteps steps and at the end
/// replaces a per-step guard.
template <std::size_t L, typename Classes>
void ensure_finite(const Classes& classes, const double (&x)[L]) {
  bool finite = true;
  for (std::size_t j = 0; j < L; ++j) finite = finite && std::isfinite(x[j]);
  for (const LaneClass<L>& cls : classes) {
    for (std::size_t j = 0; j < L; ++j) {
      finite = finite && std::isfinite(cls.l[j]);
    }
  }
  ensure(finite, "mva: recursion overflowed to a non-finite state");
}

/// The station-class recursion, L lanes at a time (count <= L networks;
/// spare lanes repeat the last network and are discarded). The station
/// recursion keeps identical stations equal (they start at L = 0 and
/// receive identical updates), so one update per class is exact, with
/// the class's cycle contribution m_k v_k W_k. Each population step is
/// one loop over the lanes, each running its whole step:
///   W_k = (1 + L_k) * (1/mu_k);  cycle = Z + sum_k m_k v_k W_k;
///   X = n / cycle;  L_k = X v_k W_k
/// — the same operations in the same order for every lane, so each lane
/// is bit-identical to a one-lane solve of its network on every
/// instruction set, as long as no a*b+c is contracted into an FMA: the
/// project builds with -ffp-contract=off. The class loops unroll and
/// the lane loop vectorises with cycle and X in registers.
///
/// K is the class count when it is known at compile time (kHmcsClasses),
/// or 0 for any other count, which runs one lane only: a run-time class
/// loop inside the lane loop does not vectorise. A fixed count keeps a
/// single lane's state in registers. Always inlined, so each per-ISA
/// wrapper below compiles the loop for its own instruction set.
template <std::size_t L, std::size_t K>
[[gnu::always_inline]] inline void solve_lanes(
    const MvaClassNetwork* networks, std::size_t count,
    std::uint64_t population, const util::CancelToken* cancel,
    MvaClassResult* out) {
  static_assert(K != 0 || L == 1, "a run-time class count runs one lane");
  const std::size_t k = K == 0 ? networks[0].classes.size() : K;
  std::conditional_t<K == 0, std::vector<LaneClass<L>>,
                     std::array<LaneClass<L>, K>>
      classes{};
  if constexpr (K == 0) classes.resize(k);
  double think[L];
  double x[L];
  for (std::size_t j = 0; j < L; ++j) {
    const MvaClassNetwork& network = networks[std::min(j, count - 1)];
    think[j] = network.think_time_us;
    x[j] = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const MvaStationClass& cls = network.classes[i];
      classes[i].inv_rate[j] = 1.0 / cls.service_rate;
      classes[i].class_visits[j] =
          static_cast<double>(cls.multiplicity) * cls.visit_ratio;
      classes[i].visit_ratio[j] = cls.visit_ratio;
      classes[i].w[j] = 0.0;
      classes[i].l[j] = 0.0;
    }
  }

  for (std::uint64_t done = 0; done < population;) {
    if (cancel != nullptr) cancel->check("mva");
    ensure_finite(classes, x);
    const std::uint64_t steps = std::min(population - done, kMvaPollSteps);
    for (std::uint64_t n = done + 1; n <= done + steps; ++n) {
      const double customers = static_cast<double>(n);
      for (std::size_t j = 0; j < L; ++j) {
        double cycle = think[j];
        for (LaneClass<L>& cls : classes) {
          cls.w[j] = (1.0 + cls.l[j]) * cls.inv_rate[j];
          cycle += cls.class_visits[j] * cls.w[j];
        }
        x[j] = customers / cycle;
        for (LaneClass<L>& cls : classes) {
          cls.l[j] = x[j] * cls.visit_ratio[j] * cls.w[j];
        }
      }
    }
    done += steps;
  }
  ensure_finite(classes, x);

  for (std::size_t j = 0; j < count; ++j) {
    MvaClassResult& result = out[j];
    result.throughput = x[j];
    result.response_time_us.resize(k);
    result.queue_length.resize(k);
    result.total_residence_us = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      result.response_time_us[i] = classes[i].w[j];
      result.queue_length[i] = classes[i].l[j];
      result.total_residence_us +=
          classes[i].class_visits[j] * classes[i].w[j];
    }
  }
}

/// Each build runs 8 vectors per group (lanes = doubles per vector x 8):
/// in the per-lane-step timings of docs/PERFORMANCE.md fewer wait on the
/// division, and more gain nothing with AVX2 and AVX-512.
constexpr std::size_t kVectorsPerGroup = 8;

template <std::size_t K>
void solve_lone(const MvaClassNetwork* networks, std::size_t count,
                std::uint64_t population, const util::CancelToken* cancel,
                MvaClassResult* out) {
  solve_lanes<1, K>(networks, count, population, cancel, out);
}

/// The baseline build: SSE2 (2 doubles) on x86-64, and the portable
/// loop at the same width elsewhere.
constexpr std::size_t kBaselineLanes = 2 * kVectorsPerGroup;

void solve_baseline(const MvaClassNetwork* networks, std::size_t count,
                    std::uint64_t population, const util::CancelToken* cancel,
                    MvaClassResult* out) {
  solve_lanes<kBaselineLanes, kHmcsClasses>(networks, count, population,
                                            cancel, out);
}

#if defined(__x86_64__)
constexpr std::size_t kAvx2Lanes = 4 * kVectorsPerGroup;
constexpr std::size_t kAvx512Lanes = 8 * kVectorsPerGroup;

[[gnu::target("avx2")]] void solve_avx2(const MvaClassNetwork* networks,
                                        std::size_t count,
                                        std::uint64_t population,
                                        const util::CancelToken* cancel,
                                        MvaClassResult* out) {
  solve_lanes<kAvx2Lanes, kHmcsClasses>(networks, count, population, cancel,
                                        out);
}

[[gnu::target("avx512f")]] void solve_avx512(
    const MvaClassNetwork* networks, std::size_t count,
    std::uint64_t population, const util::CancelToken* cancel,
    MvaClassResult* out) {
  solve_lanes<kAvx512Lanes, kHmcsClasses>(networks, count, population,
                                          cancel, out);
}
#endif

/// The kernels this CPU runs, widest first. Explicit dispatch rather
/// than target_clones, which cannot give each clone its own lane width
/// and would hide the narrower builds from the tests.
std::vector<detail::MvaKernel> detect_mva_kernels() {
  std::vector<detail::MvaKernel> kernels;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({"avx512f", kAvx512Lanes, solve_avx512});
  }
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({"avx2", kAvx2Lanes, solve_avx2});
  }
  kernels.push_back({"sse2", kBaselineLanes, solve_baseline});
#else
  kernels.push_back({"portable", kBaselineLanes, solve_baseline});
#endif
  return kernels;
}

}  // namespace

std::span<const detail::MvaKernel> detail::supported_mva_kernels() {
  static const std::vector<MvaKernel> kernels = detect_mva_kernels();
  return kernels;
}

std::size_t mva_lane_width() {
  return detail::supported_mva_kernels().front().lanes;
}

MvaResult solve_closed_mva(const std::vector<MvaStation>& stations,
                           double think_time_us, std::uint64_t population,
                           const util::CancelToken* cancel) {
  require(population >= 1, "mva: population must be >= 1");
  require(std::isfinite(think_time_us) && think_time_us >= 0.0,
          "mva: think time must be >= 0");
  bool visits_a_station = false;
  for (const MvaStation& station : stations) {
    require(std::isfinite(station.visit_ratio) && station.visit_ratio >= 0.0,
            "mva: visit ratios must be >= 0");
    require(std::isfinite(station.service_rate) && station.service_rate > 0.0,
            "mva: service rates must be > 0");
    visits_a_station = visits_a_station || station.visit_ratio > 0.0;
  }
  require_positive_cycle(think_time_us, visits_a_station);

  const std::size_t m = stations.size();
  MvaResult result;
  result.response_time_us.assign(m, 0.0);
  result.queue_length.assign(m, 0.0);

  // Exact recursion: W_i(n) = (1 + L_i(n-1)) / mu_i;
  // X(n) = n / (Z + sum_i v_i W_i(n)); L_i(n) = X(n) v_i W_i(n).
  for (std::uint64_t n = 1; n <= population; ++n) {
    if (cancel != nullptr && (n & kMvaCancelPollMask) == 1) {
      cancel->check("mva");
    }
    double cycle = think_time_us;
    for (std::size_t i = 0; i < m; ++i) {
      result.response_time_us[i] =
          (1.0 + result.queue_length[i]) / stations[i].service_rate;
      cycle += stations[i].visit_ratio * result.response_time_us[i];
    }
    ensure(cycle > 0.0, "mva: degenerate zero cycle time");
    result.throughput = static_cast<double>(n) / cycle;
    for (std::size_t i = 0; i < m; ++i) {
      result.queue_length[i] = result.throughput * stations[i].visit_ratio *
                               result.response_time_us[i];
    }
  }

  result.total_residence_us = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    result.total_residence_us +=
        stations[i].visit_ratio * result.response_time_us[i];
  }
  return result;
}

MvaClassResult solve_closed_mva_classes(
    const std::vector<MvaStationClass>& classes, double think_time_us,
    std::uint64_t population, const util::CancelToken* cancel) {
  const MvaClassNetwork network{classes, think_time_us};
  return std::move(solve_closed_mva_classes_batch(
      std::span<const MvaClassNetwork>(&network, 1), population, cancel)[0]);
}

std::vector<MvaClassResult> solve_closed_mva_classes_batch(
    std::span<const MvaClassNetwork> networks, std::uint64_t population,
    const util::CancelToken* cancel) {
  return detail::supported_mva_kernels().front().solve(networks, population,
                                                       cancel);
}

std::vector<MvaClassResult> detail::MvaKernel::solve(
    std::span<const MvaClassNetwork> networks, std::uint64_t population,
    const util::CancelToken* cancel) const {
  require(population >= 1, "mva: population must be >= 1");
  for (const MvaClassNetwork& network : networks) {
    require(network.classes.size() == networks[0].classes.size(),
            "mva: batched networks must share a class count");
    validate_class_network(network.classes, network.think_time_us);
  }

  // Wide groups exist for the HMCS layout only. A group of one network
  // runs a single lane of the baseline build; spare lanes add work.
  const bool hmcs =
      !networks.empty() && networks[0].classes.size() == kHmcsClasses;
  const std::size_t width = hmcs ? lanes : 1;
  std::vector<MvaClassResult> results(networks.size());
  for (std::size_t first = 0; first < networks.size(); first += width) {
    const std::size_t count = std::min(width, networks.size() - first);
    const GroupSolver solver =
        count > 1 ? hmcs_group
                  : (hmcs ? solve_lone<kHmcsClasses> : solve_lone<0>);
    solver(networks.data() + first, count, population, cancel,
           results.data() + first);
  }
  return results;
}

MultiClassMvaResult solve_multiclass_amva(
    const std::vector<double>& station_service_rates,
    const std::vector<MvaClass>& classes, const util::CancelToken* cancel,
    double tolerance, std::uint32_t max_iterations) {
  const std::size_t m = station_service_rates.size();
  const std::size_t k = classes.size();
  require(m >= 1, "amva: needs at least one station");
  require(k >= 1, "amva: needs at least one class");
  require(tolerance > 0.0, "amva: tolerance must be > 0");
  require(max_iterations >= 1, "amva: needs >= 1 iteration");
  for (const double mu : station_service_rates) {
    require(std::isfinite(mu) && mu > 0.0, "amva: service rates must be > 0");
  }
  for (const MvaClass& cls : classes) {
    require(cls.population >= 1, "amva: class populations must be >= 1");
    require(std::isfinite(cls.think_time_us) && cls.think_time_us >= 0.0,
            "amva: think times must be >= 0");
    require(cls.visit_ratios.size() == m,
            "amva: visit-ratio vector must match station count");
    for (const double v : cls.visit_ratios) {
      require(std::isfinite(v) && v >= 0.0, "amva: visit ratios must be >= 0");
    }
  }

  MultiClassMvaResult result;
  result.throughput.assign(k, 0.0);
  result.response_time_us.assign(k, std::vector<double>(m, 0.0));
  result.queue_length.assign(m, 0.0);

  // Per-class per-station queue lengths, seeded with the class spread
  // evenly over its visited stations (the standard Schweitzer start).
  std::vector<std::vector<double>> l(k, std::vector<double>(m, 0.0));
  for (std::size_t c = 0; c < k; ++c) {
    double visited = 0.0;
    for (const double v : classes[c].visit_ratios) visited += (v > 0.0);
    if (visited == 0.0) continue;
    for (std::size_t i = 0; i < m; ++i) {
      if (classes[c].visit_ratios[i] > 0.0) {
        l[c][i] = static_cast<double>(classes[c].population) / visited;
      }
    }
  }

  std::uint32_t iteration = 0;
  for (; iteration < max_iterations; ++iteration) {
    if (cancel != nullptr) cancel->check("amva");
    // Schweitzer estimate of the queue a class-c arrival sees at i:
    // everyone else's queue plus (N_c-1)/N_c of its own class's.
    double delta = 0.0;
    std::vector<std::vector<double>> next(k, std::vector<double>(m, 0.0));
    for (std::size_t c = 0; c < k; ++c) {
      const double population = static_cast<double>(classes[c].population);
      const double self_factor = (population - 1.0) / population;
      double cycle = classes[c].think_time_us;
      for (std::size_t i = 0; i < m; ++i) {
        double seen = self_factor * l[c][i];
        for (std::size_t other = 0; other < k; ++other) {
          if (other != c) seen += l[other][i];
        }
        result.response_time_us[c][i] =
            (1.0 + seen) / station_service_rates[i];
        cycle += classes[c].visit_ratios[i] * result.response_time_us[c][i];
      }
      ensure(cycle > 0.0, "amva: degenerate zero cycle time");
      result.throughput[c] = population / cycle;
      for (std::size_t i = 0; i < m; ++i) {
        next[c][i] = result.throughput[c] * classes[c].visit_ratios[i] *
                     result.response_time_us[c][i];
        delta = std::max(delta, std::fabs(next[c][i] - l[c][i]));
      }
    }
    l.swap(next);
    if (delta <= tolerance) {
      result.converged = true;
      break;
    }
  }
  result.iterations = iteration + 1;

  for (std::size_t i = 0; i < m; ++i) {
    double total = 0.0;
    for (std::size_t c = 0; c < k; ++c) total += l[c][i];
    result.queue_length[i] = total;
  }
  return result;
}

HmcsMvaLayout build_hmcs_mva_layout(const SystemConfig& config,
                                    const CenterServiceTimes& service) {
  config.validate();
  const double p =
      inter_cluster_probability(config.clusters, config.nodes_per_cluster);
  const double c = static_cast<double>(config.clusters);

  HmcsMvaLayout layout;
  layout.stations.reserve(2 * config.clusters + 1);
  layout.icn1_index = 0;
  for (std::uint32_t i = 0; i < config.clusters; ++i) {
    layout.stations.push_back(
        MvaStation{(1.0 - p) / c, service.icn1.service_rate()});
  }
  layout.ecn1_index = layout.stations.size();
  for (std::uint32_t i = 0; i < config.clusters; ++i) {
    layout.stations.push_back(
        MvaStation{2.0 * p / c, service.ecn1.service_rate()});
  }
  layout.icn2_index = layout.stations.size();
  layout.stations.push_back(MvaStation{p, service.icn2.service_rate()});
  return layout;
}

HmcsMvaClassLayout build_hmcs_mva_class_layout(
    const SystemConfig& config, const CenterServiceTimes& service) {
  config.validate();
  const double p =
      inter_cluster_probability(config.clusters, config.nodes_per_cluster);
  const double c = static_cast<double>(config.clusters);

  HmcsMvaClassLayout layout;
  layout.classes = {
      MvaStationClass{(1.0 - p) / c, service.icn1.service_rate(),
                      config.clusters},
      MvaStationClass{2.0 * p / c, service.ecn1.service_rate(),
                      config.clusters},
      MvaStationClass{p, service.icn2.service_rate(), 1},
  };
  return layout;
}

}  // namespace hmcs::analytic
