#pragma once

/// \file mva.hpp
/// Exact Mean Value Analysis for single-class closed product-form
/// queueing networks (Reiser & Lavenberg). The simulated system is close
/// to such a network but not exactly one: each processor's messages
/// leave from its own cluster, so the DES has one customer class per
/// cluster, which MVA's single class averages (a scratch bias of at most
/// 1.5% on Figures 4-7, not a checked-in record: docs/MODEL.md §7).
///
/// The paper instead approximates the closed behaviour with the
/// open-network eqs. (6)-(7); SourceThrottling::kExactMva lets the
/// latency model use this solver, and the ablation bench quantifies how
/// much accuracy the paper's approximation gives away (it is substantial
/// near saturation, e.g. the C=2 point of Figure 4).

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace hmcs::util {
class CancelToken;  // util/cancel.hpp
}

namespace hmcs::analytic {

struct MvaStation {
  /// Expected visits per customer cycle (may be 0 for unused centres).
  double visit_ratio = 0.0;
  /// Service rate mu in messages per microsecond.
  double service_rate = 0.0;
};

struct MvaResult {
  /// System throughput X(N): completed cycles per microsecond.
  double throughput = 0.0;
  /// Per-station mean response time per visit (W_i), microseconds.
  std::vector<double> response_time_us;
  /// Per-station mean number in system (L_i).
  std::vector<double> queue_length;
  /// Mean time per cycle spent in queueing stations:
  /// sum_i v_i W_i = N/X - Z.
  double total_residence_us = 0.0;
};

/// Runs the exact MVA recursion for `population` customers over the
/// given stations plus one delay (think) stage of `think_time_us`.
/// Requires population >= 1, think_time_us >= 0, every service_rate > 0,
/// every visit_ratio >= 0, and a cycle that takes time: think_time_us > 0
/// or some visit_ratio > 0. The recursion is O(population * stations);
/// `cancel` (when non-null) is polled every 4096 population steps so
/// per-cell deadlines bound even huge populations (docs/ROBUSTNESS.md).
MvaResult solve_closed_mva(const std::vector<MvaStation>& stations,
                           double think_time_us, std::uint64_t population,
                           const util::CancelToken* cancel = nullptr);

// --- Station-class MVA ------------------------------------------------------

/// A class of `multiplicity` identical stations (same per-station visit
/// ratio and service rate). Exchangeability makes the exact MVA
/// recursion symmetric across the members of a class: every member has
/// the same queue length at every population, so the recursion only
/// needs one update per class instead of one per station. The HMCS
/// layout (C ICN1 + C ECN1 + 1 ICN2) collapses from 2C+1 stations to 3
/// classes — an asymptotic win in C for the O(N * stations) recursion.
struct MvaStationClass {
  /// Visit ratio of *each* member station (not the class aggregate).
  double visit_ratio = 0.0;
  double service_rate = 0.0;
  std::uint64_t multiplicity = 1;
};

struct MvaClassResult {
  /// System throughput X(N): completed cycles per microsecond.
  double throughput = 0.0;
  /// Per-class mean response time per visit at one member station (us).
  std::vector<double> response_time_us;
  /// Per-class mean number in system at *one* member station.
  std::vector<double> queue_length;
  /// sum_k m_k v_k W_k = N/X - Z, identical to MvaResult's definition.
  double total_residence_us = 0.0;
};

/// Exact MVA over station classes: algebraically identical to expanding
/// every class into `multiplicity` stations and running
/// solve_closed_mva, but costs O(population * classes). Floating-point
/// results agree with the expanded recursion to <= 1e-12 relative error
/// (the class path sums a class's cycle contribution as m*v*W where the
/// scalar path adds v*W m times, and multiplies by a hoisted 1/mu where
/// the scalar path divides by mu). Same preconditions as
/// solve_closed_mva, plus multiplicity >= 1. A one-network call of
/// solve_closed_mva_classes_batch: one lane of the same recursion.
MvaClassResult solve_closed_mva_classes(
    const std::vector<MvaStationClass>& classes, double think_time_us,
    std::uint64_t population, const util::CancelToken* cancel = nullptr);

/// One closed network of a lane-parallel solve: its station classes and
/// its think time.
struct MvaClassNetwork {
  std::span<const MvaStationClass> classes;
  double think_time_us = 0.0;
};

/// Lanes the station-class recursion advances per population step when
/// it solves two or more 3-class (HMCS layout) networks: eight vectors
/// of the widest kernel this CPU runs — 64 with AVX-512F, 32 with AVX2,
/// 16 on baseline x86-64 and elsewhere. The kernel is picked once per
/// process from the CPU's features; nothing else selects it. A lone or
/// left-over network, and any other class count, runs one baseline lane.
std::size_t mva_lane_width();

/// Solves independent station-class networks that share one population
/// and one class count, mva_lane_width() at a time (3 classes) or one
/// at a time: every population step is one loop over a group's lanes
/// (state stored class-major x lane, so it vectorises), and each lane
/// performs exactly the operations of solve_closed_mva_classes on its
/// network alone, in the same order — every result is bit-identical to
/// that one-network call on every kernel, since the project builds with
/// -ffp-contract=off. Each network is validated like
/// solve_closed_mva_classes. `cancel` is polled every 4096 population
/// steps; an overflow to a non-finite recursion state (which persists
/// once reached) is checked at the same polls and at the end. Output
/// order matches `networks`.
std::vector<MvaClassResult> solve_closed_mva_classes_batch(
    std::span<const MvaClassNetwork> networks, std::uint64_t population,
    const util::CancelToken* cancel = nullptr);

namespace detail {

/// One build of the station-class lane loop: the same source compiled
/// for one instruction set and run `lanes` networks per group.
struct MvaKernel {
  /// Solves one group of 2..lanes validated 3-class networks (spare
  /// lanes repeat the last network and are discarded).
  using GroupSolver = void (*)(const MvaClassNetwork* networks,
                               std::size_t count, std::uint64_t population,
                               const util::CancelToken* cancel,
                               MvaClassResult* out);

  /// "avx512f", "avx2", or the baseline build: "sse2" on x86-64 (built
  /// for the project's own target flags, SSE2 unless -march adds more)
  /// and "portable" elsewhere.
  std::string_view name;
  std::size_t lanes = 0;
  GroupSolver hmcs_group = nullptr;

  /// solve_closed_mva_classes_batch through this kernel: same
  /// validation, same results bit for bit.
  std::vector<MvaClassResult> solve(
      std::span<const MvaClassNetwork> networks, std::uint64_t population,
      const util::CancelToken* cancel = nullptr) const;
};

/// The kernels this CPU runs, widest first: the first is the one
/// solve_closed_mva_classes_batch uses, the last is the baseline build.
/// Tests and bench/solver_batch run each of them.
std::span<const MvaKernel> supported_mva_kernels();

}  // namespace detail

// --- Multi-class approximate MVA --------------------------------------------

/// One customer class: a cluster's processors in the heterogeneous
/// model. All classes share the stations (service rates are per-station)
/// but differ in population, think time, and visit ratios.
struct MvaClass {
  std::uint64_t population = 0;
  double think_time_us = 0.0;
  /// Visits per cycle at each station; size must match the station list.
  std::vector<double> visit_ratios;
};

struct MultiClassMvaResult {
  /// Per-class throughput X_c (cycles per microsecond).
  std::vector<double> throughput;
  /// response_time_us[c][i]: class-c mean response per visit at station i.
  std::vector<std::vector<double>> response_time_us;
  /// queue_length[i]: total customers at station i (all classes).
  std::vector<double> queue_length;
  std::uint32_t iterations = 0;
  bool converged = false;
};

/// Bard-Schweitzer approximate MVA for multi-class closed networks:
/// fixed-point iteration on L with the (N_c-1)/N_c self-exclusion
/// correction. Typical accuracy is within a few percent of exact MVA,
/// whose multi-class recursion costs prod_c (N_c+1) states and is
/// infeasible beyond toy populations. Service rates must be > 0;
/// classes with zero population are rejected. `cancel` (when non-null)
/// is polled once per iteration.
MultiClassMvaResult solve_multiclass_amva(
    const std::vector<double>& station_service_rates,
    const std::vector<MvaClass>& classes,
    const util::CancelToken* cancel = nullptr, double tolerance = 1e-10,
    std::uint32_t max_iterations = 10000);

// --- HMSCS-shaped network ---------------------------------------------------

struct SystemConfig;   // system_config.hpp
struct CenterServiceTimes;  // service_time.hpp

/// Station layout of the HMSCS closed network: C ICN1 stations (visit
/// ratio (1-P)/C each), C ECN1 stations (2P/C each, covering the source
/// and destination ECN1 visits of a remote message), one ICN2 (P).
struct HmcsMvaLayout {
  std::vector<MvaStation> stations;
  std::size_t icn1_index = 0;  ///< first ICN1 station
  std::size_t ecn1_index = 0;  ///< first ECN1 station
  std::size_t icn2_index = 0;
};

HmcsMvaLayout build_hmcs_mva_layout(const SystemConfig& config,
                                    const CenterServiceTimes& service);

/// Class-collapsed HMCS layout: class 0 = the C ICN1 stations, class 1 =
/// the C ECN1 stations, class 2 = the single ICN2. Expanding it
/// reproduces build_hmcs_mva_layout station by station.
struct HmcsMvaClassLayout {
  std::vector<MvaStationClass> classes;
  std::size_t icn1_class = 0;
  std::size_t ecn1_class = 1;
  std::size_t icn2_class = 2;
};

HmcsMvaClassLayout build_hmcs_mva_class_layout(const SystemConfig& config,
                                               const CenterServiceTimes& service);

}  // namespace hmcs::analytic
