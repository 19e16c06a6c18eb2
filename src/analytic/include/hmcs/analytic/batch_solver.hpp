#pragma once

/// \file batch_solver.hpp
/// Structure-of-arrays batch evaluation of the analytic model, and the
/// library's one fixed-point engine: solve_effective_rate and
/// predict_latency are one-cell calls of it, and the tree's
/// throttle-factor solve runs the same lockstep iteration as one cell
/// (tree_model.hpp). Sweeps and the serving tier evaluate dense grids of
/// configurations that share almost everything — the fixed-point solver
/// is the hot path (BENCH_serve.json / BENCH_sweep.json), and solving
/// the grid one cell at a time repeats validation, eq. (8), Section 5
/// service times, and the MVA layout for every cell.
///
/// The batch solvers hoist that shared precomputation out of the
/// per-cell loop and advance *all* active cells one solver iteration per
/// sweep over flat arrays (cells retire as they converge). For the
/// fixed-point methods, cells are grouped into contiguous runs sharing a
/// topology (equal in everything but the generation rate); a group of
/// one is a one-cell solve, so heterogeneous grids are never penalised.
/// Exact-MVA cells are not limited to such runs: the
/// positive-rate cells of the whole list, of any topology, are bucketed
/// by population and solved mva_lane_width() at a time by the
/// lane-parallel station-class recursion (mva.hpp).
///
/// Numerical contract (docs/PERFORMANCE.md):
///  - warm_start = false: every cell's iterate sequence is the one it
///    has when solved alone, so any grouping — one-cell calls included —
///    gives bit-identical results.
///  - warm_start = true (default): anchor cells (every kWarmStride-th
///    cell of a group) solve cold; the cells between them start from
///    their anchor's solved fixed point (continuation along the grid
///    axis). The iterate *trajectory* changes, the fixed point does not:
///    converged cells agree with a one-cell solve within the solver
///    tolerance. Non-converged cells are trajectory-dependent; studies
///    that must reproduce them exactly disable warm starts.
///
/// FixedPointOptions::residual_trace is honoured by one-cell calls and
/// ignored by larger batches (one buffer cannot hold interleaved
/// traces); everything else — method, queue rule, tolerance, damping,
/// cv², cancel token — behaves the same at every batch size.

#include <cstdint>
#include <vector>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/system_config.hpp"

namespace hmcs::analytic {

struct BatchOptions {
  /// Continuation warm starts (see file comment). Disable for iterate
  /// trajectories bit-identical to one-cell solves.
  bool warm_start = true;
};

/// Anchor stride of the warm-start scheme: cells 0, 8, 16, ... of a
/// group solve cold in lockstep, then the cells between them solve in a
/// second lockstep pass started from their preceding anchor's solution.
inline constexpr std::size_t kWarmStride = 8;

/// A structure-of-arrays rate grid: cell i is `base` with
/// generation_rate_per_us replaced by rates_per_us[i]. Everything else —
/// topology, technologies, architecture, message size — is shared, so
/// validation, eq. (8), service times, and the MVA class layout are
/// computed once for the whole grid. base's own rate field is ignored.
struct RateGrid {
  SystemConfig base;
  std::vector<double> rates_per_us;
};

/// Solves the blocked-source fixed point for every cell of the grid.
/// Output order matches rates_per_us. Throws hmcs::ConfigError for an
/// invalid base or a non-finite/negative cell rate, and Cancelled /
/// DeadlineExceeded through FixedPointOptions::cancel.
std::vector<FixedPointResult> solve_effective_rate_batch(
    const RateGrid& grid, const FixedPointOptions& options = {},
    const BatchOptions& batch = {});

/// Batch predict_latency over an arbitrary config list: contiguous runs
/// of configs sharing a topology are validated together and, for the
/// fixed-point methods, solved through the SoA core. Under kExactMva the
/// positive-rate cells of the whole list are gathered, bucketed by
/// population (total nodes) and solved together by
/// solve_closed_mva_classes_batch, whatever their topology. Per-cell
/// post-processing goes through the detail:: epilogues of
/// latency_model.hpp. Output order matches input order. predict_latency
/// is the one-cell call with warm starts off.
std::vector<LatencyPrediction> predict_latency_batch(
    const SystemConfig* const* configs, std::size_t count,
    const ModelOptions& options = {}, const BatchOptions& batch = {});

/// Convenience overload for value vectors (tests, bench drivers).
std::vector<LatencyPrediction> predict_latency_batch(
    const std::vector<SystemConfig>& configs, const ModelOptions& options = {},
    const BatchOptions& batch = {});

}  // namespace hmcs::analytic
