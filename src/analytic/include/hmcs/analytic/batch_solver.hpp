#pragma once

/// \file batch_solver.hpp
/// Structure-of-arrays batch evaluation of the analytic model, and the
/// library's one fixed-point engine: predict_latency is a one-cell call
/// of it, and the tree's throttle-factor solve runs the same lockstep
/// iteration as one cell (tree_model.hpp). Sweeps and the serving tier
/// evaluate dense grids of configurations that share almost everything
/// — the fixed-point solver is the hot path (BENCH_serve.json /
/// BENCH_sweep.json), and solving the grid one cell at a time repeats
/// validation, eq. (8), Section 5 service times, and the MVA layout for
/// every cell.
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
/// Numerical contract (docs/PERFORMANCE.md): every cell starts cold and
/// its iterate sequence is the one it has when solved alone, so any
/// grouping — one-cell calls included — gives bit-identical results.
///
/// FixedPointOptions::residual_trace is honoured by one-cell calls and
/// ignored by larger batches (one buffer cannot hold interleaved
/// traces); everything else — method, queue rule, tolerance, iteration
/// cap, damping, cancel token — behaves the same at every batch size.
/// The workload each cell is priced with is its config's
/// WorkloadScenario, an MMPP's ca² resolved at the cell's own rate.

#include <cstdint>
#include <vector>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/system_config.hpp"

namespace hmcs::analytic {

/// The value-vector overload's third parameter; perfbench/ spells its
/// call `predict_latency_batch(configs, options, {false})`. Every solve
/// starts cold, so only `false` is accepted.
struct BatchOptions {
  bool warm_start = false;
};

/// Batch predict_latency over an arbitrary config list: contiguous runs
/// of configs sharing a topology are validated together and, for the
/// fixed-point methods, solved through the SoA core. Under kExactMva the
/// positive-rate cells of the whole list are gathered, bucketed by
/// population (total nodes) and solved together by
/// solve_closed_mva_classes_batch, whatever their topology. Per-cell
/// post-processing goes through the detail:: epilogues of
/// latency_model.hpp. Output order matches input order. predict_latency
/// is the one-cell call.
std::vector<LatencyPrediction> predict_latency_batch(
    const SystemConfig* const* configs, std::size_t count,
    const ModelOptions& options = {});

/// Convenience overload for value vectors (tests, bench programs). Throws
/// hmcs::ConfigError when `batch.warm_start` is set.
std::vector<LatencyPrediction> predict_latency_batch(
    const std::vector<SystemConfig>& configs, const ModelOptions& options = {},
    const BatchOptions& batch = {});

}  // namespace hmcs::analytic
