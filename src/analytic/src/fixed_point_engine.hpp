#pragma once

/// \file fixed_point_engine.hpp
/// The one implementation of the blocked-source fixed point, eqs.
/// (6)-(7). Private to hmcs_analytic (not installed). Every solve runs
/// through these templates:
///  - predict_latency, as a one-cell call;
///  - predict_latency_batch, over SoA groups of cells sharing a
///    topology (batch_solver.cpp);
///  - the tree's throttle-factor solve (tree_model.cpp), as one cell at
///    rate 1 and start 1, where every lambda factor and divisor is
///    exactly 1.0 and the iterate is phi itself.
///
/// The solvers are templated on the queue-length evaluation:
/// `queue(cell, x)` returns L of cell `cell` at iterate x, capped at n.
/// The active cells advance in lockstep, one iteration per sweep, and
/// retire in place as they converge. Every cell starts cold and performs
/// exactly the operations of a plain scalar loop on its own, in the same
/// order, so the grouping never changes a result.
///
/// FixedPointOptions::residual_trace is appended to by every cell that
/// iterates: callers pass it only to one-cell solves (one buffer cannot
/// hold interleaved traces) and clear it first.

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/util/cancel.hpp"

namespace hmcs::analytic::detail {

/// The input check both analytic entry points, predict_latency_batch
/// and predict_model_tree, run before solving. Throws
/// hmcs::ConfigError unless the solver knobs are in domain (tolerance,
/// iterations, damping) and, under kExactMva, the workload is product
/// form: exponential service and no failure/repair in `scenario`, and
/// every resolved arrival ca² in `arrival_ca2s` equal to 1.
void validate_solve_inputs(const FixedPointOptions& options,
                           const WorkloadScenario& scenario,
                           std::span<const double> arrival_ca2s);

/// Records one engine call of `count` cells: analytic.batch.groups and
/// .cells, and analytic.fixed_point.solves, .iterations, .nonconverged,
/// .iterations_per_solve and .last_residual (from a non-empty residual
/// trace). Defined in batch_solver.cpp.
void record_solves(const FixedPointResult* results, std::size_t count,
                   const FixedPointOptions& options);

/// A source that never generates: lambda_eff = 0 and an empty system.
/// The lambda-relative residuals and tolerances would be 0/0 = NaN and a
/// vacuous `<= 0` test there, so this is converged at 0 in 0 iterations,
/// by definition.
inline FixedPointResult zero_rate_result() {
  return FixedPointResult{0.0, 0.0, 0, true};
}

// --- Picard -----------------------------------------------------------------

struct PicardSlot {
  std::size_t cell = 0;
  double lambda = 0.0;
  double current = 0.0;
  double queue = 0.0;
};

/// Advances every slot one step of the paper's eq. (7) recurrence per
/// sweep (with damping); converged slots retire in place (stable
/// compaction). A converged cell reports the post-update iterate and the
/// queue at it; an exhausted cell reports the final iterate with the
/// queue of the previous one. `where` labels the cancellation point.
template <class Queue>
void picard_lockstep(const Queue& queue, double n,
                     const FixedPointOptions& options, const char* where,
                     std::vector<PicardSlot> slots, FixedPointResult* out) {
  for (std::uint32_t iter = 1;
       iter <= options.max_iterations && !slots.empty(); ++iter) {
    if (options.cancel != nullptr) options.cancel->check(where);
    std::size_t keep = 0;
    for (PicardSlot& slot : slots) {
      slot.queue = queue(slot.cell, slot.current);
      const double candidate = slot.lambda * (n - slot.queue) / n;
      const double next = options.picard_damping * candidate +
                          (1.0 - options.picard_damping) * slot.current;
      if (options.residual_trace != nullptr) {
        options.residual_trace->push_back(std::fabs(next - slot.current) /
                                          slot.lambda);
      }
      if (std::fabs(next - slot.current) <= options.tolerance * slot.lambda) {
        out[slot.cell] =
            FixedPointResult{next, queue(slot.cell, next), iter, true};
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

/// Picard over every cell of a group, started at the offered rate.
template <class Queue>
void solve_picard(const Queue& queue, double n,
                  const FixedPointOptions& options, const char* where,
                  std::span<const double> rates, FixedPointResult* out) {
  std::vector<PicardSlot> slots;
  slots.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] == 0.0) {
      out[i] = zero_rate_result();
      continue;
    }
    PicardSlot slot;
    slot.cell = i;
    slot.lambda = rates[i];
    slot.current = rates[i];
    slots.push_back(slot);
  }
  picard_lockstep(queue, n, options, where, std::move(slots), out);
}

// --- Bisection --------------------------------------------------------------

struct BisectionSlot {
  std::size_t cell = 0;
  double lambda = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::uint32_t iterations = 0;
};

/// The monotone root function g(x) = lambda (N - L(x))/N - x of eq. (7).
template <class Queue>
double root_fn(const Queue& queue, double n, std::size_t cell, double lambda,
               double x) {
  return lambda * (n - queue(cell, x)) / n - x;
}

/// Halves every slot's bracket once per sweep until it is within
/// tolerance or out of iterations, then reports the stable side of the
/// bracket (queue length finite).
template <class Queue>
void bisection_lockstep(const Queue& queue, double n,
                        const FixedPointOptions& options, const char* where,
                        std::vector<BisectionSlot> slots,
                        FixedPointResult* out) {
  while (!slots.empty()) {
    if (options.cancel != nullptr) options.cancel->check(where);
    std::size_t keep = 0;
    for (BisectionSlot& slot : slots) {
      if (slot.iterations >= options.max_iterations ||
          (slot.hi - slot.lo) <= options.tolerance * slot.lambda) {
        out[slot.cell] = FixedPointResult{
            slot.lo, queue(slot.cell, slot.lo), slot.iterations,
            (slot.hi - slot.lo) <= options.tolerance * slot.lambda};
        continue;
      }
      ++slot.iterations;
      const double mid = 0.5 * (slot.lo + slot.hi);
      if (root_fn(queue, n, slot.cell, slot.lambda, mid) > 0.0) {
        slot.lo = mid;
      } else {
        slot.hi = mid;
      }
      if (options.residual_trace != nullptr) {
        options.residual_trace->push_back((slot.hi - slot.lo) / slot.lambda);
      }
      slots[keep++] = slot;
    }
    slots.resize(keep);
  }
}

/// Bisection of g on [0, lambda] over every cell of a group: g(0+) =
/// lambda > 0 and g(lambda) <= 0 always.
template <class Queue>
void solve_bisection(const Queue& queue, double n,
                     const FixedPointOptions& options, const char* where,
                     std::span<const double> rates, FixedPointResult* out) {
  std::vector<BisectionSlot> slots;
  slots.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double lambda = rates[i];
    if (lambda == 0.0) {
      out[i] = zero_rate_result();
      continue;
    }
    // g(lambda) == 0: the system is load-free at the offered rate.
    if (root_fn(queue, n, i, lambda, lambda) >= 0.0) {
      out[i] = FixedPointResult{lambda, queue(i, lambda), 1, true};
      continue;
    }
    BisectionSlot slot;
    slot.cell = i;
    slot.lambda = lambda;
    slot.hi = lambda;
    slots.push_back(slot);
  }
  bisection_lockstep(queue, n, options, where, std::move(slots), out);
}

}  // namespace hmcs::analytic::detail
