#pragma once

/// \file fixed_point.hpp
/// The blocked-source correction, eqs. (6)-(7). Assumption 4 says a
/// processor with a request in flight generates nothing, so the offered
/// rate lambda must be deflated by the fraction of processors currently
/// waiting:
///
///     L        = C (2 L_E1 + L_I1) + L_I2          (eq. 6)
///     lambda'  = lambda (N - L) / N                (eq. 7)
///
/// iterated to a fixed point. The paper iterates eq. (7) directly
/// (Picard); that recurrence oscillates once any centre saturates (L
/// snaps between ~0 and ~N), so we also provide a bisection solver on
/// the monotone root function
///
///     g(x) = lambda (N - L(x))/N - x,
///
/// which always converges: g(0+) > 0, g(lambda) <= 0, and L(x) is
/// non-decreasing. kPicard reproduces the paper's procedure (with
/// optional damping); kBisection is the library default; kNone disables
/// the correction entirely (for the ablation bench).
///
/// One engine iterates it: the batch solver's lockstep core
/// (batch_solver.hpp), which serves predict_latency (a one-cell call),
/// every grid, and the tree's throttle-factor solve (tree_model.hpp).

#include <cstdint>
#include <vector>

#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/system_config.hpp"

namespace hmcs::util {
class CancelToken;  // util/cancel.hpp
}

namespace hmcs::analytic {

enum class SourceThrottling {
  kNone,       ///< no blocked-source correction (ablation baseline)
  kPicard,     ///< the paper's eq. (7) iteration (with optional damping)
  kBisection,  ///< robust root solve of the same fixed point (default)
  /// Exact Mean Value Analysis of the underlying closed network — more
  /// accurate than the paper's open-network approximation near
  /// saturation; see mva.hpp.
  kExactMva,
};

/// How eq. (6) counts the two ECN1 visits; see DESIGN.md note 1.
enum class QueueLengthRule {
  kPaperEq6,    ///< literal eq. (6): L = C (2 L_E1 + L_I1) + L_I2
  kConsistent,  ///< L_E1 already covers both visits: C (L_E1 + L_I1) + L_I2
};

/// The solver's knobs. The workload it prices (service cs^2, arrival
/// ca^2 or MMPP, failure/repair) is the model's, not the solver's: it
/// comes from the config's or tree's WorkloadScenario (workload.hpp),
/// the one place the simulators read it too.
struct FixedPointOptions {
  SourceThrottling method = SourceThrottling::kBisection;
  QueueLengthRule queue_rule = QueueLengthRule::kPaperEq6;
  /// Convergence tolerance on lambda_eff, relative to lambda.
  double tolerance = 1e-12;
  std::uint32_t max_iterations = 200;
  /// Picard damping: next = damping*candidate + (1-damping)*previous.
  /// 1.0 is the paper's undamped recurrence.
  double picard_damping = 0.5;
  /// Observability: when non-null, the solver appends one dimensionless
  /// residual per iteration — |next - current| / lambda for Picard, the
  /// bracket width (hi - lo) / lambda for bisection (which therefore
  /// halves every entry). kNone/kExactMva record nothing. The vector is
  /// cleared first, so one buffer can be reused across solves. Honoured
  /// by one-cell solves (predict_latency, a one-cell batch, a tree's
  /// throttle factor); larger batches ignore it.
  std::vector<double>* residual_trace = nullptr;
  /// Cooperative cancellation/deadline token, polled by the iterative
  /// solvers once per iteration and by the exact-MVA recursion every
  /// 4096 population steps, so per-cell deadlines (docs/ROBUSTNESS.md)
  /// bound even total_nodes = 2^20 MVA solves. Null = not cancellable.
  const util::CancelToken* cancel = nullptr;
};

struct FixedPointResult {
  /// The self-consistent effective per-processor rate.
  double lambda_effective;
  /// L at lambda_effective, capped at N (all processors blocked).
  double total_queue_length;
  /// Iterations of the chosen solver. The exact-MVA path reports its
  /// population steps here (one recursion step per customer), which is
  /// why the field is 64-bit: total_nodes is a std::uint64_t and
  /// populations >= 2^32 must not truncate.
  std::uint64_t iterations;
  bool converged;
};

/// Total waiting-processor count L(lambda_eff) per options.queue_rule,
/// capped at N; N when any centre is saturated at that rate. Every
/// centre is priced with config.scenario: its service cs^2 and
/// failure/repair fold (effective_service) and its arrival ca^2, an
/// MMPP's resolved at the config's offered rate (arrival_scv), as the
/// engine does.
double total_queue_length(const SystemConfig& config,
                          const CenterServiceTimes& service,
                          double lambda_effective,
                          const FixedPointOptions& options);

struct HmcsMvaClassLayout;  // mva.hpp
struct MvaClassResult;      // mva.hpp

namespace detail {

/// The kExactMva fixed point of a solved station-class recursion over
/// `layout`: lambda_eff = X/N, total queue sum_k m_k L_k, and one
/// iteration per customer. The fixed-point part of the kExactMva
/// latency prediction.
FixedPointResult mva_fixed_point(const HmcsMvaClassLayout& layout,
                                 const MvaClassResult& mva,
                                 std::uint64_t total_nodes);

}  // namespace detail

}  // namespace hmcs::analytic
