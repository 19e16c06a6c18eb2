#pragma once

/// \file sweep_runner.hpp
/// Executes the point×backend grid of a SweepSpec on a pool of worker
/// threads that claim tasks in index order from one shared counter.
/// Every cell (one backend evaluating one point) writes only its own
/// preallocated slot, and every point's seed is fixed at expansion
/// time, so the result is bit-identical to a serial run for any thread
/// count — the repo-wide determinism contract (CONTRIBUTING.md).
///
/// Fault tolerance (docs/ROBUSTNESS.md): each cell carries a terminal
/// CellStatus instead of poisoning the sweep. Under kFailFast (the
/// default, the historical semantics) the first failing cell's
/// exception is rethrown after the pool drains its in-flight work;
/// under kCollectAll failures are recorded in the cell — error string,
/// attempt count — and every other cell still runs. Bounded retries
/// re-derive the seed deterministically per attempt (retry_point_seed),
/// a per-cell wall-clock deadline is enforced cooperatively through
/// PointContext::cancel, validity guardrails demote suspect results to
/// kDegraded, and a JSON-lines journal (journal.hpp) makes any sweep
/// resumable with bit-identical merged output.
///
/// Observability: with a trace session attached, the sweep records one
/// wall-clock span per cell under pid 1 (tid = worker), and each
/// DES-backed point's simulator inherits the session with a distinct
/// pid (2 + point index) so simulated-time phase spans land in their
/// own Perfetto process group. The sweep's total wall time feeds the
/// `runner.sweep.wall_time` timer metric; cell dispositions feed the
/// `runner.cells.*` counters.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hmcs/obs/trace.hpp"
#include "hmcs/runner/backend.hpp"
#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_spec.hpp"
#include "hmcs/util/cancel.hpp"

namespace hmcs::runner {

/// What a cell failure does to the rest of the sweep.
enum class FailurePolicy : std::uint8_t {
  /// Rethrow the first failing cell's exception from run_sweep and
  /// abandon the remaining cells — the historical behavior, and the
  /// right one for tests where any failure is a bug.
  kFailFast,
  /// Record the failure in the cell (status, error, attempts) and keep
  /// draining the grid — failures are data, not fatal errors.
  kCollectAll,
};

struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency. Results are identical
  /// for any value.
  std::uint32_t threads = 0;
  /// Cells per evaluate_batch call for backends advertising a batch
  /// path (batch_capacity() > 1); 0 (the default) evaluates every cell
  /// through predict(), preserving the historical execution exactly.
  /// A backend's chunks are capped at its batch_capacity() (for exact
  /// MVA, the CPU's MVA lane width). Chunk boundaries are fixed in
  /// point-index space (independent of thread count and resume state),
  /// chunks containing resumed cells re-evaluate the whole chunk but
  /// only write the pending cells, and
  /// a failing chunk falls back to per-cell predict() with the full
  /// retry/deadline machinery — so statuses, journals, and resume
  /// byte-identity are preserved. The chunk deadline is
  /// cell_deadline_ms × chunk size.
  std::uint32_t batch_cells = 0;
  /// Optional wall-clock + simulated-time trace session (see above).
  std::shared_ptr<obs::TraceSession> trace;

  /// Cell-failure isolation policy (kTimedOut counts as a failure for
  /// fail-fast purposes; kDegraded never does).
  FailurePolicy on_error = FailurePolicy::kFailFast;
  /// Maximum predict() attempts per cell (>= 1). Attempt k runs with
  /// retry_point_seed(point.seed, k), so retry outcomes are
  /// deterministic at any thread count.
  std::uint32_t max_attempts = 1;
  /// Per-cell wall-clock budget in milliseconds; 0 disables. Enforced
  /// cooperatively: the token is polled on the simulators' event-loop
  /// rare path, and an expired cell unwinds as kTimedOut.
  double cell_deadline_ms = 0.0;
  /// Saturation guardrail: a cell whose max_center_utilization reaches
  /// this busy fraction is marked kDegraded (a saturated centre's
  /// latency estimate is window-length artefact, not steady state).
  /// The default 1.0 only fires on a centre busy for the entire
  /// measurement window; non-converged fixed points and non-finite
  /// means are always demoted.
  double degraded_utilization = 1.0;

  /// Checkpoint journal; cells are recorded as they reach a terminal
  /// status. Null = no journaling. The writer must outlive run_sweep.
  JournalWriter* journal = nullptr;
  /// Resume source: cells completed in `resume` are not re-executed
  /// (whatever their status) and their recorded results are merged
  /// bit-identically. Shape and per-cell seeds must match the spec.
  const SweepJournal* resume = nullptr;
  /// Sweep-wide cancellation (e.g. SIGINT): pending cells become
  /// kSkipped, in-flight cells unwind and are left kSkipped too, and
  /// run_sweep returns the partial grid (fail-fast and collect-all
  /// alike). Must outlive run_sweep; null = not cancellable.
  const util::CancelToken* cancel = nullptr;
};

/// The executed grid: points in expansion order × backends in call
/// order, cells point-major.
struct SweepResult {
  std::string id;
  std::string title;
  std::vector<SweepPoint> points;
  std::vector<std::string> backend_names;
  std::vector<PointResult> cells;  ///< points.size() * backend_names.size()

  const PointResult& at(std::size_t point, std::size_t backend) const;
  /// Index of a backend by name; throws hmcs::ConfigError when absent.
  std::size_t backend_index(const std::string& name) const;

  /// Number of cells with the given terminal status.
  std::size_t count_status(CellStatus status) const;
  /// True when every cell is kOk or kDegraded — i.e. every cell has a
  /// usable (if flagged) number.
  bool all_evaluated() const;
};

/// Expands the spec and evaluates every point with every backend.
/// Under FailurePolicy::kFailFast throws what the backends throw (the
/// first failure wins; remaining tasks are abandoned); under
/// kCollectAll failures land in their cells and run_sweep only throws
/// for configuration errors of the sweep itself (empty expansion,
/// duplicate backends, resume-journal mismatch).
SweepResult run_sweep(const SweepSpec& spec,
                      const std::vector<std::shared_ptr<Backend>>& backends,
                      const RunnerOptions& options = {});

}  // namespace hmcs::runner
