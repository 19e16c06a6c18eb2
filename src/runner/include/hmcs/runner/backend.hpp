#pragma once

/// \file backend.hpp
/// The evaluation-backend interface of the sweep engine. A Backend turns
/// one SystemConfig into one PointResult; the three implementations wrap
/// the repo's three evaluators of the same model description —
///
///   AnalyticBackend  Section 4's closed-form model (predict_latency)
///   DesBackend       the centre-level validation simulator (Section 6)
///   FabricBackend    the switch-level netsim rendering of Figure 1
///
/// — so any study can pair any subset of them over one declarative sweep
/// (Thomasian's point that analysis and simulation are interchangeable
/// evaluations of one model). Backends must be thread-safe: the
/// SweepRunner calls predict() concurrently from its worker pool.

#include <cstdint>
#include <memory>
#include <string>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/system_config.hpp"
#include "hmcs/obs/trace.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/json.hpp"

namespace hmcs::runner {

/// Terminal disposition of one grid cell (docs/ROBUSTNESS.md). Backends
/// never set it — they throw or return; the runner assigns it from the
/// outcome of the final attempt plus the validity guardrails.
enum class CellStatus : std::uint8_t {
  kOk,        ///< evaluated, passed the guardrails
  kFailed,    ///< the backend threw (ConfigError, LogicError, ...)
  kTimedOut,  ///< the per-cell wall-clock deadline expired
  kDegraded,  ///< evaluated, but the result is suspect: non-converged
              ///< fixed point, saturated centre, or non-finite mean
  kSkipped,   ///< never evaluated (cancelled sweep / abandoned task)
};

/// Stable wire/report names: ok|failed|timed_out|degraded|skipped.
const char* to_string(CellStatus status);
/// Inverse of to_string; throws hmcs::ConfigError on unknown names.
CellStatus parse_cell_status(const std::string& name);

/// One backend's evaluation of one sweep point. mean_latency_us is the
/// headline number every backend fills; the diagnostic fields are
/// populated by the backends they apply to and left zero elsewhere.
struct PointResult {
  double mean_latency_us = 0.0;
  /// 95% CI half-width (0 for the deterministic analytic backend).
  double ci_half_us = 0.0;

  /// Analytic diagnostics (eq. 7 fixed point).
  double lambda_offered = 0.0;
  double lambda_effective = 0.0;
  bool converged = true;

  /// Simulation diagnostics.
  double effective_rate_per_us = 0.0;
  std::uint64_t messages_measured = 0;

  /// Switch-level diagnostics.
  double mean_switch_hops = 0.0;
  double max_switch_utilization = 0.0;

  /// Busiest service-centre busy fraction seen by this evaluation (DES:
  /// max over ICN1/ECN1/ICN2 roles and replications; fabric: busiest
  /// switch; analytic: 0). Feeds the saturation guardrail.
  double max_center_utilization = 0.0;

  /// Fault-tolerance record, filled by the runner (backends leave the
  /// defaults). `attempts` counts predict() calls actually made for
  /// this cell (0 = never executed); `error` holds the final attempt's
  /// exception message for kFailed/kTimedOut and the guardrail reason
  /// for kDegraded.
  CellStatus status = CellStatus::kOk;
  std::uint32_t attempts = 0;
  std::string error;
};

/// The one wire spelling of a PointResult's ten result members, shared
/// by journal cell lines and serve replies: one object in declaration
/// order, finite doubles exact (%.17g), non-finite ones as the strings
/// "nan"/"inf"/"-inf" (JSON has no spelling for them), and
/// messages_measured as a decimal string (exact for all 64 bits). The
/// fault-tolerance record (status, attempts, error) is not written.
void write_json(JsonWriter& json, const PointResult& result);

/// Reads write_json's object back bit for bit; status, attempts and
/// error keep their defaults. Throws hmcs::ConfigError, `prefix`
/// starting the message, on a missing member or a bad spelling.
PointResult point_result_from_json(const JsonValue& object,
                                   std::string_view prefix);

/// Per-point execution context handed to a backend: the point's
/// deterministic seed, its flat index and label (used for trace track
/// naming), the worker executing it, and the sweep's optional trace
/// session for simulated-time spans.
struct PointContext {
  std::size_t index = 0;
  std::uint32_t worker = 0;
  std::uint64_t seed = 1;
  /// 1-based attempt number; retries re-derive seed via
  /// retry_point_seed so attempt k is deterministic at any thread count.
  std::uint32_t attempt = 1;
  /// Names the point's trace tracks. The runner and the serving tier
  /// fill it only when `trace` is set and leave it empty otherwise.
  std::string label;
  std::shared_ptr<obs::TraceSession> trace;
  /// Per-cell cancellation/deadline token (valid for the duration of
  /// the predict() call); backends running open-ended loops thread it
  /// into them. Null when the sweep runs without deadlines.
  const util::CancelToken* cancel = nullptr;
};

/// Execution context for one evaluate_batch call: the flat index of the
/// chunk's first point (trace/debug labelling) and a chunk-wide
/// cancellation token (deadline = per-cell budget × chunk size).
struct BatchPointContext {
  std::size_t first_index = 0;
  std::uint32_t worker = 0;
  const util::CancelToken* cancel = nullptr;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Column label in tables/CSV/JSON; unique within one run_sweep call.
  virtual const std::string& name() const = 0;

  /// Evaluates one configuration. Must be const and thread-safe; the
  /// runner invokes it concurrently. Implementations use ctx.seed for
  /// any stochastic execution so results are scheduling-independent.
  virtual PointResult predict(const analytic::SystemConfig& config,
                              const PointContext& ctx) const = 0;

  /// Evaluates one nested topology (docs/COMPOSITION.md). Flat-shaped
  /// trees never arrive here: expand_sweep and serve::parse_request
  /// lower them to the SystemConfig they denote, which goes to
  /// predict(). The base implementation throws hmcs::ConfigError;
  /// AnalyticBackend and DesBackend override it. Same const and
  /// thread-safety contract as predict().
  virtual PointResult predict_tree(const analytic::ModelTree& tree,
                                   const PointContext& ctx) const;

  /// Largest chunk one evaluate_batch call accepts; 1 (the default)
  /// means the backend has no batch path and the runner calls predict()
  /// per cell. Backends whose per-point work is dominated by shared
  /// precomputation (the analytic model) return > 1.
  virtual std::size_t batch_capacity() const { return 1; }

  /// Evaluates `count` configurations into results[0, count). Only
  /// called when batch_capacity() > 1; the base implementation throws
  /// hmcs::LogicError. Same const/thread-safety contract as predict().
  /// A throw fails the whole chunk — the runner then falls back to
  /// per-cell predict() calls, so partial results must not be written.
  virtual void evaluate_batch(const analytic::SystemConfig* const* configs,
                              std::size_t count, const BatchPointContext& ctx,
                              PointResult* results) const;
};

/// Wraps analytic::predict_latency. Deterministic; ignores ctx.seed.
/// Threads the runner's per-cell cancel token into the solver so
/// deadlines bound even MVA-backed cells, and implements the batched
/// path through analytic::predict_latency_batch. Every solve starts
/// cold, so a batched sweep is bit-identical to the per-cell path cell
/// for cell (values and statuses), which keeps `hmcs_run --batch`
/// interchangeable with the scalar run.
class AnalyticBackend : public Backend {
 public:
  explicit AnalyticBackend(analytic::ModelOptions options = {},
                           std::string name = "analytic");

  const std::string& name() const override { return name_; }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override;
  /// predict_model_tree with this backend's fixed-point options.
  PointResult predict_tree(const analytic::ModelTree& tree,
                           const PointContext& ctx) const override;

  /// 4096 cells, but mva_lane_width() under exact MVA: a chunk solves
  /// its lane groups one after another on one worker, so a chunk of
  /// one group lets the workers share the groups. Cells are
  /// bit-identical at any grouping; only the scheduling moves.
  std::size_t batch_capacity() const override;
  void evaluate_batch(const analytic::SystemConfig* const* configs,
                      std::size_t count, const BatchPointContext& ctx,
                      PointResult* results) const override;

 private:
  analytic::ModelOptions options_;
  std::string name_;
};

/// Wraps the validation simulator sim::TreeSim: flat configs run on
/// their depth-2 lowering, nested trees as they are, both through the
/// same options and the one seeding protocol of the Figure 4-7 configs:
/// the replication harness (run_replications) derives every
/// replication's seed from ctx.seed, even for R = 1. With a trace
/// attached to the context, each point records its sim-time phase spans
/// and sampler counter tracks under pid 2 + ctx.index.
class DesBackend : public Backend {
 public:
  struct Options {
    /// Base options; seed is overwritten with ctx.seed per point.
    sim::SimOptions sim;
    std::uint32_t replications = 1;
  };

  explicit DesBackend(Options options, std::string name = "des");

  const std::string& name() const override { return name_; }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override;
  /// The same simulation path as predict(), on the tree itself.
  /// max_center_utilization is the busiest role (ICN1, ECN1 or ICN2
  /// mean) for flat cells and the busiest centre for nested ones.
  PointResult predict_tree(const analytic::ModelTree& tree,
                           const PointContext& ctx) const override;

 private:
  Options options_;
  std::string name_;
};

/// Wraps the switch-granularity rendering: builds an netsim::HmcsFabric
/// for the configuration and runs netsim::SwitchFabricSim on it, with
/// store-and-forward switching and closed-loop sources (the fabric's
/// defaults).
class FabricBackend : public Backend {
 public:
  struct Options {
    std::uint64_t measured_messages = 10000;
    std::uint64_t warmup_messages = 2000;
  };

  FabricBackend() : FabricBackend(Options{}) {}
  explicit FabricBackend(Options options, std::string name = "fabric");

  const std::string& name() const override { return name_; }
  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override;

 private:
  Options options_;
  std::string name_;
};

}  // namespace hmcs::runner
