#pragma once

/// \file tree_sim.hpp
/// The validation simulator (Section 6): a discrete-event model of the
/// recursive ModelTree (docs/COMPOSITION.md) with one FIFO station per
/// queueing centre from analytic::tree_centers, so the simulator and
/// the analytic solver share node numbering and service times exactly.
/// It is the repo's one centre-level simulator: the flat SystemConfig
/// surface (multicluster_sim.hpp) lowers onto a depth-2 tree and runs
/// here, as does a heterogeneous Cluster-of-Clusters built as a tree.
///
/// Each processor thinks for an interval from its leaf's generation
/// rate (exponential, or a 2-state MMPP from the tree's scenario),
/// generates a message to a destination drawn from the traffic pattern,
/// and stays blocked until the message is delivered (assumption 4;
/// open-loop runs drop the blocking). A message from leaf group `a` to
/// leaf group `b` climbs the egress centres from a's parent up to
/// (exclusive) the lowest common ancestor, crosses the LCA's internal
/// network once, and descends the egress centres down to b's parent —
/// the stochastic counterpart of the tree model's LCA routing. At
/// depth 2 that is ICN1 alone for local messages and
/// ECN1 -> ICN2 -> ECN1 for remote ones. Every message is time-stamped
/// at generation and its latency recorded when delivered; the run
/// measures a fixed number of post-warm-up deliveries (the paper
/// gathers 10,000 messages).
///
/// The run is a loop over simcore::Simulator, the executive
/// SwitchFabricSim also runs on. An event is a plain 8-byte value — a
/// processor's think completion, a centre's departure or a sampler
/// tick — dispatched with a branch, not a type-erased call. The
/// stations are passive: the loop draws each service time and schedules
/// each departure itself, and a departure starts the next queued job
/// before the departed message moves on.
/// Streams that make only exponential draws (Poisson think times;
/// service times at cv^2 = 1 without failures) are drawn 64 ahead
/// (simcore::ExponentialStream), with the same values in the same order.
///
/// Role naming, one rule for every tree: the root's network is ICN2,
/// every other network ICN1[k] and every egress ECN1[k], with k the
/// centre's rank among its kind in tree_centers order (the cluster
/// index at depth 2). Role CenterStats, lifecycle-trace labels and
/// sampler probes all use it. Traffic patterns address processors by
/// leaf group in DFS order — the flat node numbering at depth 2. Every
/// message has the tree's message_bytes (assumption 6). The
/// reproducibility contract (docs/PERFORMANCE.md) fixes the
/// random-stream order, the service-mean form and the role summation
/// order; tests/test_sim_golden.cpp pins them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/obs/sampler.hpp"
#include "hmcs/obs/trace.hpp"
#include "hmcs/sim/trace.hpp"
#include "hmcs/simcore/histogram.hpp"
#include "hmcs/simcore/tally.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/workload/traffic_pattern.hpp"

namespace hmcs::sim {

struct SimOptions {
  /// Deliveries measured after warm-up; the paper's runs use 10,000.
  /// When target_relative_ci is set this becomes the *minimum* sample.
  std::uint64_t measured_messages = 10000;
  /// Deliveries discarded before statistics start.
  std::uint64_t warmup_messages = 2000;
  /// Precision-driven stopping: keep measuring past measured_messages
  /// until the batch-means 95% CI half-width falls below this fraction
  /// of the mean (e.g. 0.01 = ±1%), or message_cap is reached.
  /// 0 disables the rule (the paper's fixed-count protocol).
  double target_relative_ci = 0.0;
  /// Hard ceiling on measured deliveries under the precision rule.
  std::uint64_t message_cap = 400000;
  std::uint64_t seed = 1;
  /// Assumption 4 ablation: true (default) blocks a source while its
  /// message is in flight; false injects as an open Poisson stream.
  /// Open-loop runs match the SourceThrottling::kNone analytical model
  /// when every centre is stable, and diverge (growing queues) when the
  /// raw rates saturate a centre — which is exactly why the paper needs
  /// the eq. (7) correction.
  bool closed_loop = true;
  /// Destination selection over leaf groups in DFS order; null = the
  /// paper's uniform pattern.
  std::shared_ptr<const workload::TrafficPattern> traffic;
  /// Safety valve against configuration mistakes (0 = no limit).
  std::uint64_t max_events = 200'000'000;
  /// Cooperative cancellation / wall-clock deadline, polled every few
  /// thousand events so the hot path stays branch-cheap; run() unwinds
  /// with hmcs::Cancelled or hmcs::DeadlineExceeded. The token must
  /// outlive run(); null = never interrupted. The poll draws no random
  /// numbers, so an uninterrupted run is bit-identical with or without
  /// a token attached.
  const util::CancelToken* cancel = nullptr;
  /// Optional message-lifecycle trace (see trace.hpp); null = off.
  std::shared_ptr<TraceRecorder> trace;

  /// Observability hooks (see docs/OBSERVABILITY.md). Attaching them
  /// changes the executed-event count (sampler ticks ride the engine)
  /// but never the stochastic trajectory: the sampler draws no random
  /// numbers, so every latency and statistic matches an unobserved run.
  struct Observability {
    /// Simulated-time phase spans and queue-depth counter tracks are
    /// recorded here as Chrome trace events; null = off.
    std::shared_ptr<obs::TraceSession> trace;
    /// Perfetto process id grouping this run's tracks (keep distinct per
    /// concurrent run so counter tracks do not interleave).
    std::uint32_t trace_pid = 2;
    /// Period of the queue-depth sampler in simulated µs; 0 = off.
    double sample_interval_us = 0.0;
    /// Ring capacity per sampled series (oldest points drop beyond it).
    std::size_t sample_capacity = 8192;
  };
  Observability obs;
};

/// Aggregated observations for one centre role (ICN1/ECN1 aggregate
/// over their stations, ICN2 is the root's network alone).
struct CenterStats {
  double mean_wait_us = 0.0;
  double mean_service_us = 0.0;
  double mean_response_us = 0.0;
  /// Mean over the role's stations of per-station busy fraction.
  double utilization = 0.0;
  /// Mean over the role's stations of time-averaged number in system.
  double avg_queue_length = 0.0;
  std::uint64_t departures = 0;
};

/// Per-centre observations, in analytic::tree_centers order so entries
/// line up index-for-index with TreeLatencyPrediction::centers.
struct TreeCenterStats {
  std::string path;  ///< node path + ".icn" or ".egress"
  bool egress = false;
  double utilization = 0.0;
  double avg_queue_length = 0.0;
  double mean_response_us = 0.0;
  std::uint64_t departures = 0;
};

struct SimResult {
  std::uint64_t messages_measured = 0;
  double mean_latency_us = 0.0;
  simcore::ConfidenceInterval latency_ci{0.0, 0.0, 0.0};
  double min_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Exact order statistics over the measured window.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;

  /// Split by message kind (0 when a kind never occurred): a local
  /// message crosses one centre, a remote one more than one.
  double mean_local_latency_us = 0.0;
  double mean_remote_latency_us = 0.0;
  double remote_fraction = 0.0;

  /// Measured per-processor delivery rate over the window — the
  /// simulated counterpart of the model's lambda_effective.
  double effective_rate_per_us = 0.0;
  /// Time-averaged total customers over all stations — counterpart of
  /// the fixed point's L.
  double total_avg_queue_length = 0.0;
  /// Busiest centre's busy fraction (saturation diagnostic).
  double max_center_utilization = 0.0;

  double window_duration_us = 0.0;
  std::uint64_t events_executed = 0;

  CenterStats icn1;
  CenterStats ecn1;
  CenterStats icn2;
  std::vector<TreeCenterStats> centers;

  /// Run-health diagnostics surfaced by the observability layer.
  struct ObsStats {
    /// Simulated time at which warm-up ended and measurement began.
    double warmup_end_us = 0.0;
    /// Batch-means diagnostics for the latency CI (0 batches when the
    /// i.i.d. fallback was used).
    std::uint64_t batch_count = 0;
    double batch_lag1_autocorrelation = 0.0;
    /// Message-lifecycle TraceRecorder events rejected at capacity.
    std::uint64_t trace_dropped = 0;
    /// Queue-depth sampler ticks taken (0 when sampling was off).
    std::uint64_t samples_taken = 0;
    /// Engine diagnostics for this run's event queue.
    std::uint64_t events_pushed = 0;
    std::uint64_t calendar_resizes = 0;
    std::uint64_t sweep_fallbacks = 0;
    std::size_t peak_slot_capacity = 0;
  };
  ObsStats obs;
};

/// Aliases of the options and result types; perfbench/ spells them so.
using TreeSimOptions = SimOptions;
using TreeSimResult = SimResult;

class TreeSim {
 public:
  /// Validates the tree; requires >= 2 processors and every leaf
  /// generation rate > 0 (a silent source would never release its
  /// processor in a closed loop).
  TreeSim(analytic::ModelTree tree, SimOptions options);
  ~TreeSim();

  TreeSim(const TreeSim&) = delete;
  TreeSim& operator=(const TreeSim&) = delete;

  /// Executes one complete run. May be called once per instance.
  SimResult run();

  /// Latency histogram over the measured window (valid after run()),
  /// built on the first call.
  const simcore::Histogram& latency_histogram() const;

  /// Raw measured latencies in delivery order (valid after run()) — the
  /// input for external analyses such as simcore::mser_warmup.
  const std::vector<double>& measured_latencies() const;

  /// The queue-depth sampler, or null when options.obs.sample_interval_us
  /// was 0. Series cover the whole run (warm-up included).
  const obs::TimeSeriesSampler* sampler() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hmcs::sim
