#include "hmcs/sim/tree_sim.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/simcore/batch_means.hpp"
#include "hmcs/simcore/distributions.hpp"
#include "hmcs/simcore/fifo_station.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/simulation.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::sim {

namespace {

/// Mean service time of a centre at message size M, in the affine form
/// fixed + M * per_byte. For blocking networks per_byte folds in the
/// eq. (20) bisection penalty, so the mean matches eq. (21). The
/// reproducibility contract fixes this form: it rounds differently from
/// ServiceTimeBreakdown::total_us.
double mean_service_us(const analytic::ServiceTimeBreakdown& b,
                       double message_bytes) {
  const double fixed_us = b.link_latency_us + b.switch_latency_us;
  const double per_byte_us =
      (b.transmission_us + b.blocking_us) / message_bytes;
  return fixed_us + message_bytes * per_byte_us;
}

/// One message. Slots are pooled and reused, so a slot id is unique
/// among in-flight messages; closed loop bounds the pool at one slot per
/// source, open loop grows it on demand.
struct MessageState {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  double generated_at = 0.0;
  std::vector<std::size_t> route;  ///< centre indices, in traversal order
  std::size_t hop = 0;
};

constexpr std::size_t kNoCenter = analytic::FlatNode::npos;
/// tree_centers lists the root's network first.
constexpr std::size_t kRootNetwork = 0;

/// An event in 8 bytes: its kind in the low two bits, above them the
/// processor whose think time ended or the centre whose job departs.
enum EventKind : std::uint64_t { kThinkDone, kDeparture, kSampleTick };
constexpr std::uint64_t kKindMask = 3;

constexpr std::uint64_t make_event(EventKind kind, std::uint64_t index) {
  return index << 2 | kind;
}

}  // namespace

struct TreeSim::Impl {
  explicit Impl(SimOptions run_options)
      : options(std::move(run_options)),
        simulator("TreeSim", options.max_events, options.cancel) {}

  analytic::ModelTree tree;
  analytic::FlatTreeView view;
  std::vector<analytic::TreeCenter> centers;
  SimOptions options;

  // --- derived topology tables -------------------------------------------
  std::vector<std::size_t> net_center;     ///< node -> centre index
  std::vector<std::size_t> egress_center;  ///< node -> centre (root: none)
  std::vector<std::uint32_t> node_level;   ///< root = 0
  std::vector<std::size_t> proc_leaf;      ///< processor -> leaf index
  /// Role members in tree_centers order; the root's network is ICN2.
  std::vector<std::size_t> icn1_centers;
  std::vector<std::size_t> ecn1_centers;

  // --- engine ---------------------------------------------------------------
  simcore::Simulator simulator;
  std::vector<simcore::FifoStation> stations;  ///< one per centre, same order
  std::vector<double> service_means_us;       ///< one per centre, same order
  /// Streams that draw only exponentials are read in blocks: the service
  /// streams under cv^2 = 1 without failures, the think stream of
  /// Poisson sources. Otherwise service_blocks is empty.
  std::vector<simcore::Rng> service_rngs;
  std::vector<simcore::ExponentialStream> service_blocks;
  simcore::Rng think_rng{0};
  simcore::ExponentialStream think_block{simcore::Rng{0}};
  simcore::Rng traffic_rng{0};
  /// Per-processor MMPP modulators; empty when sources are Poisson.
  std::vector<simcore::Mmpp2> modulators;

  std::vector<MessageState> messages;
  std::vector<std::uint32_t> free_slots;

  // --- observability --------------------------------------------------------
  std::optional<obs::TimeSeriesSampler> sampler;

  // --- measurement ----------------------------------------------------------
  bool measuring = false;
  bool done = false;
  bool has_run = false;
  double window_start = 0.0;
  std::uint64_t generated_total = 0;
  std::uint64_t pool_growths = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t measured_deliveries = 0;
  simcore::Tally latency;
  simcore::Tally local_latency;
  simcore::Tally remote_latency;
  std::vector<double> measured_samples;
  /// Built on the first latency_histogram() call.
  std::optional<simcore::Histogram> histogram;

  std::uint64_t total_processors() const { return view.total_processors; }

  /// The role rule: ICN2 for the root's network, ICN1[k] / ECN1[k] for
  /// the k-th non-root network / egress in tree_centers order — node
  /// index - 1, since every non-root node has exactly one of each.
  std::string role_label(std::size_t c) const {
    const analytic::TreeCenter& center = centers[c];
    if (center.node == 0) return "ICN2";
    return (center.egress ? "ECN1[" : "ICN1[") +
           std::to_string(center.node - 1) + "]";
  }

  void build() {
    const std::size_t internal_count = view.nodes.size();
    net_center.assign(internal_count, kNoCenter);
    egress_center.assign(internal_count, kNoCenter);
    for (std::size_t c = 0; c < centers.size(); ++c) {
      const analytic::TreeCenter& center = centers[c];
      (center.egress ? egress_center : net_center)[center.node] = c;
      if (center.node != 0) {
        (center.egress ? ecn1_centers : icn1_centers).push_back(c);
      }
    }
    node_level.assign(internal_count, 0);
    for (std::size_t u = 1; u < internal_count; ++u) {
      node_level[u] = node_level[view.nodes[u].parent] + 1;
    }
    proc_leaf.reserve(total_processors());
    for (std::size_t l = 0; l < view.leaves.size(); ++l) {
      proc_leaf.insert(proc_leaf.end(), view.leaves[l].processors, l);
    }

    // Draw order (docs/PERFORMANCE.md): the think, traffic and size
    // streams, then one service stream per centre in node post-order,
    // network before egress — ICN1_0, ECN1_0, ..., ICN2 at depth 2.
    // Messages have the tree's fixed size, so the size stream draws
    // nothing; it is still split so every service stream keeps its seed.
    simcore::Rng master(options.seed);
    think_rng = master.split();
    traffic_rng = master.split();
    master.split();
    service_rngs.assign(centers.size(), simcore::Rng{0});
    auto split_post_order = [&](auto&& self, std::size_t u) -> void {
      for (const std::size_t child : view.nodes[u].internal_children) {
        self(self, child);
      }
      service_rngs[net_center[u]] = master.split();
      if (u != 0) service_rngs[egress_center[u]] = master.split();
    };
    split_post_order(split_post_order, 0);

    stations.reserve(centers.size());
    for (std::size_t c = 0; c < centers.size(); ++c) {
      stations.emplace_back(role_label(c));
      service_means_us.push_back(
          mean_service_us(centers[c].service, tree.message_bytes));
    }
    if (tree.scenario.service_cv2 == 1.0 &&
        !tree.scenario.failure.has_value()) {
      service_blocks = std::vector<simcore::ExponentialStream>(
          service_rngs.begin(), service_rngs.end());
    }

    const std::uint64_t n = total_processors();
    messages.resize(n);
    free_slots.reserve(n);
    for (std::uint64_t i = n; i > 0; --i) {
      free_slots.push_back(static_cast<std::uint32_t>(i - 1));
    }

    if (tree.scenario.mmpp.has_value()) {
      modulators.reserve(n);
      for (std::uint64_t proc = 0; proc < n; ++proc) {
        const analytic::MmppRates rates =
            analytic::resolve_mmpp(*tree.scenario.mmpp, proc_rate(proc));
        simcore::Mmpp2 modulator(rates.base_rate, rates.burst_rate,
                                 rates.leave_base, rates.leave_burst);
        // Seed each source's modulator from the stationary distribution
        // so the arrival stream starts in equilibrium.
        modulator.set_bursty(
            think_rng.bernoulli(tree.scenario.mmpp->burst_fraction));
        modulators.push_back(modulator);
      }
    }
    think_block = simcore::ExponentialStream(think_rng);

    // Warm-up statistics would be dropped at the cut, so the stations
    // hold them until begin_measurement resets them.
    if (options.warmup_messages == 0) {
      measuring = true;
    } else {
      for (auto& station : stations) station.hold_statistics();
    }

    init_observability();
  }

  /// Service time of the next job at centre `c`. The default scenario
  /// (cv^2 = 1, no failures) makes exactly one exponential draw per
  /// service; cv^2 = 0 draws nothing.
  double draw_service(std::size_t c) {
    const double mean = service_means_us[c];
    if (mean <= 0.0) return 0.0;
    if (!service_blocks.empty()) return service_blocks[c].exponential(mean);
    simcore::Rng& rng = service_rngs[c];
    double service =
        simcore::variate_cv2(rng, mean, tree.scenario.service_cv2);
    if (tree.scenario.failure.has_value()) {
      // Preemptive-resume breakdowns: failures arrive Poisson over the
      // work requirement and each adds an exponential repair.
      const analytic::FailureRepair& f = *tree.scenario.failure;
      if (f.mttr_us > 0.0) {
        const std::uint64_t failures =
            simcore::poisson(rng, service / f.mtbf_us);
        for (std::uint64_t i = 0; i < failures; ++i) {
          service += rng.exponential(f.mttr_us);
        }
      }
    }
    return service;
  }

  simcore::SimTime now() const { return simulator.now(); }

  /// Puts the head of centre c's line into service: draw, then push.
  void start_service(std::size_t c) {
    simcore::FifoStation& station = stations[c];
    const double service = draw_service(c);
    station.begin_service(service, now());
    simulator.schedule(service, make_event(kDeparture, c));
  }

  /// A departure starts the next queued job before the departed message
  /// moves on: ties between same-time events depend on this order.
  void depart(std::size_t c) {
    const std::uint64_t id = stations[c].complete_service(now()).job.id;
    if (stations[c].has_waiting()) start_service(c);
    trace(TraceEventKind::kDeparted, id, c);
    advance(id);
  }

  /// Records a trace event; the centre label is copied only when a
  /// recorder is attached, so a disabled trace costs no allocation.
  void trace(TraceEventKind kind, std::uint64_t id, std::size_t center) {
    if (!options.trace) return;
    const MessageState& msg = messages[static_cast<std::size_t>(id)];
    options.trace->record(
        TraceEvent{now(), kind, id, msg.src, msg.dst,
                   center == kNoCenter ? std::string()
                                       : stations[center].name()});
  }

  void init_observability() {
    if (options.obs.sample_interval_us <= 0.0) return;
    sampler.emplace(options.obs.sample_capacity);
    if (options.obs.trace) {
      sampler->attach_trace(options.obs.trace.get(), options.obs.trace_pid);
    }
    sampler->add_probe("sim.event_queue.pending", [this] {
      return static_cast<double>(simulator.pending_events());
    });
    sampler->add_probe("sim.icn1.queue_total",
                       [this] { return queue_total(icn1_centers); });
    sampler->add_probe("sim.ecn1.queue_total",
                       [this] { return queue_total(ecn1_centers); });
    sampler->add_probe("sim.icn2.queue", [this] {
      return static_cast<double>(stations[kRootNetwork].queue_length());
    });
    sampler->add_probe("sim.messages_in_flight", [this] {
      return static_cast<double>(messages.size() - free_slots.size());
    });
  }

  double queue_total(const std::vector<std::size_t>& role) const {
    double total = 0.0;
    for (const std::size_t c : role) {
      total += static_cast<double>(stations[c].queue_length());
    }
    return total;
  }

  /// Sampler heartbeat: reads every probe at the current simulated time
  /// and re-arms itself. Rides the regular event queue, so the trace's
  /// time axis is simulated µs — but the probes draw no random numbers,
  /// so the stochastic trajectory is identical to an unsampled run.
  void sample_tick() {
    sampler->sample(now());
    if (!done) {
      simulator.schedule(options.obs.sample_interval_us,
                         make_event(kSampleTick, 0));
    }
  }

  double proc_rate(std::uint64_t proc) const {
    return view.leaves[proc_leaf[proc]].rate_per_us;
  }

  void schedule_think(std::uint64_t proc) {
    const double wait =
        modulators.empty()
            ? think_block.exponential(1.0 / proc_rate(proc))
            : modulators[proc].next_interarrival_us(think_rng);
    simulator.schedule(wait, make_event(kThinkDone, proc));
  }

  std::uint64_t pick_destination(std::uint64_t src) {
    if (options.traffic) {
      const std::uint64_t dst =
          options.traffic->pick_destination(src, traffic_rng);
      // A pattern over a larger node space would index past the tree.
      require(dst < total_processors(),
              "TreeSim: traffic pattern picked a destination outside the "
              "tree");
      return dst;
    }
    // Uniform over the other N-1 processors (assumption 2): the one draw
    // workload::UniformTraffic makes, without the virtual call.
    const std::uint64_t draw =
        traffic_rng.uniform_below(total_processors() - 1);
    return draw >= src ? draw + 1 : draw;
  }

  /// Route: egress chain from the source's parent up to (exclusive) the
  /// LCA, the LCA's internal network, then the destination's egress
  /// chain top-down — the flat case degenerates to ECN1 -> ICN2 -> ECN1
  /// for remote and ICN1 alone for local messages.
  std::vector<std::size_t> descent_scratch;
  void build_route(std::vector<std::size_t>& route, std::uint64_t src,
                   std::uint64_t dst) {
    route.clear();
    descent_scratch.clear();
    std::size_t a = view.leaves[proc_leaf[src]].parent;
    std::size_t b = view.leaves[proc_leaf[dst]].parent;
    while (node_level[a] > node_level[b]) {
      route.push_back(egress_center[a]);
      a = view.nodes[a].parent;
    }
    while (node_level[b] > node_level[a]) {
      descent_scratch.push_back(egress_center[b]);
      b = view.nodes[b].parent;
    }
    while (a != b) {
      route.push_back(egress_center[a]);
      descent_scratch.push_back(egress_center[b]);
      a = view.nodes[a].parent;
      b = view.nodes[b].parent;
    }
    route.push_back(net_center[a]);
    // The destination chain was collected bottom-up; descend top-down.
    route.insert(route.end(), descent_scratch.rbegin(),
                 descent_scratch.rend());
  }

  void generate(std::uint64_t proc) {
    if (free_slots.empty()) {
      // Open-loop injection has no bound on in-flight messages; grow
      // the pool on demand. (Closed loop is bounded at one per source.)
      ensure(!options.closed_loop, "TreeSim: message pool exhausted");
      messages.emplace_back();
      free_slots.push_back(static_cast<std::uint32_t>(messages.size() - 1));
      ++pool_growths;
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    ++generated_total;
    // Open loop: the next arrival is scheduled independently of this
    // message's fate (Poisson stream, assumption 1 without assumption 4).
    if (!options.closed_loop) schedule_think(proc);

    MessageState& msg = messages[slot];
    msg.src = proc;
    msg.dst = pick_destination(proc);
    msg.generated_at = now();
    build_route(msg.route, proc, msg.dst);
    msg.hop = 0;
    trace(TraceEventKind::kGenerated, slot, kNoCenter);
    enter(slot, msg.route[0]);
  }

  void enter(std::uint64_t id, std::size_t center) {
    trace(TraceEventKind::kEnqueued, id, center);
    if (stations[center].arrive(id, now())) start_service(center);
  }

  void advance(std::uint64_t id) {
    MessageState& msg = messages[static_cast<std::size_t>(id)];
    if (++msg.hop < msg.route.size()) {
      enter(id, msg.route[msg.hop]);
      return;
    }
    deliver(id);
  }

  void deliver(std::uint64_t id) {
    trace(TraceEventKind::kDelivered, id, kNoCenter);
    const MessageState& msg = messages[static_cast<std::size_t>(id)];
    const double elapsed = now() - msg.generated_at;
    const bool remote = msg.route.size() > 1;
    const std::uint64_t src = msg.src;
    free_slots.push_back(static_cast<std::uint32_t>(id));

    ++delivered_total;
    if (measuring) {
      latency.add(elapsed);
      (remote ? remote_latency : local_latency).add(elapsed);
      measured_samples.push_back(elapsed);
      ++measured_deliveries;
      if (measured_deliveries >= options.measured_messages &&
          simcore::precision_reached(measured_samples,
                                     options.measured_messages,
                                     options.message_cap,
                                     options.target_relative_ci)) {
        done = true;
        return;  // source stays idle; the run is over
      }
    } else if (delivered_total >= options.warmup_messages) {
      begin_measurement();
    }

    if (options.closed_loop) schedule_think(src);
  }

  void begin_measurement() {
    measuring = true;
    window_start = now();
    for (auto& station : stations) station.reset_statistics(now());
    if (options.obs.trace) {
      options.obs.trace->complete("warmup", "sim.phase", 0.0, window_start,
                                  options.obs.trace_pid);
      options.obs.trace->instant("measurement_start", "sim.phase",
                                 window_start, options.obs.trace_pid);
    }
  }

  CenterStats aggregate(const std::vector<std::size_t>& role) const {
    CenterStats out{};
    if (role.empty()) return out;  // a root-only tree has no ICN1/ECN1
    simcore::Tally waits;
    simcore::Tally services;
    simcore::Tally responses;
    double utilization_sum = 0.0;
    double queue_sum = 0.0;
    for (const std::size_t c : role) {
      const simcore::FifoStation& station = stations[c];
      waits.merge(station.wait_times());
      services.merge(station.service_times());
      responses.merge(station.response_times());
      utilization_sum += station.utilization(now());
      queue_sum += station.average_number_in_system(now());
      out.departures += station.departures();
    }
    const double count = static_cast<double>(role.size());
    out.utilization = utilization_sum / count;
    out.avg_queue_length = queue_sum / count;
    if (waits.count() > 0) {
      out.mean_wait_us = waits.mean();
      out.mean_service_us = services.mean();
      out.mean_response_us = responses.mean();
    }
    return out;
  }

  SimResult collect() {
    SimResult result{};
    result.messages_measured = measured_deliveries;
    result.mean_latency_us = latency.mean();
    result.min_latency_us = latency.min();
    result.max_latency_us = latency.max();

    // Exact percentiles via selection on one scratch copy; ranks rise, so
    // each selection searches above the previous rank.
    std::vector<double> scratch = measured_samples;
    auto searched_from = scratch.begin();
    auto percentile = [&scratch, &searched_from](double q) {
      const auto rank = scratch.begin() + static_cast<std::ptrdiff_t>(
          q * static_cast<double>(scratch.size() - 1));
      std::nth_element(searched_from, rank, scratch.end());
      searched_from = rank;
      return *rank;
    };
    result.p50_latency_us = percentile(0.50);
    result.p95_latency_us = percentile(0.95);
    result.p99_latency_us = percentile(0.99);

    // Batch means absorb the autocorrelation of consecutive latencies;
    // fall back to the i.i.d. interval for very short runs.
    const std::uint64_t batch =
        std::max<std::uint64_t>(1, latency.count() / 32);
    simcore::BatchMeans batches(batch);
    for (const double sample : measured_samples) batches.add(sample);
    if (batches.num_complete_batches() >= 2) {
      result.latency_ci = batches.confidence_interval();
      result.obs.batch_count = batches.num_complete_batches();
      result.obs.batch_lag1_autocorrelation = batches.lag1_autocorrelation();
    } else {
      result.latency_ci = latency.confidence_interval();
    }

    if (local_latency.count() > 0) {
      result.mean_local_latency_us = local_latency.mean();
    }
    if (remote_latency.count() > 0) {
      result.mean_remote_latency_us = remote_latency.mean();
    }
    result.remote_fraction = static_cast<double>(remote_latency.count()) /
                             static_cast<double>(latency.count());

    result.window_duration_us = now() - window_start;
    if (result.window_duration_us > 0.0) {
      result.effective_rate_per_us =
          static_cast<double>(measured_deliveries) /
          result.window_duration_us / static_cast<double>(total_processors());
    }

    result.icn1 = aggregate(icn1_centers);
    result.ecn1 = aggregate(ecn1_centers);
    result.icn2 = aggregate({kRootNetwork});
    // Summed by role (ICN1s, ECN1s, then ICN2): the flat order, which
    // the reproducibility contract fixes.
    for (const std::size_t c : icn1_centers) {
      result.total_avg_queue_length +=
          stations[c].average_number_in_system(now());
    }
    for (const std::size_t c : ecn1_centers) {
      result.total_avg_queue_length +=
          stations[c].average_number_in_system(now());
    }
    result.total_avg_queue_length +=
        stations[kRootNetwork].average_number_in_system(now());

    result.centers.reserve(centers.size());
    for (std::size_t c = 0; c < centers.size(); ++c) {
      const simcore::FifoStation& station = stations[c];
      TreeCenterStats stats;
      stats.path = centers[c].path;
      stats.egress = centers[c].egress;
      stats.utilization = station.utilization(now());
      stats.avg_queue_length = station.average_number_in_system(now());
      if (station.response_times().count() > 0) {
        stats.mean_response_us = station.response_times().mean();
      }
      stats.departures = station.departures();
      result.max_center_utilization =
          std::max(result.max_center_utilization, stats.utilization);
      result.centers.push_back(std::move(stats));
    }

    result.events_executed = simulator.executed_events();

    finish_observability(result);
    return result;
  }

  const simcore::Histogram& latency_histogram() {
    if (!histogram) {
      const double hi = std::max(latency.max() * 1.001, 1.0);
      histogram.emplace(0.0, hi, 64);
      for (const double sample : measured_samples) histogram->add(sample);
    }
    return *histogram;
  }

  /// End-of-run observability: fills SimResult::ObsStats from the engine
  /// and publishes the run's aggregates to the global metrics registry.
  /// Per-message quantities are counted in plain members on the hot path
  /// and flushed here in one shot, so concurrent replications never
  /// contend on shared cache lines mid-run.
  void finish_observability(SimResult& result) {
    result.obs.warmup_end_us = window_start;
    result.obs.trace_dropped =
        options.trace ? options.trace->dropped_count() : 0;
    result.obs.samples_taken = sampler ? sampler->samples_taken() : 0;
    const simcore::EventQueue& queue = simulator.queue();
    result.obs.events_pushed = queue.total_pushed();
    result.obs.calendar_resizes = queue.calendar_resizes();
    result.obs.sweep_fallbacks = queue.sweep_fallbacks();
    result.obs.peak_slot_capacity = queue.slot_capacity();

    if (options.obs.trace) {
      options.obs.trace->complete("measurement", "sim.phase", window_start,
                                  now() - window_start,
                                  options.obs.trace_pid);
    }

    HMCS_OBS_COUNTER_ADD("sim.messages.generated", generated_total);
    HMCS_OBS_COUNTER_ADD("sim.messages.delivered", delivered_total);
    HMCS_OBS_COUNTER_ADD("sim.messages.measured", measured_deliveries);
    HMCS_OBS_COUNTER_ADD("sim.message_pool.growths", pool_growths);
    HMCS_OBS_COUNTER_ADD("sim.trace.dropped_events", result.obs.trace_dropped);
    HMCS_OBS_STAT_OBSERVE("sim.center.icn1.utilization",
                          result.icn1.utilization);
    HMCS_OBS_STAT_OBSERVE("sim.center.ecn1.utilization",
                          result.ecn1.utilization);
    HMCS_OBS_STAT_OBSERVE("sim.center.icn2.utilization",
                          result.icn2.utilization);
    HMCS_OBS_STAT_OBSERVE("sim.run.mean_latency_us", result.mean_latency_us);
    HMCS_OBS_STAT_OBSERVE("sim.run.batch_lag1",
                          result.obs.batch_lag1_autocorrelation);
    HMCS_OBS_GAUGE_SET("sim.run.warmup_end_us", window_start);
  }

  SimResult run() {
    require(!has_run, "TreeSim: run() may be called only once");
    has_run = true;
    require(options.measured_messages >= 2,
            "TreeSim: needs >= 2 measured messages");

    for (std::uint64_t proc = 0; proc < total_processors(); ++proc) {
      schedule_think(proc);
    }
    if (sampler) sample_tick();
    while (!done) {
      const std::uint64_t event = simulator.next();
      const std::uint64_t kind = event & kKindMask;
      if (kind == kDeparture) {
        depart(static_cast<std::size_t>(event >> 2));
      } else if (kind == kThinkDone) {
        generate(event >> 2);
      } else {
        sample_tick();
      }
    }
    return collect();
  }
};

TreeSim::TreeSim(analytic::ModelTree tree, SimOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->tree = std::move(tree);
  impl_->view = analytic::flatten(impl_->tree);  // validates
  require(impl_->view.total_processors >= 2, "TreeSim: needs >= 2 processors");
  for (const analytic::FlatLeaf& leaf : impl_->view.leaves) {
    require(leaf.rate_per_us > 0.0,
            "TreeSim: every leaf generation rate must be > 0 (closed-loop "
            "sources never release an idle processor)");
  }
  impl_->centers = analytic::tree_centers(impl_->tree, impl_->view);
  impl_->build();
}

TreeSim::~TreeSim() = default;

SimResult TreeSim::run() { return impl_->run(); }

const simcore::Histogram& TreeSim::latency_histogram() const {
  require(impl_->has_run && impl_->done,
          "TreeSim: histogram available only after run()");
  return impl_->latency_histogram();
}

const std::vector<double>& TreeSim::measured_latencies() const {
  require(impl_->has_run && impl_->done,
          "TreeSim: samples available only after run()");
  return impl_->measured_samples;
}

const obs::TimeSeriesSampler* TreeSim::sampler() const {
  return impl_->sampler.has_value() ? &*impl_->sampler : nullptr;
}

}  // namespace hmcs::sim
