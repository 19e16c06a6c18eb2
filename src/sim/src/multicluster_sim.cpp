#include "hmcs/sim/multicluster_sim.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/simcore/batch_means.hpp"
#include "hmcs/simcore/distributions.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::sim {

namespace {

/// Mean service time as an affine function of message size:
/// T(M) = fixed + M * per_byte. For blocking networks per_byte folds in
/// the eq. (20) bisection penalty, so T(M) matches eq. (21) at every M.
struct CenterModel {
  double fixed_us = 0.0;
  double per_byte_us = 0.0;

  double mean_service_us(double bytes) const {
    return fixed_us + bytes * per_byte_us;
  }

  static CenterModel from_breakdown(const analytic::ServiceTimeBreakdown& b,
                                    double reference_bytes) {
    CenterModel m;
    m.fixed_us = b.link_latency_us + b.switch_latency_us;
    m.per_byte_us = (b.transmission_us + b.blocking_us) / reference_bytes;
    return m;
  }
};

struct ResolvedCluster {
  std::uint32_t nodes = 0;
  CenterModel icn1;
  CenterModel ecn1;
  double rate_per_us = 0.0;
};

enum class Stage : std::uint8_t { kIcn1, kEcn1Out, kIcn2, kEcn1In };

struct MessageState {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  double generated_at = 0.0;
  double bytes = 0.0;
  Stage stage = Stage::kIcn1;
  bool in_use = false;
};

}  // namespace

struct MultiClusterSim::Impl {
  // --- resolved system ---------------------------------------------------
  std::vector<ResolvedCluster> clusters;
  CenterModel icn2_model;
  double fixed_message_bytes = 0.0;
  workload::NodeSpace space;
  SimOptions options;
  /// Workload scenario from the flat SystemConfig (the CoC constructor
  /// leaves it default — that surface stays exponential-only).
  analytic::WorkloadScenario scenario;

  // --- engine --------------------------------------------------------------
  simcore::Simulator simulator;
  std::deque<simcore::FifoStation> icn1_stations;
  std::deque<simcore::FifoStation> ecn1_stations;
  std::optional<simcore::FifoStation> icn2_station;
  std::deque<simcore::Rng> service_rngs;
  simcore::Rng think_rng{0};
  simcore::Rng traffic_rng{0};
  simcore::Rng size_rng{0};
  /// Per-node MMPP modulators; empty when arrivals are plain Poisson.
  std::vector<simcore::Mmpp2> modulators;

  std::shared_ptr<const workload::TrafficPattern> traffic;

  // --- per-message state ---------------------------------------------------
  std::vector<MessageState> messages;
  std::vector<std::uint32_t> free_slots;

  // --- observability ---------------------------------------------------
  std::optional<obs::TimeSeriesSampler> sampler;
  double warmup_end_us = 0.0;

  // --- measurement -----------------------------------------------------
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
  std::optional<simcore::Histogram> histogram;

  // -------------------------------------------------------------------------

  std::uint64_t total_nodes() const { return space.total_nodes(); }

  /// Records a trace event. The centre label is passed as (name, index)
  /// parts and only assembled into a string when tracing is actually on —
  /// the hot path must not pay a per-event allocation for a disabled
  /// feature. index < 0 means the centre has no index suffix.
  void trace(TraceEventKind kind, std::uint64_t id, const char* center,
             std::int64_t index = -1) {
    if (!options.trace) return;
    std::string label(center);
    if (index >= 0) {
      label += '[';
      label += std::to_string(index);
      label += ']';
    }
    const MessageState& msg = messages[static_cast<std::size_t>(id)];
    options.trace->record(TraceEvent{simulator.now(), kind, id, msg.src,
                                     msg.dst, std::move(label)});
  }

  double node_rate(std::uint64_t node) const {
    return clusters[space.cluster_of(node)].rate_per_us;
  }

  simcore::FifoStation::ServiceSampler make_sampler(CenterModel model,
                                                    simcore::Rng& rng) {
    // The legacy kDeterministic option wins over the scenario's cv^2;
    // otherwise the scenario picks the distribution. The default
    // (exponential, cv^2 = 1) makes exactly one rng.exponential draw —
    // bit-identical to the pre-scenario sampler, which the fixed-seed
    // regression tests rely on.
    return [this, model, &rng](const simcore::FifoStation::Job& job) {
      const MessageState& msg = messages[static_cast<std::size_t>(job.id)];
      const double mean = model.mean_service_us(msg.bytes);
      if (mean <= 0.0) return 0.0;
      // variate_cv2 at cv^2 = 0 draws nothing, so the legacy
      // kDeterministic option and the cv^2 = 0 scenario share one path.
      const double cv2 =
          options.service_distribution == ServiceDistribution::kDeterministic
              ? 0.0
              : scenario.service_cv2;
      double service = simcore::variate_cv2(rng, mean, cv2);
      if (scenario.failure.has_value()) {
        // Preemptive-resume breakdowns: failures arrive Poisson over the
        // work requirement and each adds an exponential repair.
        const analytic::FailureRepair& f = *scenario.failure;
        if (f.mttr_us > 0.0) {
          const std::uint64_t failures =
              simcore::poisson(rng, service / f.mtbf_us);
          for (std::uint64_t i = 0; i < failures; ++i) {
            service += rng.exponential(f.mttr_us);
          }
        }
      }
      return service;
    };
  }

  void build(std::uint64_t seed) {
    simcore::Rng master(seed);
    think_rng = master.split();
    traffic_rng = master.split();
    size_rng = master.split();

    const std::uint32_t c = static_cast<std::uint32_t>(clusters.size());
    for (std::uint32_t i = 0; i < c; ++i) {
      service_rngs.push_back(master.split());
      icn1_stations.emplace_back(simulator, "ICN1[" + std::to_string(i) + "]",
                                 make_sampler(clusters[i].icn1,
                                              service_rngs.back()));
      service_rngs.push_back(master.split());
      ecn1_stations.emplace_back(simulator, "ECN1[" + std::to_string(i) + "]",
                                 make_sampler(clusters[i].ecn1,
                                              service_rngs.back()));
    }
    service_rngs.push_back(master.split());
    icn2_station.emplace(simulator, "ICN2",
                         make_sampler(icn2_model, service_rngs.back()));

    for (std::uint32_t i = 0; i < c; ++i) {
      icn1_stations[i].set_departure_callback(
          [this, i](const simcore::FifoStation::Departure& d) {
            trace(TraceEventKind::kDeparted, d.job.id, "ICN1", i);
            deliver(d.job.id);
          });
      ecn1_stations[i].set_departure_callback(
          [this, i](const simcore::FifoStation::Departure& d) {
            trace(TraceEventKind::kDeparted, d.job.id, "ECN1", i);
            on_ecn1_departure(d.job.id);
          });
    }
    icn2_station->set_departure_callback(
        [this](const simcore::FifoStation::Departure& d) {
          trace(TraceEventKind::kDeparted, d.job.id, "ICN2");
          on_icn2_departure(d.job.id);
        });

    if (!traffic) {
      traffic = std::make_shared<workload::UniformTraffic>(space);
    }

    const std::uint64_t n = total_nodes();
    messages.resize(n);
    free_slots.reserve(n);
    for (std::uint64_t i = n; i > 0; --i) {
      free_slots.push_back(static_cast<std::uint32_t>(i - 1));
    }

    if (scenario.mmpp.has_value()) {
      modulators.reserve(n);
      for (std::uint64_t node = 0; node < n; ++node) {
        const analytic::MmppRates rates =
            analytic::resolve_mmpp(*scenario.mmpp, node_rate(node));
        simcore::Mmpp2 modulator(rates.base_rate, rates.burst_rate,
                                 rates.leave_base, rates.leave_burst);
        // Seed each source's modulator from the stationary distribution
        // so the arrival stream starts in equilibrium.
        modulator.set_bursty(
            think_rng.bernoulli(scenario.mmpp->burst_fraction));
        modulators.push_back(modulator);
      }
    }

    if (options.warmup_messages == 0) measuring = true;

    init_observability();
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
    sampler->add_probe("sim.icn1.queue_total", [this] {
      double total = 0.0;
      for (const auto& station : icn1_stations) {
        total += static_cast<double>(station.queue_length());
      }
      return total;
    });
    sampler->add_probe("sim.ecn1.queue_total", [this] {
      double total = 0.0;
      for (const auto& station : ecn1_stations) {
        total += static_cast<double>(station.queue_length());
      }
      return total;
    });
    sampler->add_probe("sim.icn2.queue", [this] {
      return static_cast<double>(icn2_station->queue_length());
    });
    sampler->add_probe("sim.messages_in_flight", [this] {
      return static_cast<double>(messages.size() - free_slots.size());
    });
  }

  /// Sampler heartbeat: reads every probe at the current simulated time
  /// and re-arms itself. Rides the regular event queue, so the trace's
  /// time axis is simulated µs — but the probes draw no random numbers,
  /// so the stochastic trajectory is identical to an unsampled run.
  void sample_tick() {
    sampler->sample(simulator.now());
    if (!done) {
      simulator.schedule_after(options.obs.sample_interval_us,
                               [this] { sample_tick(); });
    }
  }

  void schedule_think(std::uint64_t node) {
    const double wait =
        modulators.empty()
            ? think_rng.exponential(1.0 / node_rate(node))
            : modulators[node].next_interarrival_us(think_rng);
    simulator.schedule_after(wait, [this, node] { generate(node); });
  }

  void generate(std::uint64_t node) {
    if (free_slots.empty()) {
      // Open-loop injection has no bound on in-flight messages; grow
      // the pool on demand. (Closed loop is bounded at one per source.)
      ensure(!options.closed_loop, "sim: message pool exhausted");
      messages.push_back(MessageState{});
      free_slots.push_back(static_cast<std::uint32_t>(messages.size() - 1));
      ++pool_growths;
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    ++generated_total;
    // Open loop: the next arrival is scheduled independently of this
    // message's fate (Poisson stream, assumption 1 without assumption 4).
    if (!options.closed_loop) schedule_think(node);

    MessageState& msg = messages[slot];
    msg.src = node;
    msg.dst = traffic->pick_destination(node, traffic_rng);
    msg.generated_at = simulator.now();
    msg.bytes = options.message_size ? options.message_size->sample_bytes(size_rng)
                                     : fixed_message_bytes;
    msg.in_use = true;

    const std::uint32_t src_cluster = space.cluster_of(node);
    const std::uint32_t dst_cluster = space.cluster_of(msg.dst);
    trace(TraceEventKind::kGenerated, slot, "");
    if (src_cluster == dst_cluster) {
      msg.stage = Stage::kIcn1;
      trace(TraceEventKind::kEnqueued, slot, "ICN1", src_cluster);
      icn1_stations[src_cluster].arrive(slot);
    } else {
      msg.stage = Stage::kEcn1Out;
      trace(TraceEventKind::kEnqueued, slot, "ECN1", src_cluster);
      ecn1_stations[src_cluster].arrive(slot);
    }
  }

  void on_ecn1_departure(std::uint64_t id) {
    MessageState& msg = messages[static_cast<std::size_t>(id)];
    ensure(msg.in_use, "sim: ECN1 departure for free slot");
    if (msg.stage == Stage::kEcn1Out) {
      msg.stage = Stage::kIcn2;
      trace(TraceEventKind::kEnqueued, id, "ICN2");
      icn2_station->arrive(id);
    } else {
      ensure(msg.stage == Stage::kEcn1In, "sim: unexpected ECN1 stage");
      deliver(id);
    }
  }

  void on_icn2_departure(std::uint64_t id) {
    MessageState& msg = messages[static_cast<std::size_t>(id)];
    ensure(msg.in_use && msg.stage == Stage::kIcn2, "sim: unexpected ICN2 stage");
    msg.stage = Stage::kEcn1In;
    const std::uint32_t dst_cluster = space.cluster_of(msg.dst);
    trace(TraceEventKind::kEnqueued, id, "ECN1", dst_cluster);
    ecn1_stations[dst_cluster].arrive(id);
  }

  void deliver(std::uint64_t id) {
    MessageState& msg = messages[static_cast<std::size_t>(id)];
    ensure(msg.in_use, "sim: delivery for free slot");
    trace(TraceEventKind::kDelivered, id, "");
    const double elapsed = simulator.now() - msg.generated_at;
    const bool remote = msg.stage != Stage::kIcn1;
    const std::uint64_t src = msg.src;
    msg.in_use = false;
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
    window_start = simulator.now();
    warmup_end_us = window_start;
    for (auto& station : icn1_stations) station.reset_statistics();
    for (auto& station : ecn1_stations) station.reset_statistics();
    icn2_station->reset_statistics();
    if (options.obs.trace) {
      options.obs.trace->complete("warmup", "sim.phase", 0.0, window_start,
                                  options.obs.trace_pid);
      options.obs.trace->instant("measurement_start", "sim.phase",
                                 window_start, options.obs.trace_pid);
    }
  }

  CenterStats aggregate(const std::deque<simcore::FifoStation>& stations) const {
    CenterStats out{};
    simcore::Tally waits;
    simcore::Tally services;
    simcore::Tally responses;
    double utilization_sum = 0.0;
    double queue_sum = 0.0;
    for (const auto& station : stations) {
      waits.merge(station.wait_times());
      services.merge(station.service_times());
      responses.merge(station.response_times());
      utilization_sum += station.utilization();
      queue_sum += station.average_number_in_system();
      out.departures += station.departures();
    }
    const double count = static_cast<double>(stations.size());
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

    // Exact percentiles via selection on a scratch copy.
    std::vector<double> scratch = measured_samples;
    auto percentile = [&scratch](double q) {
      const auto rank = static_cast<std::ptrdiff_t>(
          q * static_cast<double>(scratch.size() - 1));
      std::nth_element(scratch.begin(), scratch.begin() + rank, scratch.end());
      return scratch[static_cast<std::size_t>(rank)];
    };
    result.p50_latency_us = percentile(0.50);
    result.p95_latency_us = percentile(0.95);
    result.p99_latency_us = percentile(0.99);

    // Batch means absorb the autocorrelation of consecutive latencies;
    // fall back to the i.i.d. interval for very short runs.
    const std::uint64_t batch = std::max<std::uint64_t>(1, latency.count() / 32);
    simcore::BatchMeans batches(batch);
    for (const double sample : measured_samples) batches.add(sample);
    if (batches.num_complete_batches() >= 2) {
      result.latency_ci = batches.confidence_interval();
      result.obs.batch_count = batches.num_complete_batches();
      result.obs.batch_lag1_autocorrelation = batches.lag1_autocorrelation();
    } else {
      result.latency_ci = latency.confidence_interval();
    }

    if (local_latency.count() > 0) result.mean_local_latency_us = local_latency.mean();
    if (remote_latency.count() > 0) result.mean_remote_latency_us = remote_latency.mean();
    result.remote_fraction = static_cast<double>(remote_latency.count()) /
                             static_cast<double>(latency.count());

    result.window_duration_us = simulator.now() - window_start;
    if (result.window_duration_us > 0.0) {
      result.effective_rate_per_us =
          static_cast<double>(measured_deliveries) /
          result.window_duration_us / static_cast<double>(total_nodes());
    }

    result.icn1 = aggregate(icn1_stations);
    result.ecn1 = aggregate(ecn1_stations);
    {
      // ICN2 is a single station; reuse the aggregation path.
      CenterStats stats{};
      const auto& s = *icn2_station;
      stats.utilization = s.utilization();
      stats.avg_queue_length = s.average_number_in_system();
      stats.departures = s.departures();
      if (s.wait_times().count() > 0) {
        stats.mean_wait_us = s.wait_times().mean();
        stats.mean_service_us = s.service_times().mean();
        stats.mean_response_us = s.response_times().mean();
      }
      result.icn2 = stats;
    }

    result.total_avg_queue_length = 0.0;
    for (const auto& station : icn1_stations) {
      result.total_avg_queue_length += station.average_number_in_system();
    }
    for (const auto& station : ecn1_stations) {
      result.total_avg_queue_length += station.average_number_in_system();
    }
    result.total_avg_queue_length += icn2_station->average_number_in_system();

    result.events_executed = simulator.executed_events();

    finish_observability(result);

    const double hi = std::max(result.max_latency_us * 1.001, 1.0);
    histogram.emplace(0.0, hi, 64);
    for (const double sample : measured_samples) histogram->add(sample);
    return result;
  }

  /// End-of-run observability: fills SimResult::ObsStats from the engine
  /// and publishes the run's aggregates to the global metrics registry.
  /// Per-message quantities are counted in plain members on the hot path
  /// and flushed here in one shot, so concurrent replications never
  /// contend on shared cache lines mid-run.
  void finish_observability(SimResult& result) {
    result.obs.warmup_end_us = warmup_end_us;
    result.obs.trace_dropped = options.trace ? options.trace->dropped_count() : 0;
    result.obs.samples_taken = sampler ? sampler->samples_taken() : 0;
    const simcore::EventQueue& queue = simulator.queue();
    result.obs.events_pushed = queue.total_pushed();
    result.obs.calendar_resizes = queue.calendar_resizes();
    result.obs.calendar_purges = queue.calendar_purges();
    result.obs.sweep_fallbacks = queue.sweep_fallbacks();
    result.obs.peak_slot_capacity = queue.slot_capacity();

    if (options.obs.trace) {
      options.obs.trace->complete("measurement", "sim.phase", window_start,
                                  simulator.now() - window_start,
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
    HMCS_OBS_GAUGE_SET("sim.run.warmup_end_us", warmup_end_us);
  }

  SimResult run() {
    require(!has_run, "MultiClusterSim: run() may be called only once");
    has_run = true;
    require(total_nodes() >= 2, "MultiClusterSim: needs >= 2 nodes");
    require(options.measured_messages >= 2,
            "MultiClusterSim: needs >= 2 measured messages");

    for (std::uint64_t node = 0; node < total_nodes(); ++node) {
      schedule_think(node);
    }
    if (sampler) sample_tick();
    // Cancellation poll period: the steady_clock read behind
    // CancelToken::check stays off the per-event hot path.
    constexpr std::uint64_t kCancelPollMask = 4095;
    while (!done) {
      ensure(simulator.step(), "sim: event queue drained before completion");
      if (options.max_events != 0 &&
          simulator.executed_events() > options.max_events) {
        detail::throw_config_error(
            "MultiClusterSim: exceeded max_events safety limit",
            std::source_location::current());
      }
      if (options.cancel != nullptr &&
          (simulator.executed_events() & kCancelPollMask) == 0) {
        options.cancel->check("MultiClusterSim");
      }
    }
    return collect();
  }
};

MultiClusterSim::MultiClusterSim(const analytic::SystemConfig& config,
                                 SimOptions options)
    : impl_(std::make_unique<Impl>()) {
  config.validate();
  // The analytic model accepts a zero generation rate (no-load system);
  // an event-driven source that never generates would schedule nothing
  // and the run would never reach its message quota.
  require(config.generation_rate_per_us > 0.0,
          "MultiClusterSim: generation rate must be > 0");
  const analytic::CenterServiceTimes services =
      analytic::center_service_times(config);
  impl_->options = std::move(options);
  impl_->fixed_message_bytes = config.message_bytes;
  impl_->clusters.assign(
      config.clusters,
      ResolvedCluster{
          config.nodes_per_cluster,
          CenterModel::from_breakdown(services.icn1, config.message_bytes),
          CenterModel::from_breakdown(services.ecn1, config.message_bytes),
          config.generation_rate_per_us});
  impl_->space =
      workload::NodeSpace::uniform(config.clusters, config.nodes_per_cluster);
  impl_->icn2_model =
      CenterModel::from_breakdown(services.icn2, config.message_bytes);
  impl_->scenario = config.scenario;
  impl_->traffic = impl_->options.traffic;
  impl_->build(impl_->options.seed);
}

MultiClusterSim::MultiClusterSim(const analytic::ClusterOfClustersConfig& config,
                                 SimOptions options)
    : impl_(std::make_unique<Impl>()) {
  config.validate();
  impl_->options = std::move(options);
  impl_->fixed_message_bytes = config.message_bytes;

  impl_->space.clusters = static_cast<std::uint32_t>(config.clusters.size());
  for (const auto& cluster : config.clusters) {
    const analytic::ServiceTimeBreakdown icn1 = analytic::network_service_time(
        cluster.icn1, cluster.nodes, config.switch_params, config.architecture,
        config.message_bytes);
    const analytic::ServiceTimeBreakdown ecn1 = analytic::network_service_time(
        cluster.ecn1, cluster.nodes, config.switch_params, config.architecture,
        config.message_bytes);
    impl_->clusters.push_back(ResolvedCluster{
        cluster.nodes, CenterModel::from_breakdown(icn1, config.message_bytes),
        CenterModel::from_breakdown(ecn1, config.message_bytes),
        cluster.generation_rate_per_us});
    impl_->space.nodes_per_cluster.push_back(cluster.nodes);
  }
  impl_->space.validate();

  const analytic::ServiceTimeBreakdown icn2 = analytic::network_service_time(
      config.icn2, config.clusters.size(), config.switch_params,
      config.architecture, config.message_bytes);
  impl_->icn2_model = CenterModel::from_breakdown(icn2, config.message_bytes);
  impl_->traffic = impl_->options.traffic;
  impl_->build(impl_->options.seed);
}

MultiClusterSim::~MultiClusterSim() = default;

SimResult MultiClusterSim::run() { return impl_->run(); }

const simcore::Histogram& MultiClusterSim::latency_histogram() const {
  require(impl_->histogram.has_value(),
          "MultiClusterSim: histogram available only after run()");
  return *impl_->histogram;
}

const std::vector<double>& MultiClusterSim::measured_latencies() const {
  require(impl_->has_run && impl_->done,
          "MultiClusterSim: samples available only after run()");
  return impl_->measured_samples;
}

const obs::TimeSeriesSampler* MultiClusterSim::sampler() const {
  return impl_->sampler.has_value() ? &*impl_->sampler : nullptr;
}

}  // namespace hmcs::sim
