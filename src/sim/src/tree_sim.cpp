#include "hmcs/sim/tree_sim.hpp"

#include <algorithm>
#include <deque>

#include "hmcs/simcore/batch_means.hpp"
#include "hmcs/simcore/distributions.hpp"
#include "hmcs/simcore/fifo_station.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/simulation.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::sim {

namespace {

/// One in-flight message. Closed-loop sources are blocked while their
/// message is in flight, so slot id == source processor id and the pool
/// never grows.
struct MessageState {
  std::uint64_t dst = 0;
  double generated_at = 0.0;
  std::vector<std::size_t> route;  ///< centre indices, in traversal order
  std::size_t hop = 0;
};

}  // namespace

struct TreeSim::Impl {
  analytic::ModelTree tree;
  analytic::FlatTreeView view;
  std::vector<analytic::TreeCenter> centers;
  TreeSimOptions options;

  // --- derived topology tables -------------------------------------------
  std::vector<std::size_t> net_center;     ///< node -> centre index
  std::vector<std::size_t> egress_center;  ///< node -> centre index (root unused)
  std::vector<std::uint32_t> node_level;   ///< root = 0
  std::vector<std::uint64_t> leaf_first_proc;  ///< prefix sums over leaves
  std::vector<std::size_t> proc_leaf;          ///< processor -> leaf index

  // --- engine ---------------------------------------------------------------
  simcore::Simulator simulator;
  std::deque<simcore::FifoStation> stations;  ///< one per centre, same order
  std::deque<simcore::Rng> service_rngs;
  simcore::Rng think_rng{0};
  simcore::Rng traffic_rng{0};
  /// Per-processor MMPP modulators; empty when sources are Poisson.
  std::vector<simcore::Mmpp2> modulators;

  std::vector<MessageState> messages;  ///< indexed by source processor

  // --- measurement ----------------------------------------------------------
  bool measuring = false;
  bool done = false;
  bool has_run = false;
  double window_start = 0.0;
  std::uint64_t delivered_total = 0;
  std::uint64_t measured_deliveries = 0;
  simcore::Tally latency;
  std::vector<double> measured_samples;

  std::uint64_t total_processors() const { return view.total_processors; }

  void build(std::uint64_t seed) {
    const std::size_t internal_count = view.nodes.size();
    net_center.assign(internal_count, analytic::FlatNode::npos);
    egress_center.assign(internal_count, analytic::FlatNode::npos);
    for (std::size_t c = 0; c < centers.size(); ++c) {
      (centers[c].egress ? egress_center : net_center)[centers[c].node] = c;
    }
    node_level.assign(internal_count, 0);
    for (std::size_t u = 1; u < internal_count; ++u) {
      node_level[u] = node_level[view.nodes[u].parent] + 1;
    }
    leaf_first_proc.reserve(view.leaves.size() + 1);
    leaf_first_proc.push_back(0);
    proc_leaf.reserve(total_processors());
    for (std::size_t l = 0; l < view.leaves.size(); ++l) {
      leaf_first_proc.push_back(leaf_first_proc.back() +
                                view.leaves[l].processors);
      for (std::uint32_t p = 0; p < view.leaves[l].processors; ++p) {
        proc_leaf.push_back(l);
      }
    }

    simcore::Rng master(seed);
    think_rng = master.split();
    traffic_rng = master.split();
    // The default scenario (cv^2 = 1, no failures) draws exactly one
    // exponential per service — bit-identical to the pre-scenario
    // sampler, which the fixed-seed regression tests rely on.
    const double cv2 = tree.scenario.service_cv2;
    const double mtbf =
        tree.scenario.failure ? tree.scenario.failure->mtbf_us : 0.0;
    const double mttr =
        tree.scenario.failure ? tree.scenario.failure->mttr_us : 0.0;
    for (std::size_t c = 0; c < centers.size(); ++c) {
      service_rngs.push_back(master.split());
      const double mean = centers[c].service.total_us();
      simcore::Rng& rng = service_rngs.back();
      stations.emplace_back(
          simulator, centers[c].path,
          [mean, &rng, cv2, mtbf, mttr](const simcore::FifoStation::Job&) {
            if (mean <= 0.0) return 0.0;
            double service = simcore::variate_cv2(rng, mean, cv2);
            if (mtbf > 0.0 && mttr > 0.0) {
              const std::uint64_t failures =
                  simcore::poisson(rng, service / mtbf);
              for (std::uint64_t i = 0; i < failures; ++i) {
                service += rng.exponential(mttr);
              }
            }
            return service;
          });
      stations.back().set_departure_callback(
          [this](const simcore::FifoStation::Departure& d) {
            advance(d.job.id);
          });
    }

    if (tree.scenario.mmpp.has_value()) {
      modulators.reserve(total_processors());
      for (std::uint64_t proc = 0; proc < total_processors(); ++proc) {
        const analytic::MmppRates rates =
            analytic::resolve_mmpp(*tree.scenario.mmpp, proc_rate(proc));
        simcore::Mmpp2 modulator(rates.base_rate, rates.burst_rate,
                                 rates.leave_base, rates.leave_burst);
        modulator.set_bursty(
            think_rng.bernoulli(tree.scenario.mmpp->burst_fraction));
        modulators.push_back(modulator);
      }
    }

    messages.resize(total_processors());
    if (options.warmup_messages == 0) measuring = true;
  }

  double proc_rate(std::uint64_t proc) const {
    return view.leaves[proc_leaf[proc]].rate_per_us;
  }

  void schedule_think(std::uint64_t proc) {
    const double wait =
        modulators.empty()
            ? think_rng.exponential(1.0 / proc_rate(proc))
            : modulators[proc].next_interarrival_us(think_rng);
    simulator.schedule_after(wait, [this, proc] { generate(proc); });
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
    MessageState& msg = messages[proc];
    const std::uint64_t n = total_processors();
    std::uint64_t dst = traffic_rng.uniform_below(n - 1);
    if (dst >= proc) ++dst;  // uniform over the other N-1 processors
    msg.dst = dst;
    msg.generated_at = simulator.now();
    build_route(msg.route, proc, dst);
    msg.hop = 0;
    stations[msg.route[0]].arrive(proc);
  }

  void advance(std::uint64_t proc) {
    MessageState& msg = messages[proc];
    ++msg.hop;
    if (msg.hop < msg.route.size()) {
      stations[msg.route[msg.hop]].arrive(proc);
      return;
    }
    deliver(proc);
  }

  void deliver(std::uint64_t proc) {
    const double elapsed = simulator.now() - messages[proc].generated_at;
    ++delivered_total;
    if (measuring) {
      latency.add(elapsed);
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
      measuring = true;
      window_start = simulator.now();
      for (auto& station : stations) station.reset_statistics();
    }
    schedule_think(proc);
  }

  TreeSimResult collect() {
    TreeSimResult result{};
    result.messages_measured = measured_deliveries;
    result.mean_latency_us = latency.mean();

    const std::uint64_t batch =
        std::max<std::uint64_t>(1, latency.count() / 32);
    simcore::BatchMeans batches(batch);
    for (const double sample : measured_samples) batches.add(sample);
    result.latency_ci = batches.num_complete_batches() >= 2
                            ? batches.confidence_interval()
                            : latency.confidence_interval();

    result.window_duration_us = simulator.now() - window_start;
    if (result.window_duration_us > 0.0) {
      result.effective_rate_per_us =
          static_cast<double>(measured_deliveries) /
          result.window_duration_us /
          static_cast<double>(total_processors());
    }

    result.centers.reserve(centers.size());
    for (std::size_t c = 0; c < centers.size(); ++c) {
      const simcore::FifoStation& station = stations[c];
      TreeCenterStats stats;
      stats.path = centers[c].path;
      stats.egress = centers[c].egress;
      stats.utilization = station.utilization();
      stats.avg_queue_length = station.average_number_in_system();
      if (station.response_times().count() > 0) {
        stats.mean_response_us = station.response_times().mean();
      }
      stats.departures = station.departures();
      result.max_center_utilization =
          std::max(result.max_center_utilization, stats.utilization);
      result.total_avg_queue_length += stats.avg_queue_length;
      result.centers.push_back(std::move(stats));
    }
    result.events_executed = simulator.executed_events();
    return result;
  }

  TreeSimResult run() {
    require(!has_run, "TreeSim: run() may be called only once");
    has_run = true;
    require(options.measured_messages >= 2,
            "TreeSim: needs >= 2 measured messages");

    for (std::uint64_t proc = 0; proc < total_processors(); ++proc) {
      schedule_think(proc);
    }
    constexpr std::uint64_t kCancelPollMask = 4095;
    while (!done) {
      ensure(simulator.step(), "TreeSim: event queue drained before completion");
      if (options.max_events != 0 &&
          simulator.executed_events() > options.max_events) {
        detail::throw_config_error(
            "TreeSim: exceeded max_events safety limit",
            std::source_location::current());
      }
      if (options.cancel != nullptr &&
          (simulator.executed_events() & kCancelPollMask) == 0) {
        options.cancel->check("TreeSim");
      }
    }
    return collect();
  }
};

TreeSim::TreeSim(const analytic::ModelTree& tree, TreeSimOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->tree = tree;
  impl_->view = analytic::flatten(tree);  // validates
  require(impl_->view.total_processors >= 2, "TreeSim: needs >= 2 processors");
  for (const analytic::FlatLeaf& leaf : impl_->view.leaves) {
    require(leaf.rate_per_us > 0.0,
            "TreeSim: every leaf generation rate must be > 0 (closed-loop "
            "sources never release an idle processor)");
  }
  impl_->centers = analytic::tree_centers(impl_->tree, impl_->view);
  impl_->options = options;
  impl_->build(options.seed);
}

TreeSim::~TreeSim() = default;

TreeSimResult TreeSim::run() { return impl_->run(); }

}  // namespace hmcs::sim
