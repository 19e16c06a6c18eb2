#include "hmcs/netsim/switch_fabric_sim.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "hmcs/simcore/batch_means.hpp"
#include "hmcs/simcore/fifo_station.hpp"
#include "hmcs/simcore/histogram.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/simulation.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::netsim {

using topology::NodeId;

namespace {

struct MessageState {
  std::vector<NodeId> path;  ///< switch node ids, in traversal order
  std::size_t hop = 0;       ///< index into path of the current switch
  std::uint64_t source = 0;  ///< endpoint *index* (not node id)
  double generated_at = 0.0;
  double extra_latency_us = 0.0;  ///< path-dependent alpha term
  bool in_use = false;
};

/// An event in 8 bytes: its kind in the low bit, above it the endpoint
/// that injects or the switch whose job departs.
enum EventKind : std::uint64_t { kInject, kDepart };
constexpr std::uint64_t kKindMask = 1;

constexpr std::uint64_t make_event(EventKind kind, std::uint64_t index) {
  return index << 1 | kind;
}

}  // namespace

struct SwitchFabricSim::Impl {
  explicit Impl(FabricSimOptions run_options)
      : options(std::move(run_options)),
        simulator("SwitchFabricSim", options.max_events, options.cancel) {}

  FabricSimOptions options;
  std::vector<NodeId> endpoints;
  /// Dense switch indexing: switch_index[node id] or npos.
  std::vector<std::size_t> switch_index_of_node;
  std::vector<NodeId> switch_nodes;
  std::vector<std::uint32_t> switch_stage;

  std::optional<RoutingTable> routes;
  simcore::Simulator simulator;
  std::vector<simcore::FifoStation> switches;
  simcore::Rng think_rng{0};
  simcore::Rng dest_rng{0};
  simcore::Rng route_rng{0};

  std::vector<MessageState> messages;
  std::vector<std::uint32_t> free_slots;

  bool measuring = false;
  bool done = false;
  bool has_run = false;
  double window_start = 0.0;
  std::uint64_t delivered_total = 0;
  std::uint64_t measured = 0;
  simcore::Tally latency;
  simcore::Tally hops;
  std::vector<double> samples;

  /// Bandwidth multiplier for a switch, by its stage (1-indexed).
  double stage_scale(NodeId switch_node) const {
    const std::uint32_t stage = switch_stage[switch_index_of_node[switch_node]];
    const std::size_t index = stage == 0 ? 0 : stage - 1;
    if (index >= options.stage_bandwidth_scale.size()) return 1.0;
    return options.stage_bandwidth_scale[index];
  }

  double node_scale(NodeId switch_node) const {
    if (switch_node >= options.node_bandwidth_scale.size()) return 1.0;
    return options.node_bandwidth_scale[switch_node];
  }

  double serialization_us(NodeId switch_node) const {
    return options.message_bytes * options.technology.byte_time_us() /
           (stage_scale(switch_node) * node_scale(switch_node));
  }

  /// Service demanded at the switch a job is entering.
  double service_for(std::uint64_t id) const {
    const MessageState& msg = messages[static_cast<std::size_t>(id)];
    const NodeId current = msg.path[msg.hop];
    const bool first_hop = msg.hop == 0;
    if (options.mode == SwitchingMode::kStoreAndForward || first_hop) {
      return options.switch_latency_us + serialization_us(current);
    }
    return options.switch_latency_us;
  }

  void build(const topology::Graph& graph) {
    endpoints = graph.endpoints();
    require(endpoints.size() >= 2, "SwitchFabricSim: needs >= 2 endpoints");
    require(options.rate_per_us > 0.0,
            "SwitchFabricSim: injection rate must be > 0");
    require(options.message_bytes > 0.0,
            "SwitchFabricSim: message size must be > 0");
    analytic::validate(options.technology);
    require(options.switch_latency_us >= 0.0,
            "SwitchFabricSim: switch latency must be >= 0");
    require(options.measured_messages >= 2,
            "SwitchFabricSim: needs >= 2 measured messages");
    for (const double scale : options.stage_bandwidth_scale) {
      require(scale > 0.0,
              "SwitchFabricSim: stage bandwidth scales must be > 0");
    }
    for (const double scale : options.node_bandwidth_scale) {
      require(scale > 0.0,
              "SwitchFabricSim: node bandwidth scales must be > 0");
    }
    if (options.active_endpoints == 0) {
      options.active_endpoints = endpoints.size();
    }
    require(options.active_endpoints >= 2 &&
                options.active_endpoints <= endpoints.size(),
            "SwitchFabricSim: active_endpoints out of range");

    // The built-in router is only needed when no custom one is given.
    if (!options.path_provider) routes.emplace(graph);

    simcore::Rng master(options.seed);
    think_rng = master.split();
    dest_rng = master.split();
    route_rng = master.split();

    switch_index_of_node.assign(graph.num_nodes(), SIZE_MAX);
    for (NodeId id = 0; id < graph.num_nodes(); ++id) {
      if (graph.node(id).kind == topology::NodeKind::kSwitch) {
        switch_index_of_node[id] = switch_nodes.size();
        switch_nodes.push_back(id);
        switch_stage.push_back(graph.node(id).stage);
        switches.emplace_back("SW" + std::to_string(id));
      }
    }
    require(!switches.empty(), "SwitchFabricSim: graph has no switches");

    // In-flight pool: closed loop bounds it at one per endpoint; open
    // loop can exceed that, so the pool grows on demand there.
    messages.resize(endpoints.size());
    free_slots.reserve(endpoints.size());
    for (std::uint64_t i = endpoints.size(); i > 0; --i) {
      free_slots.push_back(static_cast<std::uint32_t>(i - 1));
    }
    // Warm-up statistics would be dropped at the cut, so the switches
    // hold them until the cut resets them.
    if (options.warmup_messages == 0) {
      measuring = true;
    } else {
      for (auto& station : switches) station.hold_statistics();
    }
  }

  void schedule_injection(std::uint64_t endpoint_index) {
    simulator.schedule(think_rng.exponential(1.0 / options.rate_per_us),
                       make_event(kInject, endpoint_index));
  }

  void inject(std::uint64_t endpoint_index) {
    if (free_slots.empty()) {
      ensure(!options.closed_loop,
             "SwitchFabricSim: pool exhausted in closed loop");
      messages.push_back(MessageState{});
      free_slots.push_back(static_cast<std::uint32_t>(messages.size() - 1));
    }
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();

    const std::uint64_t draw =
        dest_rng.uniform_below(options.active_endpoints - 1);
    const std::uint64_t dst_index =
        draw >= endpoint_index ? draw + 1 : draw;

    MessageState& msg = messages[slot];
    if (options.path_provider) {
      RoutedPath routed =
          options.path_provider(endpoint_index, dst_index, route_rng);
      msg.path = std::move(routed.switches);
      msg.extra_latency_us = routed.extra_latency_us;
    } else {
      msg.path = options.routing == RoutingPolicy::kRandomMinimal
                     ? routes->random_switch_path(endpoints[endpoint_index],
                                                  endpoints[dst_index],
                                                  route_rng)
                     : routes->switch_path(endpoints[endpoint_index],
                                           endpoints[dst_index]);
      msg.extra_latency_us = options.technology.latency_us;
    }
    ensure(!msg.path.empty(), "SwitchFabricSim: endpoint pair with no path");
    msg.hop = 0;
    msg.source = endpoint_index;
    msg.generated_at = simulator.now();
    msg.in_use = true;

    enter(slot, switch_index_of_node[msg.path[0]]);
    if (!options.closed_loop) schedule_injection(endpoint_index);
  }

  void enter(std::uint64_t id, std::size_t s) {
    if (switches[s].arrive(id, simulator.now())) start_service(s);
  }

  void start_service(std::size_t s) {
    const double service = service_for(switches[s].next_job().id);
    switches[s].begin_service(service, simulator.now());
    simulator.schedule(service, make_event(kDepart, s));
  }

  /// Starts the next queued job before the departed message moves on
  /// (the order fifo_station.hpp fixes).
  void depart(std::size_t s) {
    const std::uint64_t id =
        switches[s].complete_service(simulator.now()).job.id;
    if (switches[s].has_waiting()) start_service(s);
    advance(id);
  }

  void advance(std::uint64_t id) {
    MessageState& msg = messages[static_cast<std::size_t>(id)];
    ensure(msg.in_use, "SwitchFabricSim: departure for free slot");
    ++msg.hop;
    if (msg.hop < msg.path.size()) {
      enter(id, switch_index_of_node[msg.path[msg.hop]]);
      return;
    }
    deliver(id);
  }

  void deliver(std::uint64_t id) {
    MessageState& msg = messages[static_cast<std::size_t>(id)];
    // eq. (10): the link latency alpha applies once end to end (per
    // fabric crossed, when a custom router priced the path).
    const double elapsed =
        simulator.now() - msg.generated_at + msg.extra_latency_us;
    const std::uint64_t source = msg.source;
    const double path_switches = static_cast<double>(msg.path.size());
    msg.in_use = false;
    msg.path.clear();
    free_slots.push_back(static_cast<std::uint32_t>(id));

    ++delivered_total;
    if (measuring) {
      latency.add(elapsed);
      hops.add(path_switches);
      samples.push_back(elapsed);
      if (++measured >= options.measured_messages) {
        done = true;
        return;
      }
    } else if (delivered_total >= options.warmup_messages) {
      measuring = true;
      window_start = simulator.now();
      for (auto& station : switches) station.reset_statistics(window_start);
    }
    if (options.closed_loop) schedule_injection(source);
  }

  FabricSimResult run() {
    require(!has_run, "SwitchFabricSim: run() may be called only once");
    has_run = true;
    for (std::uint64_t e = 0; e < options.active_endpoints; ++e) {
      schedule_injection(e);
    }
    while (!done) {
      const std::uint64_t event = simulator.next();
      if ((event & kKindMask) == kDepart) {
        depart(static_cast<std::size_t>(event >> 1));
      } else {
        inject(event >> 1);
      }
    }

    FabricSimResult result;
    result.messages_measured = measured;
    result.mean_latency_us = latency.mean();
    result.mean_switch_hops = hops.mean();
    result.window_duration_us = simulator.now() - window_start;
    if (result.window_duration_us > 0.0) {
      result.delivered_rate_per_us =
          static_cast<double>(measured) / result.window_duration_us /
          static_cast<double>(options.active_endpoints);
    }

    const std::uint64_t batch = std::max<std::uint64_t>(1, measured / 32);
    simcore::BatchMeans batches(batch);
    for (const double sample : samples) batches.add(sample);
    result.latency_ci = batches.num_complete_batches() >= 2
                            ? batches.confidence_interval()
                            : latency.confidence_interval();

    simcore::Histogram histogram(0.0, latency.max() * 1.001 + 1.0, 128);
    for (const double sample : samples) histogram.add(sample);
    result.p95_latency_us = histogram.quantile(0.95);

    result.switch_utilization.reserve(switches.size());
    for (std::size_t i = 0; i < switches.size(); ++i) {
      const double utilization = switches[i].utilization(simulator.now());
      result.switch_utilization.push_back(utilization);
      if (utilization > result.max_switch_utilization) {
        result.max_switch_utilization = utilization;
        result.busiest_switch = i;
      }
    }
    return result;
  }
};

SwitchFabricSim::SwitchFabricSim(const topology::Graph& graph,
                                 FabricSimOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->build(graph);
}

SwitchFabricSim::~SwitchFabricSim() = default;

FabricSimResult SwitchFabricSim::run() { return impl_->run(); }

}  // namespace hmcs::netsim
