#pragma once

/// \file hmcs_fabric.hpp
/// The whole HMSCS at switch granularity: every cluster's ICN1 fabric,
/// every cluster's ECN1 fabric (with a gateway port toward the second
/// stage), and the ICN2 fabric, grafted into one Graph and routed by
/// the paper's rule — local messages ride their cluster's ICN1; remote
/// messages go source-ECN1 -> gateway -> ICN2 -> gateway -> dest-ECN1.
///
/// This is the most literal "physical" rendering of Figure 1. Together
/// with SwitchFabricSim it forms the third member of the simulator set:
///
///   1. centre-level  (sim::TreeSim, which sim::MultiClusterSim runs on
///      the config's depth-2 lowering — one server per network, the
///      paper's own validation simulator)
///   2. single-fabric switch-level (netsim_fabric_validation)
///   3. whole-system switch-level  (this builder + the
///      netsim_hmcs_validation bench), which checks the one-server
///      abstraction of the paper's model end to end.
///
/// Technologies differ per fabric, so the builder emits per-node
/// bandwidth scales (relative to the reference technology) and prices
/// each route's end-to-end alpha from the fabrics it crosses.

#include <cstdint>
#include <vector>

#include "hmcs/analytic/system_config.hpp"
#include "hmcs/netsim/routing.hpp"
#include "hmcs/netsim/switch_fabric_sim.hpp"
#include "hmcs/topology/graph.hpp"

namespace hmcs::netsim {

class HmcsFabric {
 public:
  explicit HmcsFabric(const analytic::SystemConfig& config);

  /// Combined graph: endpoints 0..N-1 are the processors; the C gateway
  /// relay endpoints follow; switches after that.
  const topology::Graph& graph() const { return graph_; }

  std::uint64_t num_processors() const { return num_processors_; }

  /// Routed path between two processors under the HMSCS rule (random
  /// minimal within each fabric). extra_latency_us carries the summed
  /// per-fabric link latencies (alpha terms of eq. 10).
  RoutedPath route(std::uint64_t src, std::uint64_t dst,
                   simcore::Rng& rng) const;

  /// Simulation options pre-wired to this fabric: path provider, node
  /// bandwidth scales (relative to `reference` = the config's ICN2
  /// technology), and active endpoint count. Workload fields (rate,
  /// messages, seed) are left at their defaults for the caller. The
  /// returned path provider references this HmcsFabric, which must
  /// outlive any simulator using the options.
  FabricSimOptions make_sim_options() const;

 private:
  /// One grafted sub-fabric and its local router.
  struct SubFabric {
    topology::Graph local;                   ///< local wiring
    RoutingTable routes;                     ///< router over `local`
    std::vector<topology::NodeId> node_map;  ///< local node -> global node
    double latency_us;                       ///< technology alpha
    explicit SubFabric(topology::Graph g, std::vector<topology::NodeId> map,
                       double alpha)
        : local(std::move(g)), routes(local), node_map(std::move(map)),
          latency_us(alpha) {}
  };

  /// Builds one network's wiring, grafts it into graph_, and returns
  /// the sub-fabric. `local_endpoint_globals` maps the fabric's local
  /// endpoint indices to global node ids.
  SubFabric graft(const analytic::NetworkTechnology& tech,
                  std::uint64_t endpoints,
                  const std::vector<topology::NodeId>& local_endpoint_globals,
                  double bandwidth_scale);

  std::vector<topology::NodeId> map_path(
      const SubFabric& fabric, topology::NodeId local_src,
      topology::NodeId local_dst, simcore::Rng& rng) const;

  analytic::SystemConfig config_;
  topology::Graph graph_;
  std::uint64_t num_processors_;
  std::vector<topology::NodeId> gateway_nodes_;
  std::vector<SubFabric> icn1_;
  std::vector<SubFabric> ecn1_;
  std::vector<SubFabric> icn2_;  // single element; vector for uniformity
  std::vector<double> node_bandwidth_scale_;
};

}  // namespace hmcs::netsim
