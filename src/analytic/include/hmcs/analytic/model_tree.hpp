#pragma once

/// \file model_tree.hpp
/// Recursive topology description: the compositional generalisation of
/// the paper's fixed two-stage HMCS. A ModelNode is either a *leaf* — a
/// group of processors attached to its parent's network, all generating
/// at one Poisson rate — or an *internal* node — a network technology
/// joining heterogeneous children, with an *egress* network connecting
/// the whole subtree to its parent's network (the generalisation of the
/// paper's ECN1; the root has no parent and therefore no egress).
///
/// The paper's HMCS is the depth-2 special case
///
///     root(ICN2) -> C x [cluster(ICN1, egress=ECN1) -> leaf(N0, lambda)]
///
/// and the heterogeneous Cluster-of-Clusters model (the paper's future
/// work) is the same shape with per-child sizes/technologies/rates,
/// built directly as a ModelTree. `from_system` lowers a flat config
/// onto its tree, and `as_system_config` recognises exactly that shape.
/// Input is lowered once, where it enters — runner::expand_sweep and
/// serve::parse_request turn a flat-shaped tree into the flat config it
/// denotes — so nothing downstream re-tests a tree's shape
/// (docs/COMPOSITION.md).
///
/// Endpoint convention (DESIGN.md note 3, generalised): a node's network
/// joins its children — a leaf child contributes its processor count, an
/// internal child contributes 1 (the subtree talks through one egress
/// port). The egress network of a node serves the same device population
/// as its internal network.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hmcs/analytic/network_tech.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/system_config.hpp"

namespace hmcs::analytic {

struct ModelNode {
  /// Optional human label; never affects the model or canonical keys of
  /// lowered (flat-shaped) trees.
  std::string name;

  /// Internal nodes: the network joining this node's children.
  NetworkTechnology network;
  /// Internal non-root nodes: the boundary network to the parent level
  /// (the generalised ECN1). Ignored at the root and on leaves.
  NetworkTechnology egress;
  /// Empty for leaves; non-empty for internal nodes.
  std::vector<ModelNode> children;

  /// Leaves: processor-group size (>= 1).
  std::uint32_t processors = 0;
  /// Leaves: per-processor Poisson generation rate, messages/us (>= 0).
  double generation_rate_per_us = 0.0;

  bool is_leaf() const { return children.empty(); }

  static ModelNode leaf(std::uint32_t processors, double rate_per_us,
                        std::string name = {});
  /// Root-style internal node (no egress).
  static ModelNode internal(NetworkTechnology network,
                            std::vector<ModelNode> children,
                            std::string name = {});
  /// Non-root internal node with an egress boundary network.
  static ModelNode internal(NetworkTechnology network,
                            NetworkTechnology egress,
                            std::vector<ModelNode> children,
                            std::string name = {});
};

/// A complete model: the topology tree plus the shared fabric/workload
/// parameters that the paper keeps global (assumptions 5-6 generalise
/// per-subtree; switch fabric and message size stay system-wide).
struct ModelTree {
  ModelNode root;
  SwitchParams switch_params;
  NetworkArchitecture architecture = NetworkArchitecture::kNonBlocking;
  /// M: fixed message length in bytes (assumption 6).
  double message_bytes = 1024.0;
  /// Heavy-traffic workload scenario (workload.hpp), tree-wide: applies
  /// to every centre and every leaf source.
  WorkloadScenario scenario;

  /// N: all processors in the tree.
  std::uint64_t total_processors() const;
  /// Network levels on the deepest root-to-leaf path (flat HMCS = 2).
  std::uint32_t depth() const;

  /// Throws hmcs::ConfigError when any field is out of domain: the root
  /// must be internal, internal nodes need >= 1 child and valid
  /// networks, leaves need >= 1 processors and a finite rate >= 0.
  void validate() const;

  static ModelTree from_system(const SystemConfig& config);

  /// Recognises the exact two-stage homogeneous shape produced by
  /// `from_system` (every root child an internal node over one leaf, all
  /// children identical: processors, rate, and network and egress
  /// technologies by name, latency and bandwidth) and returns the
  /// equivalent flat config, scenario included; std::nullopt for any
  /// other shape. Called only where input enters (expand_sweep,
  /// serve::parse_request), so flat-shaped trees reach the flat
  /// pipeline and its bit-exact results.
  std::optional<SystemConfig> as_system_config() const;
};

// --- Flattened traversal ----------------------------------------------------

/// One internal node in DFS pre-order (parents precede children, so
/// index 0 is the root and bottom-up passes iterate indices descending).
struct FlatNode {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t parent = npos;  ///< index into FlatTreeView::nodes
  const ModelNode* node = nullptr;
  std::string path;  ///< "root", "root.children[1]", ...

  /// S(u): processors in this node's subtree.
  std::uint64_t subtree_processors = 0;
  /// gen(u): aggregate generation rate of the subtree, messages/us.
  double subtree_generation_rate = 0.0;
  /// Devices attached to this node's network (leaf children contribute
  /// their processor count, internal children contribute 1).
  std::uint64_t attached_endpoints = 0;

  std::vector<std::size_t> internal_children;  ///< indices into nodes
  std::vector<std::size_t> leaf_children;      ///< indices into leaves
};

struct FlatLeaf {
  std::size_t parent = 0;  ///< index into FlatTreeView::nodes
  std::uint32_t processors = 0;
  double rate_per_us = 0.0;
  std::string path;
};

/// The shared flattening both the analytic solver (tree_model.cpp) and
/// the validation DES (sim/tree_sim.cpp) consume, so their node
/// numbering, subtree aggregates, and endpoint counts cannot drift.
struct FlatTreeView {
  std::vector<FlatNode> nodes;   ///< internal nodes, DFS pre-order
  std::vector<FlatLeaf> leaves;  ///< DFS order
  std::uint64_t total_processors = 0;
  double total_generation_rate = 0.0;
};

/// Validates the tree and flattens it.
FlatTreeView flatten(const ModelTree& tree);

/// One queueing centre: an internal node's network, or a non-root
/// internal node's egress. DFS pre-order, network before egress — the
/// flat lowering yields [ICN2, ICN1_0, ECN1_0, ICN1_1, ECN1_1, ...].
struct TreeCenter {
  std::size_t node = 0;  ///< index into FlatTreeView::nodes
  bool egress = false;
  std::string path;  ///< node path + ".icn" or ".egress"
  ServiceTimeBreakdown service;
};

std::vector<TreeCenter> tree_centers(const ModelTree& tree,
                                     const FlatTreeView& view);

// --- Exchangeability --------------------------------------------------------

/// True when every internal node's children are mutually identical
/// (recursively: same sizes, rates, and technologies). The tree's
/// automorphism group then acts transitively on processors — every
/// customer is statistically identical — which is exactly the
/// precondition for the single-class station-class MVA path
/// (SourceThrottling::kExactMva) to be exact.
bool is_uniform_tree(const ModelTree& tree);

// --- Node-path targeting ----------------------------------------------------

/// Numeric field addressing for sweep axes and tooling. Grammar:
///
///   root(.children[<index>])* . <field>
///
/// with <field> one of
///   icn.latency_us | icn.bandwidth_mb_per_s | icn.bandwidth      (internal)
///   egress.latency_us | egress.bandwidth_mb_per_s | egress.bandwidth
///                                                      (internal non-root)
///   processors | generation_rate_per_us | lambda_per_s           (leaf)
///
/// bandwidth is in MB/s (numerically bytes/us); lambda_per_s converts to
/// the internal messages/us. Throws hmcs::ConfigError on a malformed
/// path, an out-of-range index, or a field that does not apply to the
/// addressed node.
double tree_path_value(const ModelTree& tree, std::string_view path);
void set_tree_path(ModelTree& tree, std::string_view path, double value);

}  // namespace hmcs::analytic
