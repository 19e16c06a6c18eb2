#include "hmcs/analytic/model_tree.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

#include "hmcs/util/error.hpp"
#include "hmcs/util/units.hpp"

namespace hmcs::analytic {

ModelNode ModelNode::leaf(std::uint32_t processors, double rate_per_us,
                          std::string name) {
  ModelNode node;
  node.name = std::move(name);
  node.processors = processors;
  node.generation_rate_per_us = rate_per_us;
  return node;
}

ModelNode ModelNode::internal(NetworkTechnology network,
                              std::vector<ModelNode> children,
                              std::string name) {
  ModelNode node;
  node.name = std::move(name);
  node.network = std::move(network);
  node.children = std::move(children);
  return node;
}

ModelNode ModelNode::internal(NetworkTechnology network,
                              NetworkTechnology egress,
                              std::vector<ModelNode> children,
                              std::string name) {
  ModelNode node = internal(std::move(network), std::move(children),
                            std::move(name));
  node.egress = std::move(egress);
  return node;
}

namespace {

bool same_technology(const NetworkTechnology& a, const NetworkTechnology& b) {
  return a.name == b.name && a.latency_us == b.latency_us &&
         a.bandwidth_bytes_per_us == b.bandwidth_bytes_per_us;
}

std::uint64_t node_processors(const ModelNode& node) {
  if (node.is_leaf()) return node.processors;
  std::uint64_t total = 0;
  for (const auto& child : node.children) total += node_processors(child);
  return total;
}

std::uint32_t node_depth(const ModelNode& node) {
  if (node.is_leaf()) return 0;
  std::uint32_t deepest = 0;
  for (const auto& child : node.children) {
    deepest = std::max(deepest, node_depth(child));
  }
  return deepest + 1;
}

/// A node's position as a chain of child indices up to the root, spelt
/// "root.children[i]..." only when a message names the node.
struct NodePath {
  const NodePath* parent = nullptr;
  std::size_t index = 0;

  std::string str() const {
    if (parent == nullptr) return "root";
    return parent->str() + ".children[" + std::to_string(index) + "]";
  }
};

void validate_node(const ModelNode& node, const NodePath& path) {
  const bool root = path.parent == nullptr;
  if (node.is_leaf()) {
    require(!root, "ModelTree: the root must be an internal (network) node");
    require(node.processors >= 1, [&] {
      return "ModelTree: leaf '" + path.str() + "' needs >= 1 processors";
    });
    require(std::isfinite(node.generation_rate_per_us) &&
                node.generation_rate_per_us >= 0.0,
            [&] {
              return "ModelTree: leaf '" + path.str() +
                     "' needs a finite generation rate >= 0";
            });
    return;
  }
  analytic::validate(node.network);
  if (!root) analytic::validate(node.egress);
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    validate_node(node.children[i], NodePath{&path, i});
  }
}

/// Exact, locale-independent rendering so signature equality is exactly
/// bit equality of the underlying doubles.
void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  out += buffer;
}

void append_technology(std::string& out, const NetworkTechnology& tech) {
  out += tech.name;
  out += '@';
  append_double(out, tech.latency_us);
  out += ',';
  append_double(out, tech.bandwidth_bytes_per_us);
}

/// Canonical structural signature; returns false as soon as any internal
/// node has non-identical children (the subtree is then not uniform).
bool uniform_signature(const ModelNode& node, bool root, std::string& sig) {
  if (node.is_leaf()) {
    sig = "L(" + std::to_string(node.processors) + ",";
    append_double(sig, node.generation_rate_per_us);
    sig += ')';
    return true;
  }
  std::string first;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    std::string child_sig;
    if (!uniform_signature(node.children[i], false, child_sig)) return false;
    if (i == 0) {
      first = std::move(child_sig);
    } else if (child_sig != first) {
      return false;
    }
  }
  sig = "I(";
  append_technology(sig, node.network);
  if (!root) {
    sig += '|';
    append_technology(sig, node.egress);
  }
  sig += "|x" + std::to_string(node.children.size()) + ":" + first + ")";
  return true;
}

}  // namespace

std::uint64_t ModelTree::total_processors() const {
  return node_processors(root);
}

std::uint32_t ModelTree::depth() const { return node_depth(root); }

void ModelTree::validate() const {
  validate_node(root, NodePath{});
  require(total_processors() >= 2, "ModelTree: needs >= 2 processors");
  require(switch_params.ports >= 4 && switch_params.ports % 2 == 0,
          "ModelTree: switch ports must be even and >= 4");
  require(switch_params.latency_us >= 0.0,
          "ModelTree: switch latency must be >= 0");
  require(message_bytes > 0.0, "ModelTree: message size must be > 0");
  scenario.validate();
}

ModelTree ModelTree::from_system(const SystemConfig& config) {
  config.validate();
  std::vector<ModelNode> clusters;
  clusters.reserve(config.clusters);
  for (std::uint32_t i = 0; i < config.clusters; ++i) {
    std::vector<ModelNode> group;
    group.push_back(ModelNode::leaf(config.nodes_per_cluster,
                                    config.generation_rate_per_us));
    clusters.push_back(
        ModelNode::internal(config.icn1, config.ecn1, std::move(group)));
  }
  ModelTree tree;
  tree.root = ModelNode::internal(config.icn2, std::move(clusters));
  tree.switch_params = config.switch_params;
  tree.architecture = config.architecture;
  tree.message_bytes = config.message_bytes;
  tree.scenario = config.scenario;
  return tree;
}

std::optional<SystemConfig> ModelTree::as_system_config() const {
  if (root.is_leaf() ||
      root.children.size() > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  // Every root child is a cluster over one leaf group, identical to the
  // first (which passes the shape check before anything reads it).
  const ModelNode& first = root.children.front();
  for (const ModelNode& child : root.children) {
    if (child.is_leaf() || child.children.size() != 1 ||
        !child.children.front().is_leaf()) {
      return std::nullopt;
    }
    const ModelNode& leaf = child.children.front();
    const ModelNode& first_leaf = first.children.front();
    if (leaf.processors != first_leaf.processors ||
        leaf.generation_rate_per_us != first_leaf.generation_rate_per_us ||
        !same_technology(child.network, first.network) ||
        !same_technology(child.egress, first.egress)) {
      return std::nullopt;
    }
  }
  const ModelNode& first_leaf = first.children.front();
  SystemConfig config;
  config.clusters = static_cast<std::uint32_t>(root.children.size());
  config.nodes_per_cluster = first_leaf.processors;
  config.icn1 = first.network;
  config.ecn1 = first.egress;
  config.icn2 = root.network;
  config.switch_params = switch_params;
  config.architecture = architecture;
  config.message_bytes = message_bytes;
  config.generation_rate_per_us = first_leaf.generation_rate_per_us;
  config.scenario = scenario;
  return config;
}

FlatTreeView flatten(const ModelTree& tree) {
  tree.validate();
  FlatTreeView view;
  // DFS pre-order; push_back may reallocate, so the node is re-indexed
  // (never held by reference) across child recursion.
  auto walk = [&](auto&& self, const ModelNode& node, std::size_t parent,
                  const std::string& path) -> std::size_t {
    const std::size_t index = view.nodes.size();
    view.nodes.emplace_back();
    view.nodes[index].parent = parent;
    view.nodes[index].node = &node;
    view.nodes[index].path = path;

    std::uint64_t processors = 0;
    double rate = 0.0;
    std::uint64_t endpoints = 0;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      const ModelNode& child = node.children[i];
      const std::string child_path =
          path + ".children[" + std::to_string(i) + "]";
      if (child.is_leaf()) {
        view.nodes[index].leaf_children.push_back(view.leaves.size());
        view.leaves.push_back(FlatLeaf{index, child.processors,
                                       child.generation_rate_per_us,
                                       child_path});
        processors += child.processors;
        rate += static_cast<double>(child.processors) *
                child.generation_rate_per_us;
        endpoints += child.processors;
      } else {
        const std::size_t child_index = self(self, child, index, child_path);
        view.nodes[index].internal_children.push_back(child_index);
        processors += view.nodes[child_index].subtree_processors;
        rate += view.nodes[child_index].subtree_generation_rate;
        endpoints += 1;
      }
    }
    view.nodes[index].subtree_processors = processors;
    view.nodes[index].subtree_generation_rate = rate;
    view.nodes[index].attached_endpoints = endpoints;
    return index;
  };
  walk(walk, tree.root, FlatNode::npos, "root");
  view.total_processors = view.nodes.front().subtree_processors;
  view.total_generation_rate = view.nodes.front().subtree_generation_rate;
  return view;
}

std::vector<TreeCenter> tree_centers(const ModelTree& tree,
                                     const FlatTreeView& view) {
  std::vector<TreeCenter> centers;
  centers.reserve(2 * view.nodes.size());
  for (std::size_t u = 0; u < view.nodes.size(); ++u) {
    const FlatNode& node = view.nodes[u];
    TreeCenter network;
    network.node = u;
    network.egress = false;
    network.path = node.path + ".icn";
    network.service = network_service_time(
        node.node->network, node.attached_endpoints, tree.switch_params,
        tree.architecture, tree.message_bytes);
    centers.push_back(std::move(network));
    if (node.parent != FlatNode::npos) {
      TreeCenter egress;
      egress.node = u;
      egress.egress = true;
      egress.path = node.path + ".egress";
      egress.service = network_service_time(
          node.node->egress, node.attached_endpoints, tree.switch_params,
          tree.architecture, tree.message_bytes);
      centers.push_back(std::move(egress));
    }
  }
  return centers;
}

bool is_uniform_tree(const ModelTree& tree) {
  std::string sig;
  return uniform_signature(tree.root, /*root=*/true, sig);
}

namespace {

/// "tree path '<path>'<rest>": built only when a path check fails.
std::string path_message(std::string_view path, std::string_view rest) {
  std::string message = "tree path '";
  message += path;
  message += '\'';
  message += rest;
  return message;
}

const ModelNode* resolve_path(const ModelNode& root, std::string_view path,
                              std::string_view& field, bool& is_root) {
  require(path.substr(0, 4) == "root",
          [&] { return path_message(path, " must start with 'root'"); });
  const ModelNode* node = &root;
  is_root = true;
  std::size_t pos = 4;
  while (pos < path.size() && path.compare(pos, 10, ".children[") == 0) {
    pos += 10;
    const std::size_t end = path.find(']', pos);
    require(end != std::string_view::npos && end > pos,
            [&] { return path_message(path, ": malformed child index"); });
    std::uint64_t index = 0;
    for (std::size_t d = pos; d < end; ++d) {
      const char c = path[d];
      require(c >= '0' && c <= '9',
              [&] { return path_message(path, ": malformed child index"); });
      index = index * 10 + static_cast<std::uint64_t>(c - '0');
      require(index <= std::numeric_limits<std::uint32_t>::max(), [&] {
        return path_message(path, ": child index out of range");
      });
    }
    require(index < node->children.size(), [&] {
      return path_message(path, ": child index " + std::to_string(index) +
                                    " out of range (node has " +
                                    std::to_string(node->children.size()) +
                                    " children)");
    });
    node = &node->children[index];
    is_root = false;
    pos = end + 1;
  }
  require(pos < path.size() && path[pos] == '.', [&] {
    return path_message(path, " needs a field (e.g. .icn.latency_us)");
  });
  field = path.substr(pos + 1);
  require(!field.empty(),
          [&] { return path_message(path, " needs a field"); });
  return node;
}

/// Maps a field name onto the addressed technology member; nullptr when
/// the field is not a technology field.
double* technology_field(ModelNode& node, bool is_root, std::string_view field,
                         std::string_view path) {
  const bool egress = field.starts_with("egress.");
  const bool icn = field.starts_with("icn.");
  if (!egress && !icn) return nullptr;
  require(!node.is_leaf(), [&] {
    return path_message(path, std::string(": leaf nodes have no '") +
                                  (egress ? "egress" : "icn") + "'");
  });
  require(!(egress && is_root),
          [&] { return path_message(path, ": the root has no egress"); });
  NetworkTechnology& tech = egress ? node.egress : node.network;
  const std::string_view member = field.substr(egress ? 7 : 4);
  if (member == "latency_us") return &tech.latency_us;
  if (member == "bandwidth_mb_per_s" || member == "bandwidth") {
    return &tech.bandwidth_bytes_per_us;
  }
  require(false, [&] {
    return path_message(path, ": unknown technology field '" +
                                  std::string(member) + "'");
  });
  return nullptr;
}

/// The addressed field's member, or a ConfigError naming `path`.
double* path_member(ModelNode& node, bool is_root, std::string_view field,
                    std::string_view path) {
  double* member = technology_field(node, is_root, field, path);
  require(member != nullptr, [&] {
    return path_message(path, ": unknown field '" + std::string(field) + "'");
  });
  return member;
}

}  // namespace

double tree_path_value(const ModelTree& tree, std::string_view path) {
  std::string_view field;
  bool is_root = false;
  // resolve_path only reads; the const_cast lets one technology_field
  // helper serve both the getter and the setter.
  ModelNode* node = const_cast<ModelNode*>(
      resolve_path(tree.root, path, field, is_root));
  if (field == "processors") {
    require(node->is_leaf(),
            [&] { return path_message(path, ": 'processors' needs a leaf"); });
    return static_cast<double>(node->processors);
  }
  if (field == "generation_rate_per_us" || field == "lambda_per_s") {
    require(node->is_leaf(), [&] {
      return path_message(path, ": generation rate needs a leaf");
    });
    return field == "lambda_per_s"
               ? units::per_us_to_per_s(node->generation_rate_per_us)
               : node->generation_rate_per_us;
  }
  return *path_member(*node, is_root, field, path);
}

void set_tree_path(ModelTree& tree, std::string_view path, double value) {
  require(std::isfinite(value),
          [&] { return path_message(path, ": value must be finite"); });
  std::string_view field;
  bool is_root = false;
  ModelNode* node = const_cast<ModelNode*>(
      resolve_path(tree.root, path, field, is_root));
  if (field == "processors") {
    require(node->is_leaf(),
            [&] { return path_message(path, ": 'processors' needs a leaf"); });
    require(value >= 1.0 && value == std::floor(value) &&
                value <= static_cast<double>(
                             std::numeric_limits<std::uint32_t>::max()),
            [&] {
              return path_message(path,
                                  ": 'processors' needs a positive integer");
            });
    node->processors = static_cast<std::uint32_t>(value);
    return;
  }
  if (field == "generation_rate_per_us" || field == "lambda_per_s") {
    require(node->is_leaf(), [&] {
      return path_message(path, ": generation rate needs a leaf");
    });
    require(value >= 0.0, [&] {
      return path_message(path, ": generation rate must be >= 0");
    });
    node->generation_rate_per_us =
        field == "lambda_per_s" ? units::per_s_to_per_us(value) : value;
    return;
  }
  *path_member(*node, is_root, field, path) = value;
}

}  // namespace hmcs::analytic
