#include "hmcs/analytic/tree_io.hpp"

#include "hmcs/analytic/config_io.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/units.hpp"

namespace hmcs::analytic {

bool is_tree_config(const JsonValue& config) {
  return config.is_object() && config.find("tree") != nullptr;
}

namespace {

constexpr std::string_view kPrefix = "tree config";

NetworkTechnology technology_entry(const JsonValue& entry,
                                   const std::string& where) {
  if (entry.is_string()) return parse_technology(entry.as_string());
  require(entry.is_object(), [&] {
    return "tree config: a technology at " + where +
           " must be a preset/custom string or an object";
  });
  reject_unknown_members(entry, {"name", "latency_us", "bandwidth_mb_per_s"},
                         kPrefix, where);
  NetworkTechnology tech;
  tech.name = string_member(entry, "name", "custom", kPrefix);
  tech.latency_us = entry.at("latency_us").as_number();
  tech.bandwidth_bytes_per_us = entry.at("bandwidth_mb_per_s").as_number();
  return tech;
}

ModelNode node_from_json(const JsonValue& entry, bool root,
                         const std::string& path) {
  require(entry.is_object(), [&] {
    return "tree config: node at " + path + " must be an object";
  });
  const bool internal = entry.find("network") != nullptr ||
                        entry.find("egress") != nullptr ||
                        entry.find("children") != nullptr;
  ModelNode node;
  node.name = string_member(entry, "name", "", kPrefix);

  if (!internal) {
    reject_unknown_members(entry, {"name", "processors", "lambda_per_s"},
                           kPrefix, path);
    node.processors = uint_member(entry, "processors", std::uint32_t{0},
                                  std::string(kPrefix) + ": " + path);
    require(node.processors >= 1, [&] {
      return "tree config: leaf at " + path + " needs 'processors' >= 1";
    });
    node.generation_rate_per_us = units::per_s_to_per_us(
        number_member(entry, "lambda_per_s",
                      units::per_us_to_per_s(kPaperRatePerUs), kPrefix));
    return node;
  }

  reject_unknown_members(entry, {"name", "network", "egress", "children"},
                         kPrefix, path);
  const JsonValue* network = entry.find("network");
  require(network != nullptr, [&] {
    return "tree config: internal node at " + path + " needs a 'network'";
  });
  node.network = technology_entry(*network, path + ".network");

  const JsonValue* egress = entry.find("egress");
  if (root) {
    require(egress == nullptr,
            "tree config: the root has no parent, so no 'egress'");
  } else {
    require(egress != nullptr, [&] {
      return "tree config: internal node at " + path + " needs an 'egress'";
    });
    node.egress = technology_entry(*egress, path + ".egress");
  }

  const JsonValue* children = entry.find("children");
  require(
      children != nullptr && children->is_array() && children->size() >= 1,
      [&] {
        return "tree config: internal node at " + path +
               " needs a non-empty 'children' array";
      });
  node.children.reserve(children->size());
  for (std::size_t i = 0; i < children->size(); ++i) {
    node.children.push_back(
        node_from_json(children->at(i), /*root=*/false,
                       path + ".children[" + std::to_string(i) + "]"));
  }
  return node;
}

}  // namespace

ModelTree model_tree_from_json(const JsonValue& config,
                               const std::string& where) {
  require(config.is_object(),
          [&] { return "tree config: " + where + " must be an object"; });
  reject_unknown_members(config,
                         {"tree", "architecture", "message_bytes",
                          "switch_ports", "switch_latency_us", "workload"},
                         kPrefix, where);
  const JsonValue* root = config.find("tree");
  require(root != nullptr,
          [&] { return "tree config: " + where + " needs a 'tree'"; });

  ModelTree tree;
  tree.root = node_from_json(*root, /*root=*/true, "root");
  tree.architecture = parse_architecture(
      string_member(config, "architecture", "non-blocking", kPrefix));
  tree.message_bytes =
      number_member(config, "message_bytes", 1024.0, kPrefix);
  tree.switch_params.ports =
      uint_member(config, "switch_ports", kPaperSwitchPorts,
                  std::string(kPrefix) + ": " + where);
  tree.switch_params.latency_us = number_member(
      config, "switch_latency_us", kPaperSwitchLatencyUs, kPrefix);
  if (const JsonValue* workload = config.find("workload")) {
    tree.scenario = workload_from_json(*workload);
  }
  tree.validate();
  return tree;
}

ModelTree load_model_tree(const std::string& text, const std::string& where) {
  return model_tree_from_json(parse_json(text), where);
}

}  // namespace hmcs::analytic
