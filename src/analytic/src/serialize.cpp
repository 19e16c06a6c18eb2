#include "hmcs/analytic/serialize.hpp"

#include "hmcs/util/units.hpp"

namespace hmcs::analytic {

void write_json(JsonWriter& json, const NetworkTechnology& tech) {
  json.begin_object();
  json.key("name").value(tech.name);
  json.key("latency_us").value(tech.latency_us);
  json.key("bandwidth_mb_per_s").value(tech.bandwidth_bytes_per_us);
  json.end_object();
}

void write_json(JsonWriter& json, const SystemConfig& config) {
  json.begin_object();
  json.key("clusters").value(config.clusters);
  json.key("nodes_per_cluster").value(config.nodes_per_cluster);
  json.key("icn1");
  write_json(json, config.icn1);
  json.key("ecn1");
  write_json(json, config.ecn1);
  json.key("icn2");
  write_json(json, config.icn2);
  json.key("switch_ports").value(config.switch_params.ports);
  json.key("switch_latency_us").value(config.switch_params.latency_us);
  json.key("architecture").value(to_string(config.architecture));
  json.key("message_bytes").value(config.message_bytes);
  json.key("generation_rate_per_us").value(config.generation_rate_per_us);
  // Emitted only when non-default: this document is the canonical cache
  // key body, and default-scenario configs must keep producing the exact
  // bytes they produced before workloads existed (warm caches, serve
  // snapshots).
  if (!config.scenario.is_default()) {
    json.key("workload");
    write_json(json, config.scenario);
  }
  json.end_object();
}

void write_json(JsonWriter& json, const CenterPrediction& center) {
  json.begin_object();
  json.key("arrival_rate_per_us").value(center.arrival_rate);
  json.key("service_rate_per_us").value(center.service_rate);
  json.key("utilization").value(center.utilization);
  json.key("response_time_us").value(center.response_time_us);
  json.key("queue_length").value(center.queue_length);
  json.end_object();
}

void write_json(JsonWriter& json, const LatencyPrediction& prediction) {
  json.begin_object();
  json.key("mean_latency_us").value(prediction.mean_latency_us);
  json.key("inter_cluster_probability")
      .value(prediction.inter_cluster_probability);
  json.key("lambda_offered_per_us").value(prediction.lambda_offered);
  json.key("lambda_effective_per_us").value(prediction.lambda_effective);
  json.key("total_queue_length").value(prediction.total_queue_length);
  json.key("fixed_point_converged").value(prediction.fixed_point_converged);
  json.key("fixed_point_iterations").value(prediction.fixed_point_iterations);
  json.key("icn1");
  write_json(json, prediction.icn1);
  json.key("ecn1");
  write_json(json, prediction.ecn1);
  json.key("icn2");
  write_json(json, prediction.icn2);
  json.end_object();
}

void write_json(JsonWriter& json, const ModelNode& node, bool root) {
  json.begin_object();
  if (!node.name.empty()) json.key("name").value(node.name);
  if (node.is_leaf()) {
    json.key("processors").value(node.processors);
    json.key("lambda_per_s")
        .value(units::per_us_to_per_s(node.generation_rate_per_us));
  } else {
    json.key("network");
    write_json(json, node.network);
    if (!root) {
      json.key("egress");
      write_json(json, node.egress);
    }
    json.key("children").begin_array();
    for (const ModelNode& child : node.children) {
      write_json(json, child, /*root=*/false);
    }
    json.end_array();
  }
  json.end_object();
}

void write_json(JsonWriter& json, const ModelTree& tree) {
  json.begin_object();
  json.key("tree");
  write_json(json, tree.root, /*root=*/true);
  json.key("switch_ports").value(tree.switch_params.ports);
  json.key("switch_latency_us").value(tree.switch_params.latency_us);
  // The parseable token, not the display name: this document must
  // round-trip through tree_io's parse_architecture.
  json.key("architecture")
      .value(tree.architecture == NetworkArchitecture::kNonBlocking
                 ? "non-blocking"
                 : "blocking");
  json.key("message_bytes").value(tree.message_bytes);
  // Same canonical-key compatibility rule as the flat writer above.
  if (!tree.scenario.is_default()) {
    json.key("workload");
    write_json(json, tree.scenario);
  }
  json.end_object();
}

void write_json(JsonWriter& json, const TreeLatencyPrediction& prediction) {
  json.begin_object();
  json.key("mean_latency_us").value(prediction.mean_latency_us);
  json.key("per_leaf_latency_us").begin_array();
  for (const double latency : prediction.per_leaf_latency_us) {
    json.value(latency);
  }
  json.end_array();
  json.key("lambda_offered_total_per_us")
      .value(prediction.lambda_offered_total);
  json.key("effective_rate_scale").value(prediction.effective_rate_scale);
  json.key("total_queue_length").value(prediction.total_queue_length);
  json.key("converged").value(prediction.fixed_point_converged);
  json.key("iterations").value(prediction.fixed_point_iterations);
  json.key("centers").begin_array();
  for (const TreeCenterPrediction& center : prediction.centers) {
    json.begin_object();
    json.key("path").value(center.path);
    json.key("egress").value(center.egress);
    json.key("arrival_rate_per_us").value(center.arrival_rate);
    json.key("service_rate_per_us").value(center.service_rate);
    json.key("utilization").value(center.utilization);
    json.key("response_time_us").value(center.response_time_us);
    json.key("queue_length").value(center.queue_length);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

namespace {

template <typename T>
std::string document(const T& value) {
  JsonWriter json;
  write_json(json, value);
  return std::move(json).str();
}

}  // namespace

std::string to_json(const SystemConfig& config) { return document(config); }
std::string to_json(const LatencyPrediction& prediction) {
  return document(prediction);
}
std::string to_json(const ModelTree& tree) { return document(tree); }
std::string to_json(const TreeLatencyPrediction& prediction) {
  return document(prediction);
}

}  // namespace hmcs::analytic
