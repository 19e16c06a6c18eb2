#include "hmcs/serve/request.hpp"

#include <cinttypes>
#include <cstdio>

#include "hmcs/analytic/config_io.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/serialize.hpp"
#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/units.hpp"

namespace hmcs::serve {

namespace {

constexpr std::string_view kPrefix = "serve";

analytic::SystemConfig config_from_json(const JsonValue& entry) {
  require(entry.is_object(), "serve: 'config' must be an object");
  reject_unknown_members(entry,
                         {"clusters", "nodes_per_cluster", "total_nodes",
                          "architecture", "technology", "message_bytes",
                          "lambda_per_s", "switch_ports",
                          "switch_latency_us", "workload"},
                         kPrefix, "'config'");
  analytic::SystemConfig config;
  config.clusters = uint_member(entry, "clusters", 1u, kPrefix);
  require(config.clusters >= 1, "serve: 'clusters' must be >= 1");

  if (const JsonValue* per_cluster = entry.find("nodes_per_cluster")) {
    require(entry.find("total_nodes") == nullptr,
            "serve: give 'nodes_per_cluster' or 'total_nodes', not both");
    config.nodes_per_cluster =
        json_uint<std::uint32_t>(*per_cluster, kPrefix, "nodes_per_cluster");
  } else {
    const std::uint32_t total =
        uint_member(entry, "total_nodes", analytic::kPaperTotalNodes, kPrefix);
    require(total >= 1 && total % config.clusters == 0,
            "serve: 'total_nodes' must be a positive multiple of 'clusters'");
    config.nodes_per_cluster = total / config.clusters;
  }

  // Technology entries use the sweep-config vocabulary ("case1",
  // presets, custom:..., or {icn1,ecn1,icn2} objects).
  const JsonValue* tech_entry = entry.find("technology");
  runner::TechnologyCase tech =
      tech_entry != nullptr
          ? runner::technology_from_json(*tech_entry)
          : runner::technology_case(analytic::HeterogeneityCase::kCase1);
  config.icn1 = tech.icn1;
  config.ecn1 = tech.ecn1;
  config.icn2 = tech.icn2;

  config.architecture = analytic::parse_architecture(
      string_member(entry, "architecture", "non-blocking", kPrefix));
  config.message_bytes =
      number_member(entry, "message_bytes", 1024.0, kPrefix);
  config.generation_rate_per_us = units::per_s_to_per_us(number_member(
      entry, "lambda_per_s",
      units::per_us_to_per_s(analytic::kPaperRatePerUs), kPrefix));
  config.switch_params.ports = uint_member(
      entry, "switch_ports", analytic::kPaperSwitchPorts, kPrefix);
  config.switch_params.latency_us = number_member(
      entry, "switch_latency_us", analytic::kPaperSwitchLatencyUs, kPrefix);
  // The canonical key renderer collapses a spelled-out default workload
  // onto the key bytes of an omitted one, so pre-workload caches and
  // snapshots stay warm.
  if (const JsonValue* workload = entry.find("workload")) {
    config.scenario = analytic::workload_from_json(*workload);
  }
  config.validate();
  return config;
}

/// Writes the normalised backend options into the canonical key. The
/// numeric defaults come from the default-constructed option structs —
/// the same ones runner::backend_from_json fills — so an omitted member
/// and its explicit default render identically and cannot drift.
void write_backend_key(JsonWriter& json, const JsonValue* entry,
                       const std::string& type) {
  json.begin_object();
  json.key("type").value(type);
  if (type == "analytic") {
    const analytic::SourceThrottling method = runner::parse_throttling_model(
        entry == nullptr ? "bisection"
                         : string_member(*entry, "model", "bisection",
                                         kPrefix));
    json.key("model").value(runner::throttling_model_name(method));
  } else if (type == "des") {
    runner::DesBackend::Options defaults;
    json.key("messages").value(uint_member(
        *entry, "messages", defaults.sim.measured_messages, kPrefix));
    json.key("warmup").value(uint_member(
        *entry, "warmup", defaults.sim.warmup_messages, kPrefix));
    json.key("replications").value(uint_member(
        *entry, "replications", defaults.replications, kPrefix));
  } else if (type == "fabric") {
    runner::FabricBackend::Options defaults;
    json.key("messages").value(uint_member(
        *entry, "messages", defaults.measured_messages, kPrefix));
    json.key("warmup").value(uint_member(
        *entry, "warmup", defaults.warmup_messages, kPrefix));
  }
  json.end_object();
}

std::string render_id(const JsonValue& id) {
  JsonWriter json;
  if (id.is_string()) {
    json.value(id.as_string());
  } else if (id.is_number()) {
    json.value(id.as_number());
  } else {
    detail::throw_config_error("serve: 'id' must be a string or number",
                               std::source_location::current());
  }
  return std::move(json).str();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string key_hash_hex(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, hash);
  return std::string(buffer, 16);
}

ServeRequest parse_request(const JsonValue& doc,
                           const runner::SweepLoadOptions& load) {
  require(doc.is_object(), "serve: a request must be a JSON object");
  reject_unknown_members(doc,
                         {"id", "backend", "config", "seed", "deadline_ms",
                          "no_cache", "timing"},
                         kPrefix, "the request");

  ServeRequest request;
  if (const JsonValue* id = doc.find("id")) request.id_json = render_id(*id);

  const JsonValue* backend_entry = doc.find("backend");
  if (backend_entry != nullptr) {
    request.backend = runner::backend_from_json(*backend_entry, load);
    request.backend_kind = backend_entry->at("type").as_string();
  } else {
    request.backend = std::make_shared<runner::AnalyticBackend>();
    request.backend_kind = "analytic";
  }

  const JsonValue* config_entry = doc.find("config");
  require(config_entry != nullptr, "serve: a request needs a 'config'");
  if (analytic::is_tree_config(*config_entry)) {
    analytic::ModelTree tree =
        analytic::model_tree_from_json(*config_entry, "'config'");
    if (const auto flat = tree.as_system_config()) {
      // A nested spelling of the flat two-stage system: lower it so the
      // request shares the flat schema's canonical key (and cache line).
      request.config = *flat;
    } else {
      request.tree =
          std::make_shared<const analytic::ModelTree>(std::move(tree));
    }
  } else {
    request.config = config_from_json(*config_entry);
  }

  request.seed = uint_member(doc, "seed", request.seed, kPrefix);
  request.deadline_ms =
      number_member(doc, "deadline_ms", request.deadline_ms, kPrefix);
  require(request.deadline_ms >= 0.0, "serve: 'deadline_ms' must be >= 0");
  request.no_cache = bool_member(doc, "no_cache", request.no_cache, kPrefix);
  request.timing = bool_member(doc, "timing", request.timing, kPrefix);

  // Canonical key: version tag + normalised backend + the built config
  // (stable declaration-order serialisation resolves presets, unit
  // conversions, and member order) + the seed for stochastic backends.
  JsonWriter json;
  json.begin_object();
  json.key("v").value(std::uint64_t{1});
  json.key("backend");
  write_backend_key(json, backend_entry, request.backend_kind);
  json.key("config");
  if (request.tree != nullptr) {
    analytic::write_json(json, *request.tree);
  } else {
    analytic::write_json(json, request.config);
  }
  if (request.backend_kind != "analytic") {
    json.key("seed").value(std::to_string(request.seed));
  }
  json.end_object();
  request.canonical_key = std::move(json).str();
  request.key_hash = fnv1a64(request.canonical_key);
  return request;
}

}  // namespace hmcs::serve
