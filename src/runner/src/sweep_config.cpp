#include "hmcs/runner/sweep_config.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "hmcs/analytic/config_io.hpp"
#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/units.hpp"

namespace hmcs::runner {

namespace {

using analytic::parse_architecture;
using analytic::parse_technology;

constexpr std::string_view kPrefix = "sweep config";

/// "case1"/"case2", or any parse_technology spec applied to all roles.
TechnologyCase technology_from_string(const std::string& spec) {
  if (spec == "case1") {
    return technology_case(analytic::HeterogeneityCase::kCase1);
  }
  if (spec == "case2") {
    return technology_case(analytic::HeterogeneityCase::kCase2);
  }
  TechnologyCase tech;
  tech.icn1 = parse_technology(spec);
  tech.ecn1 = tech.icn1;
  tech.icn2 = tech.icn1;
  tech.label = tech.icn1.name;
  return tech;
}

AxisMode parse_mode(const std::string& mode) {
  if (mode == "cartesian") return AxisMode::kCartesian;
  if (mode == "zipped") return AxisMode::kZipped;
  detail::throw_config_error(
      "sweep config: mode must be cartesian|zipped, got '" + mode + "'",
      std::source_location::current());
}

void load_axes_json(const JsonValue& axes, SweepAxes& out) {
  reject_unknown_members(axes,
                         {"clusters", "message_bytes", "lambda_per_s",
                          "architecture", "technology", "paths",
                          "service_cv2", "arrival_ca2"},
                         kPrefix, "'axes'");
  if (const JsonValue* clusters = axes.find("clusters")) {
    require(clusters->is_array(),
            "sweep config: 'clusters' must be an array");
    for (const JsonValue& item : clusters->items) {
      out.clusters.push_back(
          json_uint<std::uint32_t>(item, kPrefix, "clusters"));
      require(out.clusters.back() >= 1,
              "sweep config: cluster counts must be positive integers");
    }
  }
  if (const JsonValue* bytes = axes.find("message_bytes")) {
    require(bytes->is_array(),
            "sweep config: 'message_bytes' must be an array");
    for (const JsonValue& item : bytes->items) {
      out.message_bytes.push_back(item.as_number());
    }
  }
  if (const JsonValue* lambda = axes.find("lambda_per_s")) {
    require(lambda->is_array(),
            "sweep config: 'lambda_per_s' must be an array");
    for (const JsonValue& item : lambda->items) {
      out.lambda_per_us.push_back(units::per_s_to_per_us(item.as_number()));
    }
  }
  if (const JsonValue* arch = axes.find("architecture")) {
    require(arch->is_array(),
            "sweep config: 'architecture' must be an array");
    for (const JsonValue& item : arch->items) {
      out.architectures.push_back(parse_architecture(item.as_string()));
    }
  }
  if (const JsonValue* tech = axes.find("technology")) {
    require(tech->is_array(),
            "sweep config: 'technology' must be an array");
    for (const JsonValue& item : tech->items) {
      out.technologies.push_back(technology_from_json(item));
    }
  }
  if (const JsonValue* cv2 = axes.find("service_cv2")) {
    require(cv2->is_array(),
            "sweep config: 'service_cv2' must be an array");
    for (const JsonValue& item : cv2->items) {
      out.service_cv2.push_back(item.as_number());
    }
  }
  if (const JsonValue* ca2 = axes.find("arrival_ca2")) {
    require(ca2->is_array(),
            "sweep config: 'arrival_ca2' must be an array");
    for (const JsonValue& item : ca2->items) {
      out.arrival_ca2.push_back(item.as_number());
    }
  }
  if (const JsonValue* paths = axes.find("paths")) {
    require(paths->is_array(), "sweep config: 'paths' must be an array");
    for (const JsonValue& item : paths->items) {
      require(item.is_object(),
              "sweep config: 'paths' entries must be objects");
      reject_unknown_members(item, {"path", "values"}, kPrefix, "a path axis");
      PathAxis axis;
      axis.path = item.at("path").as_string();
      const JsonValue& values = item.at("values");
      require(values.is_array() && values.size() >= 1,
              "sweep config: path axis '" + axis.path +
                  "' needs a non-empty 'values' array");
      for (const JsonValue& value : values.items) {
        axis.values.push_back(value.as_number());
      }
      out.node_paths.push_back(std::move(axis));
    }
  }
}

}  // namespace

TechnologyCase technology_from_json(const JsonValue& entry) {
  if (entry.is_string()) return technology_from_string(entry.as_string());
  require(entry.is_object(),
          "sweep config: technology entries must be strings or objects");
  reject_unknown_members(entry, {"label", "icn1", "ecn1", "icn2"}, kPrefix,
                         "a technology entry");
  TechnologyCase tech;
  tech.icn1 = parse_technology(entry.at("icn1").as_string());
  tech.ecn1 = parse_technology(entry.at("ecn1").as_string());
  tech.icn2 = parse_technology(entry.at("icn2").as_string());
  tech.label = string_member(
      entry, "label",
      tech.icn1.name + "/" + tech.ecn1.name + "/" + tech.icn2.name, kPrefix);
  return tech;
}

std::shared_ptr<Backend> backend_from_json(const JsonValue& entry,
                                           const SweepLoadOptions& options) {
  require(entry.is_object(),
          "sweep config: backend entries must be objects");
  const std::string type = entry.at("type").as_string();
  if (type == "analytic") {
    reject_unknown_members(entry, {"type", "model", "name"}, kPrefix,
                           "an analytic backend");
    analytic::ModelOptions model;
    model.fixed_point.method = parse_throttling_model(
        string_member(entry, "model", "bisection", kPrefix));
    return std::make_shared<AnalyticBackend>(
        model, string_member(entry, "name", "analytic", kPrefix));
  }
  if (type == "des") {
    reject_unknown_members(
        entry, {"type", "messages", "warmup", "replications", "name"},
        kPrefix, "a des backend");
    DesBackend::Options des;
    des.sim.measured_messages =
        uint_member(entry, "messages", des.sim.measured_messages, kPrefix);
    des.sim.warmup_messages =
        uint_member(entry, "warmup", des.sim.warmup_messages, kPrefix);
    des.sim.obs.sample_interval_us = options.obs_sample_interval_us;
    des.replications =
        uint_member(entry, "replications", des.replications, kPrefix);
    require(des.replications >= 1,
            "sweep config: des replications must be >= 1");
    return std::make_shared<DesBackend>(
        des, string_member(entry, "name", "des", kPrefix));
  }
  if (type == "fabric") {
    reject_unknown_members(entry, {"type", "messages", "warmup", "name"},
                           kPrefix, "a fabric backend");
    FabricBackend::Options fabric;
    fabric.measured_messages =
        uint_member(entry, "messages", fabric.measured_messages, kPrefix);
    fabric.warmup_messages =
        uint_member(entry, "warmup", fabric.warmup_messages, kPrefix);
    return std::make_shared<FabricBackend>(
        fabric, string_member(entry, "name", "fabric", kPrefix));
  }
  detail::throw_config_error(
      "sweep config: backend type must be analytic|des|fabric, got '" + type +
          "'",
      std::source_location::current());
}

analytic::SourceThrottling parse_throttling_model(const std::string& name) {
  const std::string trimmed = trim(name);
  if (trimmed == "bisection") return analytic::SourceThrottling::kBisection;
  if (trimmed == "picard") return analytic::SourceThrottling::kPicard;
  if (trimmed == "mva") return analytic::SourceThrottling::kExactMva;
  if (trimmed == "none") return analytic::SourceThrottling::kNone;
  detail::throw_config_error(
      "unknown model '" + name + "' (expected bisection|picard|mva|none)",
      std::source_location::current());
}

const char* throttling_model_name(analytic::SourceThrottling method) {
  switch (method) {
    case analytic::SourceThrottling::kBisection: return "bisection";
    case analytic::SourceThrottling::kPicard: return "picard";
    case analytic::SourceThrottling::kExactMva: return "mva";
    case analytic::SourceThrottling::kNone: return "none";
  }
  detail::throw_logic_error("unknown SourceThrottling value",
                            std::source_location::current());
}

FailurePolicy parse_failure_policy(const std::string& name) {
  const std::string trimmed = trim(name);
  if (trimmed == "fail-fast") return FailurePolicy::kFailFast;
  if (trimmed == "collect-all") return FailurePolicy::kCollectAll;
  detail::throw_config_error(
      "unknown on_error policy '" + name +
          "' (expected fail-fast|collect-all)",
      std::source_location::current());
}

SweepRunConfig sweep_config_from_json(std::string_view text,
                                      const SweepLoadOptions& options) {
  const JsonValue doc = parse_json(text);
  require(doc.is_object(), "sweep config: the document must be an object");
  reject_unknown_members(doc,
                         {"id", "title", "mode", "total_nodes",
                          "switch_ports", "switch_latency_us", "seed",
                          "threads", "axes", "backends", "on_error",
                          "max_attempts", "cell_deadline_ms",
                          "degraded_utilization", "batch_cells", "tree",
                          "workload"},
                         kPrefix, "the sweep config");

  SweepRunConfig config;
  SweepSpec& spec = config.spec;
  spec.id = string_member(doc, "id", "sweep", kPrefix);
  spec.title = string_member(doc, "title", "", kPrefix);
  spec.mode = parse_mode(string_member(doc, "mode", "cartesian", kPrefix));
  spec.total_nodes =
      uint_member(doc, "total_nodes", spec.total_nodes, kPrefix);
  spec.switch_params.ports =
      uint_member(doc, "switch_ports", spec.switch_params.ports, kPrefix);
  spec.switch_params.latency_us = number_member(
      doc, "switch_latency_us", spec.switch_params.latency_us, kPrefix);
  spec.base_seed = uint_member(doc, "seed", spec.base_seed, kPrefix);
  config.threads = uint_member(doc, "threads", config.threads, kPrefix);
  config.on_error = parse_failure_policy(
      string_member(doc, "on_error", "fail-fast", kPrefix));
  config.max_attempts =
      uint_member(doc, "max_attempts", config.max_attempts, kPrefix);
  require(config.max_attempts >= 1,
          "sweep config: max_attempts must be >= 1");
  config.cell_deadline_ms =
      number_member(doc, "cell_deadline_ms", config.cell_deadline_ms, kPrefix);
  require(config.cell_deadline_ms >= 0.0,
          "sweep config: cell_deadline_ms must be >= 0");
  config.degraded_utilization = number_member(
      doc, "degraded_utilization", config.degraded_utilization, kPrefix);
  require(config.degraded_utilization > 0.0,
          "sweep config: degraded_utilization must be > 0");
  config.batch_cells =
      uint_member(doc, "batch_cells", config.batch_cells, kPrefix);

  if (const JsonValue* tree = doc.find("tree")) {
    // The member is a complete nested topology config (the same
    // docs/COMPOSITION.md document hmcs_serve accepts), so the topology
    // carries its own switch/message parameters.
    spec.base_tree = std::make_shared<const analytic::ModelTree>(
        analytic::model_tree_from_json(*tree, "'tree'"));
  }

  if (const JsonValue* workload = doc.find("workload")) {
    spec.workload = analytic::workload_from_json(*workload);
  }

  if (const JsonValue* axes = doc.find("axes")) {
    require(axes->is_object(), "sweep config: 'axes' must be an object");
    load_axes_json(*axes, spec.axes);
  }

  if (const JsonValue* backends = doc.find("backends")) {
    require(backends->is_array(),
            "sweep config: 'backends' must be an array");
    for (const JsonValue& entry : backends->items) {
      config.backends.push_back(backend_from_json(entry, options));
    }
  }
  if (config.backends.empty()) {
    config.backends.push_back(std::make_shared<AnalyticBackend>());
  }
  return config;
}

SweepRunConfig load_sweep_config(const std::string& path,
                                 const SweepLoadOptions& options) {
  // An ifstream on a directory "opens" and reads nothing, which would
  // silently yield the default sweep — reject anything that is not a
  // regular file up front.
  std::error_code ec;
  require(std::filesystem::is_regular_file(path, ec),
          "sweep config: '" + path + "' is not a readable file");
  std::ifstream in(path);
  require(in.good(), "sweep config: cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return sweep_config_from_json(buffer.str(), options);
}

}  // namespace hmcs::runner
