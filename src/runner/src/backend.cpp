#include "hmcs/runner/backend.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "hmcs/analytic/batch_solver.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/netsim/hmcs_fabric.hpp"
#include "hmcs/runner/replication.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::runner {

const char* to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kOk: return "ok";
    case CellStatus::kFailed: return "failed";
    case CellStatus::kTimedOut: return "timed_out";
    case CellStatus::kDegraded: return "degraded";
    case CellStatus::kSkipped: return "skipped";
  }
  detail::throw_logic_error("to_string: invalid CellStatus",
                            std::source_location::current());
}

CellStatus parse_cell_status(const std::string& name) {
  if (name == "ok") return CellStatus::kOk;
  if (name == "failed") return CellStatus::kFailed;
  if (name == "timed_out") return CellStatus::kTimedOut;
  if (name == "degraded") return CellStatus::kDegraded;
  if (name == "skipped") return CellStatus::kSkipped;
  detail::throw_config_error("unknown cell status '" + name + "'",
                             std::source_location::current());
}

void Backend::evaluate_batch(const analytic::SystemConfig* const*, std::size_t,
                             const BatchPointContext&, PointResult*) const {
  detail::throw_logic_error(
      "Backend::evaluate_batch: '" + name() + "' has no batch path",
      std::source_location::current());
}

PointResult Backend::predict_tree(const analytic::ModelTree&,
                                  const PointContext&) const {
  detail::throw_config_error(
      "backend '" + name() + "' cannot evaluate nested model trees",
      std::source_location::current());
}

namespace {

void write_number(JsonWriter& json, const char* key, double value) {
  json.key(key);
  if (std::isnan(value)) {
    json.value("nan");
  } else if (std::isinf(value)) {
    json.value(value > 0.0 ? "inf" : "-inf");
  } else {
    json.value(value);
  }
}

double read_number(const JsonValue& object, const char* key,
                   std::string_view prefix) {
  const JsonValue& member = object.at(key);
  if (!member.is_string()) return member.as_number();
  const std::string& text = member.as_string();
  if (text == "nan") return std::numeric_limits<double>::quiet_NaN();
  if (text == "inf") return std::numeric_limits<double>::infinity();
  if (text == "-inf") return -std::numeric_limits<double>::infinity();
  detail::throw_config_error(std::string(prefix) +
                                 ": bad non-finite spelling '" + text +
                                 "' for " + key,
                             std::source_location::current());
}

}  // namespace

void write_json(JsonWriter& json, const PointResult& result) {
  json.begin_object();
  write_number(json, "mean_latency_us", result.mean_latency_us);
  write_number(json, "ci_half_us", result.ci_half_us);
  write_number(json, "lambda_offered", result.lambda_offered);
  write_number(json, "lambda_effective", result.lambda_effective);
  json.key("converged").value(result.converged);
  write_number(json, "effective_rate_per_us", result.effective_rate_per_us);
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof(digits),
                                 result.messages_measured);
  json.key("messages_measured")
      .value(std::string_view(digits,
                              static_cast<std::size_t>(end.ptr - digits)));
  write_number(json, "mean_switch_hops", result.mean_switch_hops);
  write_number(json, "max_switch_utilization", result.max_switch_utilization);
  write_number(json, "max_center_utilization", result.max_center_utilization);
  json.end_object();
}

PointResult point_result_from_json(const JsonValue& object,
                                   std::string_view prefix) {
  PointResult result;
  result.mean_latency_us = read_number(object, "mean_latency_us", prefix);
  result.ci_half_us = read_number(object, "ci_half_us", prefix);
  result.lambda_offered = read_number(object, "lambda_offered", prefix);
  result.lambda_effective = read_number(object, "lambda_effective", prefix);
  result.converged = object.at("converged").as_bool();
  result.effective_rate_per_us =
      read_number(object, "effective_rate_per_us", prefix);
  result.messages_measured = json_uint<std::uint64_t>(
      object.at("messages_measured"), prefix, "messages_measured");
  result.mean_switch_hops = read_number(object, "mean_switch_hops", prefix);
  result.max_switch_utilization =
      read_number(object, "max_switch_utilization", prefix);
  result.max_center_utilization =
      read_number(object, "max_center_utilization", prefix);
  return result;
}

namespace {

PointResult from_prediction(const analytic::LatencyPrediction& prediction) {
  PointResult result;
  result.mean_latency_us = prediction.mean_latency_us;
  result.lambda_offered = prediction.lambda_offered;
  result.lambda_effective = prediction.lambda_effective;
  result.converged = prediction.fixed_point_converged;
  return result;
}

}  // namespace

AnalyticBackend::AnalyticBackend(analytic::ModelOptions options,
                                 std::string name)
    : options_(options), name_(std::move(name)) {}

PointResult AnalyticBackend::predict(const analytic::SystemConfig& config,
                                     const PointContext& ctx) const {
  analytic::ModelOptions options = options_;
  options.fixed_point.cancel = ctx.cancel;
  return from_prediction(analytic::predict_latency(config, options));
}

PointResult AnalyticBackend::predict_tree(const analytic::ModelTree& tree,
                                          const PointContext& ctx) const {
  analytic::TreeModelOptions options;
  options.fixed_point = options_.fixed_point;
  options.fixed_point.cancel = ctx.cancel;
  const analytic::TreeLatencyPrediction prediction =
      analytic::predict_model_tree(tree, options);

  PointResult result;
  result.mean_latency_us = prediction.mean_latency_us;
  const double processors =
      static_cast<double>(tree.total_processors());
  result.lambda_offered =
      processors > 0.0 ? prediction.lambda_offered_total / processors : 0.0;
  result.lambda_effective =
      result.lambda_offered * prediction.effective_rate_scale;
  result.converged = prediction.fixed_point_converged;
  return result;
}

std::size_t AnalyticBackend::batch_capacity() const {
  return options_.fixed_point.method == analytic::SourceThrottling::kExactMva
             ? analytic::mva_lane_width()
             : 4096;
}

void AnalyticBackend::evaluate_batch(
    const analytic::SystemConfig* const* configs, std::size_t count,
    const BatchPointContext& ctx, PointResult* results) const {
  analytic::ModelOptions options = options_;
  options.fixed_point.cancel = ctx.cancel;
  options.fixed_point.residual_trace = nullptr;  // one buffer, many cells
  const std::vector<analytic::LatencyPrediction> predictions =
      analytic::predict_latency_batch(configs, count, options);
  for (std::size_t i = 0; i < count; ++i) {
    results[i] = from_prediction(predictions[i]);
  }
}

DesBackend::DesBackend(Options options, std::string name)
    : options_(std::move(options)), name_(std::move(name)) {
  require(options_.replications >= 1, "DesBackend: needs >= 1 replication");
}

namespace {

double max_role_utilization(const sim::SimResult& run) {
  return std::max({run.icn1.utilization, run.ecn1.utilization,
                   run.icn2.utilization});
}

double max_center_utilization(const sim::SimResult& run) {
  return run.max_center_utilization;
}

/// The one DES path of flat and nested cells.
PointResult simulate(const DesBackend::Options& options,
                     const analytic::ModelTree& tree, const PointContext& ctx,
                     double (*utilization)(const sim::SimResult&)) {
  sim::SimOptions sim_options = options.sim;
  sim_options.seed = ctx.seed;
  sim_options.cancel = ctx.cancel;
  if (ctx.trace) {
    // Each point's simulated-time tracks get their own pid so the
    // sim-µs axis never shares a track with wall-clock spans.
    sim_options.obs.trace = ctx.trace;
    sim_options.obs.trace_pid = static_cast<std::uint32_t>(2 + ctx.index);
    ctx.trace->set_process_name(sim_options.obs.trace_pid,
                                ctx.label + " (sim us)");
  }

  const ReplicationResult run =
      run_replications(tree, sim_options, options.replications);
  PointResult result;
  result.mean_latency_us = run.mean_latency_us;
  result.ci_half_us = run.latency_ci.half_width;
  result.effective_rate_per_us = run.effective_rate_per_us;
  for (const sim::SimResult& replication : run.replications) {
    result.messages_measured += replication.messages_measured;
    result.max_center_utilization =
        std::max(result.max_center_utilization, utilization(replication));
  }
  return result;
}

}  // namespace

PointResult DesBackend::predict(const analytic::SystemConfig& config,
                                const PointContext& ctx) const {
  return simulate(options_, analytic::ModelTree::from_system(config), ctx,
                  max_role_utilization);
}

PointResult DesBackend::predict_tree(const analytic::ModelTree& tree,
                                     const PointContext& ctx) const {
  return simulate(options_, tree, ctx, max_center_utilization);
}

FabricBackend::FabricBackend(Options options, std::string name)
    : options_(options), name_(std::move(name)) {}

PointResult FabricBackend::predict(const analytic::SystemConfig& config,
                                   const PointContext& ctx) const {
  const netsim::HmcsFabric fabric(config);
  netsim::FabricSimOptions fabric_options = fabric.make_sim_options();
  fabric_options.measured_messages = options_.measured_messages;
  fabric_options.warmup_messages = options_.warmup_messages;
  fabric_options.seed = ctx.seed;
  fabric_options.cancel = ctx.cancel;
  netsim::SwitchFabricSim simulator(fabric.graph(), fabric_options);
  const netsim::FabricSimResult run = simulator.run();

  PointResult result;
  result.mean_latency_us = run.mean_latency_us;
  result.ci_half_us = run.latency_ci.half_width;
  result.effective_rate_per_us = run.delivered_rate_per_us;
  result.messages_measured = run.messages_measured;
  result.mean_switch_hops = run.mean_switch_hops;
  result.max_switch_utilization = run.max_switch_utilization;
  result.max_center_utilization = run.max_switch_utilization;
  return result;
}

}  // namespace hmcs::runner
