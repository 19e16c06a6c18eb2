#include "hmcs/sim/serialize.hpp"

namespace hmcs::sim {

void write_json(JsonWriter& json, const CenterStats& stats) {
  json.begin_object();
  json.key("mean_wait_us").value(stats.mean_wait_us);
  json.key("mean_service_us").value(stats.mean_service_us);
  json.key("mean_response_us").value(stats.mean_response_us);
  json.key("utilization").value(stats.utilization);
  json.key("avg_queue_length").value(stats.avg_queue_length);
  json.key("departures").value(stats.departures);
  json.end_object();
}

void write_json(JsonWriter& json, const SimResult& result) {
  json.begin_object();
  json.key("messages_measured").value(result.messages_measured);
  json.key("mean_latency_us").value(result.mean_latency_us);
  json.key("latency_ci_half_us").value(result.latency_ci.half_width);
  json.key("min_latency_us").value(result.min_latency_us);
  json.key("max_latency_us").value(result.max_latency_us);
  json.key("p50_latency_us").value(result.p50_latency_us);
  json.key("p95_latency_us").value(result.p95_latency_us);
  json.key("p99_latency_us").value(result.p99_latency_us);
  json.key("mean_local_latency_us").value(result.mean_local_latency_us);
  json.key("mean_remote_latency_us").value(result.mean_remote_latency_us);
  json.key("remote_fraction").value(result.remote_fraction);
  json.key("effective_rate_per_us").value(result.effective_rate_per_us);
  json.key("total_avg_queue_length").value(result.total_avg_queue_length);
  json.key("window_duration_us").value(result.window_duration_us);
  json.key("events_executed").value(result.events_executed);
  json.key("icn1");
  write_json(json, result.icn1);
  json.key("ecn1");
  write_json(json, result.ecn1);
  json.key("icn2");
  write_json(json, result.icn2);
  json.end_object();
}

std::string to_json(const SimResult& result) {
  JsonWriter json;
  write_json(json, result);
  return std::move(json).str();
}

}  // namespace hmcs::sim
