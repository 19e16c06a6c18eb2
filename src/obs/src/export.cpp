#include "hmcs/obs/export.hpp"

#include <filesystem>
#include <fstream>

#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/output_file.hpp"
#include "hmcs/util/string_util.hpp"

namespace hmcs::obs {

std::string metrics_json(const MetricsSnapshot& snapshot,
                         const TimeSeriesSampler* sampler) {
  JsonWriter json;
  json.begin_object();

  json.key("counters").begin_array();
  for (const auto& row : snapshot.counters) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("value").value(row.value);
    json.end_object();
  }
  json.end_array();

  json.key("gauges").begin_array();
  for (const auto& row : snapshot.gauges) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("value").value(row.value);
    json.end_object();
  }
  json.end_array();

  json.key("stats").begin_array();
  for (const auto& row : snapshot.stats) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("count").value(row.count);
    json.key("sum").value(row.sum);
    json.key("mean").value(row.count == 0
                               ? 0.0
                               : row.sum / static_cast<double>(row.count));
    json.key("min").value(row.min);
    json.key("max").value(row.max);
    json.end_object();
  }
  json.end_array();

  json.key("timers").begin_array();
  for (const auto& row : snapshot.timers) {
    json.begin_object();
    json.key("name").value(row.name);
    json.key("count").value(row.count);
    json.key("total_ns").value(row.total_ns);
    json.key("mean_ns").value(
        row.count == 0 ? 0.0
                       : static_cast<double>(row.total_ns) /
                             static_cast<double>(row.count));
    json.key("min_ns").value(row.min_ns);
    json.key("max_ns").value(row.max_ns);
    json.key("p50_ns").value(row.hdr.quantile(0.50));
    json.key("p90_ns").value(row.hdr.quantile(0.90));
    json.key("p99_ns").value(row.hdr.quantile(0.99));
    json.key("p999_ns").value(row.hdr.quantile(0.999));
    json.key("buckets").begin_array();
    for (const auto& [upper_ns, count] : row.buckets) {
      json.begin_object();
      json.key("le_ns").value(upper_ns);
      json.key("count").value(count);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  if (sampler != nullptr) {
    json.key("series").begin_array();
    for (const auto& series : sampler->series()) {
      json.begin_object();
      json.key("name").value(series.name);
      json.key("dropped").value(series.dropped);
      json.key("points").begin_array();
      for (std::size_t i = 0; i < series.times_us.size(); ++i) {
        json.begin_array()
            .value(series.times_us[i])
            .value(series.values[i])
            .end_array();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  return std::move(json).str();
}

CsvWriter metrics_csv(const MetricsSnapshot& snapshot) {
  CsvWriter csv({"name", "kind", "count", "value", "sum", "mean", "min", "max"});
  for (const auto& row : snapshot.counters) {
    csv.add_row({row.name, "counter", "", std::to_string(row.value), "", "",
                 "", ""});
  }
  for (const auto& row : snapshot.gauges) {
    csv.add_row(
        {row.name, "gauge", "", format_compact(row.value, 12), "", "", "", ""});
  }
  for (const auto& row : snapshot.stats) {
    const double mean =
        row.count == 0 ? 0.0 : row.sum / static_cast<double>(row.count);
    csv.add_row({row.name, "stat", std::to_string(row.count), "",
                 format_compact(row.sum, 12), format_compact(mean, 12),
                 format_compact(row.min, 12), format_compact(row.max, 12)});
  }
  for (const auto& row : snapshot.timers) {
    const double mean = row.count == 0
                            ? 0.0
                            : static_cast<double>(row.total_ns) /
                                  static_cast<double>(row.count);
    csv.add_row({row.name, "timer_ns", std::to_string(row.count), "",
                 std::to_string(row.total_ns), format_compact(mean, 12),
                 std::to_string(row.min_ns), std::to_string(row.max_ns)});
  }
  return csv;
}

void write_run_artifacts(const std::string& dir,
                         const MetricsSnapshot& snapshot,
                         const TraceSession* trace,
                         const TimeSeriesSampler* sampler) {
  require(!dir.empty(), "write_run_artifacts: directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  require(!ec, "write_run_artifacts: cannot create '" + dir +
                   "': " + ec.message());

  const std::string json_path = dir + "/metrics.json";
  std::ofstream out = open_output_file(json_path);
  require(out.good(), "write_run_artifacts: cannot write '" + json_path + "'");
  out << metrics_json(snapshot, sampler) << "\n";
  require(out.good(), "write_run_artifacts: write failed for '" + json_path +
                          "'");
  out.close();

  metrics_csv(snapshot).write_file(dir + "/metrics.csv");
  if (trace != nullptr) trace->write_file(dir + "/trace.json");
}

}  // namespace hmcs::obs
