#include "hmcs/runner/sweep_report.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <ostream>

#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/math_util.hpp"
#include "hmcs/util/output_file.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

namespace hmcs::runner {

namespace {

/// Which coordinate columns vary across this sweep's points.
struct VaryingAxes {
  bool lambda = false;
  bool technology = false;
  bool architecture = false;
};

VaryingAxes varying_axes(const SweepResult& result) {
  VaryingAxes varying;
  if (result.points.empty()) return varying;
  const SweepPoint& first = result.points.front();
  for (const SweepPoint& point : result.points) {
    if (point.lambda_per_us != first.lambda_per_us) varying.lambda = true;
    if (point.technology_index != first.technology_index) {
      varying.technology = true;
    }
    if (point.architecture != first.architecture) varying.architecture = true;
  }
  return varying;
}

/// True when the cell produced a number worth printing (ok or
/// degraded); failed/timed-out/skipped cells carry no usable latency.
bool has_value(const PointResult& cell) {
  return cell.status == CellStatus::kOk ||
         cell.status == CellStatus::kDegraded;
}

/// A backend's latency column: "mean ±ci" in ms, "*" when not
/// converged, or the status word when there is no number.
void append_latency(std::string& text, const PointResult& cell) {
  switch (cell.status) {
    case CellStatus::kFailed: text += "FAILED"; return;
    case CellStatus::kTimedOut: text += "TIMEOUT"; return;
    case CellStatus::kSkipped: text += "-"; return;
    case CellStatus::kOk:
    case CellStatus::kDegraded: break;
  }
  if (!std::isfinite(cell.mean_latency_us)) {
    text += "inf";
    return;
  }
  append_fixed(text, units::us_to_ms(cell.mean_latency_us), 3);
  if (cell.ci_half_us > 0.0) {
    text += " ±";
    append_fixed(text, units::us_to_ms(cell.ci_half_us), 3);
  }
  if (!cell.converged) text += "*";
}

std::string status_cell(const PointResult& cell) {
  std::string text = to_string(cell.status);
  if (cell.attempts > 1) {
    text += " (x" + std::to_string(cell.attempts) + ")";
  }
  return text;
}

}  // namespace

std::string render_sweep_table(const SweepResult& result) {
  const VaryingAxes varying = varying_axes(result);
  const std::size_t n_backends = result.backend_names.size();

  // Fault-tolerance columns appear only when they carry information,
  // so an all-ok converged sweep renders byte-identically to the
  // pre-robustness engine.
  bool any_non_ok = false;
  bool any_non_converged = false;
  for (const PointResult& cell : result.cells) {
    if (cell.status != CellStatus::kOk) any_non_ok = true;
    if (!cell.converged) any_non_converged = true;
  }

  std::vector<std::string> headers{"Clusters", "M (bytes)"};
  if (varying.lambda) headers.push_back("lambda (msg/s)");
  if (varying.technology) headers.push_back("technology");
  if (varying.architecture) headers.push_back("architecture");
  for (const std::string& name : result.backend_names) {
    headers.push_back(name + " (ms)");
  }
  for (std::size_t b = 1; b < n_backends; ++b) {
    headers.push_back("RelErr " + result.backend_names[b]);
  }
  if (any_non_converged) {
    for (const std::string& name : result.backend_names) {
      headers.push_back("Conv " + name);
    }
  }
  if (any_non_ok) {
    for (const std::string& name : result.backend_names) {
      headers.push_back("Status " + name);
    }
  }

  Table table(headers);
  std::string text;  // one composed cell, reused so no cell allocates
  const auto compact = [&text](double value) -> std::string_view {
    text.clear();
    append_compact(text, value, 6);
    return text;
  };
  for (const SweepPoint& point : result.points) {
    table.cell(std::to_string(point.clusters))
        .cell(compact(point.message_bytes));
    if (varying.lambda) {
      table.cell(compact(units::per_us_to_per_s(point.lambda_per_us)));
    }
    if (varying.technology) table.cell(point.technology_label);
    if (varying.architecture) {
      table.cell(analytic::to_string(point.architecture));
    }
    for (std::size_t b = 0; b < n_backends; ++b) {
      text.clear();
      append_latency(text, result.at(point.index, b));
      table.cell(text);
    }
    const PointResult& reference = result.at(point.index, 0);
    for (std::size_t b = 1; b < n_backends; ++b) {
      const PointResult& other = result.at(point.index, b);
      if (!has_value(reference) || !has_value(other)) {
        table.cell("-");
        continue;
      }
      // The paper's accuracy notion: |other - reference| / other, with
      // the non-reference evaluation as ground truth (Figures 4-7 use
      // |analysis - simulation| / simulation).
      text.clear();
      append_fixed(text,
                   relative_error(units::us_to_ms(reference.mean_latency_us),
                                  units::us_to_ms(other.mean_latency_us)) *
                       100.0,
                   1);
      text += '%';
      table.cell(text);
    }
    if (any_non_converged) {
      for (std::size_t b = 0; b < n_backends; ++b) {
        table.cell(result.at(point.index, b).converged ? "yes" : "no");
      }
    }
    if (any_non_ok) {
      for (std::size_t b = 0; b < n_backends; ++b) {
        table.cell(status_cell(result.at(point.index, b)));
      }
    }
    table.end_row();
  }
  return table.render();
}

namespace {

std::vector<std::string> csv_headers(const SweepResult& result) {
  std::vector<std::string> headers{"clusters",     "message_bytes",
                                   "lambda_per_s", "architecture",
                                   "technology",   "seed"};
  for (const std::string& name : result.backend_names) {
    headers.push_back(name + "_mean_ms");
    headers.push_back(name + "_ci_half_ms");
    headers.push_back(name + "_converged");
    headers.push_back(name + "_status");
    headers.push_back(name + "_attempts");
  }
  return headers;
}

void append_csv_row(CsvWriter& csv, const SweepResult& result,
                    const SweepPoint& point) {
  csv.cell(std::to_string(point.clusters))
      .cell(point.message_bytes, 17)
      .cell(units::per_us_to_per_s(point.lambda_per_us), 17)
      .cell(analytic::to_string(point.architecture))
      .cell(point.technology_label)
      .cell(std::to_string(point.seed));
  for (std::size_t b = 0; b < result.backend_names.size(); ++b) {
    const PointResult& cell = result.at(point.index, b);
    csv.cell(units::us_to_ms(cell.mean_latency_us), 17)
        .cell(units::us_to_ms(cell.ci_half_us), 17)
        .cell(cell.converged ? "1" : "0")
        .cell(to_string(cell.status))
        .cell(std::to_string(cell.attempts));
  }
  csv.end_row();
}

/// The record's members before its points, up to the open points array.
void begin_record(JsonWriter& json, const SweepResult& result) {
  json.begin_object();
  json.key("id").value(result.id);
  json.key("title").value(result.title);
  json.key("backends").begin_array();
  for (const std::string& name : result.backend_names) json.value(name);
  json.end_array();
  json.key("points").begin_array();
}

void write_record_point(JsonWriter& json, const SweepResult& result,
                        const SweepPoint& point) {
  json.begin_object();
  json.key("clusters").value(point.clusters);
  json.key("message_bytes").value(point.message_bytes);
  json.key("lambda_per_s").value(units::per_us_to_per_s(point.lambda_per_us));
  json.key("architecture").value(analytic::to_string(point.architecture));
  json.key("technology").value(point.technology_label);
  json.key("seed").value(point.seed);
  json.key("results").begin_object();
  for (std::size_t b = 0; b < result.backend_names.size(); ++b) {
    const PointResult& cell = result.at(point.index, b);
    json.key(result.backend_names[b]).begin_object();
    json.key("status").value(to_string(cell.status));
    json.key("attempts").value(cell.attempts);
    if (!cell.error.empty()) json.key("error").value(cell.error);
    json.key("mean_latency_us").value(cell.mean_latency_us);
    json.key("ci_half_us").value(cell.ci_half_us);
    json.key("converged").value(cell.converged);
    if (cell.lambda_offered > 0.0) {
      json.key("lambda_offered").value(cell.lambda_offered);
      json.key("lambda_effective").value(cell.lambda_effective);
    }
    if (cell.messages_measured > 0) {
      json.key("messages_measured").value(cell.messages_measured);
      json.key("effective_rate_per_us").value(cell.effective_rate_per_us);
    }
    if (cell.mean_switch_hops > 0.0) {
      json.key("mean_switch_hops").value(cell.mean_switch_hops);
      json.key("max_switch_utilization").value(cell.max_switch_utilization);
    }
    if (cell.max_center_utilization > 0.0) {
      json.key("max_center_utilization").value(cell.max_center_utilization);
    }
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void end_record(JsonWriter& json) {
  json.end_array();
  json.end_object();
}

// The two file writers run on threads of their own, each through a
// buffer of kOutputChunkBytes, so neither document is ever held whole.

void write_csv_file(const SweepResult& result, const std::string& path) {
  std::ofstream out = open_output_file(path);
  require(out.good(), [&] {
    return "CsvWriter: cannot open '" + path + "' for writing";
  });
  CsvWriter csv(csv_headers(result));
  for (const SweepPoint& point : result.points) {
    append_csv_row(csv, result, point);
    if (csv.buffered() >= kOutputChunkBytes) csv.flush_to(out);
  }
  csv.flush_to(out);
  require(out.good(),
          [&] { return "CsvWriter: failed writing '" + path + "'"; });
}

void write_record_file(const SweepResult& result, const std::string& path) {
  std::ofstream out = open_output_file(path);
  const auto cannot_write = [&] {
    return "print_sweep_report: cannot write '" + path + "'";
  };
  require(out.good(), cannot_write);
  JsonWriter json;
  begin_record(json, result);
  for (const SweepPoint& point : result.points) {
    write_record_point(json, result, point);
    if (json.buffered() >= kOutputChunkBytes) json.flush_to(out);
  }
  end_record(json);
  out << std::move(json).str() << '\n';
  require(out.good(), cannot_write);
}

}  // namespace

CsvWriter sweep_csv(const SweepResult& result) {
  CsvWriter csv(csv_headers(result));
  for (const SweepPoint& point : result.points) {
    append_csv_row(csv, result, point);
  }
  return csv;
}

std::string sweep_json(const SweepResult& result) {
  JsonWriter json;
  begin_record(json, result);
  for (const SweepPoint& point : result.points) {
    write_record_point(json, result, point);
  }
  end_record(json);
  return std::move(json).str();
}

void print_sweep_report(std::ostream& os, const SweepResult& result,
                        const std::string& csv_dir,
                        const std::string& json_dir) {
  // The files are written while this thread renders the table: the
  // default launch policy runs each on a thread of its own (libstdc++
  // runs it at get() instead when no thread can be started).
  // Best-effort directories like obs::write_run_artifacts: a failure
  // surfaces as the write error, with the path in the message.
  std::error_code ec;
  std::string csv_path;
  std::string json_path;
  std::future<void> csv_written;
  std::future<void> json_written;
  if (!csv_dir.empty()) {
    std::filesystem::create_directories(csv_dir, ec);
    csv_path = csv_dir + "/" + result.id + ".csv";
    csv_written =
        std::async(write_csv_file, std::cref(result), std::cref(csv_path));
  }
  if (!json_dir.empty()) {
    std::filesystem::create_directories(json_dir, ec);
    json_path = json_dir + "/" + result.id + ".json";
    json_written =
        std::async(write_record_file, std::cref(result), std::cref(json_path));
  }

  os << "== " << (result.title.empty() ? result.id : result.title) << " ==\n";
  os << render_sweep_table(result);
  // One-line disposition summary, only when something needs attention.
  const std::size_t failed = result.count_status(CellStatus::kFailed);
  const std::size_t timed_out = result.count_status(CellStatus::kTimedOut);
  const std::size_t degraded = result.count_status(CellStatus::kDegraded);
  const std::size_t skipped = result.count_status(CellStatus::kSkipped);
  if (failed + timed_out + degraded + skipped > 0) {
    os << "cells: " << result.count_status(CellStatus::kOk) << " ok";
    if (degraded != 0) os << ", " << degraded << " degraded";
    if (failed != 0) os << ", " << failed << " failed";
    if (timed_out != 0) os << ", " << timed_out << " timed_out";
    if (skipped != 0) os << ", " << skipped << " skipped";
    os << " (of " << result.cells.size() << ")\n";
  }
  if (csv_written.valid()) {
    csv_written.get();
    os << "series written to " << csv_path << "\n";
  }
  if (json_written.valid()) {
    json_written.get();
    os << "record written to " << json_path << "\n";
  }
}

}  // namespace hmcs::runner
