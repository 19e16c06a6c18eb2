// Thread-scaling of the sweep runner, reported as a machine-readable
// JSON record (BENCH_sweep.json) so CI and the performance docs can
// track the runner's worker threads across runner changes. Runs one
// Figure-6-style DES sweep (blocking Case 1, cluster axis x two message
// sizes) at a ladder of thread counts, checks every parallel grid is
// bitwise identical to the serial one, and records wall time + speedup
// per rung. hardware_concurrency is recorded too: on a 1-core host a
// flat curve is the expected result, not a regression. A second record
// ("scenario_sweep") times the same grid under a heavy-traffic workload
// (G/G/1 cv^2 = 4 service, MMPP bursty arrivals) once per backend, so
// the analytic-vs-DES cell-cost gap for non-exponential scenarios is
// tracked alongside the exponential baseline. A third ("output_layers")
// times what precedes and follows the solve on a fixed 8,640-cell
// analytic grid: expanding its 2,880 points, the table and journal
// formatting per cell, print_sweep_report streaming the CSV only, the
// JSON record only and both beside the table, the wall time to write
// one sweep's outputs into a fresh directory and to rewrite them into a
// directory that already holds them (under the system temporary
// directory), and loading the journal written there back for a resume.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

struct ScalingRun {
  std::uint32_t threads = 0;
  double wall_seconds = 0.0;
  bool bit_identical = true;  ///< grid bytes equal to the serial run's
  /// threads > hardware_concurrency: the rung measures scheduler churn,
  /// not parallel speedup, so no speedup is claimed for it.
  bool oversubscribed = false;
};

runner::SweepSpec make_spec(std::uint64_t seed) {
  runner::SweepSpec spec;
  spec.id = "sweep_scaling";
  spec.axes.technologies = {
      runner::technology_case(analytic::HeterogeneityCase::kCase1)};
  spec.axes.clusters = {2, 4, 8, 16, 32};
  spec.axes.message_bytes = {1024.0, 512.0};
  spec.axes.architectures = {analytic::NetworkArchitecture::kBlocking};
  spec.base_seed = seed;
  return spec;
}

/// Bitwise equality per field. A whole-struct memcmp is wrong here:
/// PointResult::error is a std::string whose small-string buffer
/// pointer refers into the object itself, so two identical grids at
/// different addresses never compare byte-equal. Doubles are compared
/// through memcmp (not ==) so the check stays a bit-identity claim,
/// distinguishing -0.0 from 0.0 and never treating NaN as unequal to
/// its own bit pattern.
bool cells_identical(const runner::PointResult& a,
                     const runner::PointResult& b) {
  const auto bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return bits(a.mean_latency_us, b.mean_latency_us) &&
         bits(a.ci_half_us, b.ci_half_us) &&
         bits(a.lambda_offered, b.lambda_offered) &&
         bits(a.lambda_effective, b.lambda_effective) &&
         a.converged == b.converged &&
         bits(a.effective_rate_per_us, b.effective_rate_per_us) &&
         a.messages_measured == b.messages_measured &&
         bits(a.mean_switch_hops, b.mean_switch_hops) &&
         bits(a.max_switch_utilization, b.max_switch_utilization) &&
         bits(a.max_center_utilization, b.max_center_utilization) &&
         a.status == b.status && a.attempts == b.attempts &&
         a.error == b.error;
}

bool grids_identical(const runner::SweepResult& a,
                     const runner::SweepResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (!cells_identical(a.cells[i], b.cells[i])) return false;
  }
  return true;
}

/// Heavy-traffic variant of the same grid: G/G/1 service (cv^2 = 4)
/// under 2-state MMPP bursty arrivals (docs/WORKLOADS.md), timed per
/// backend so the analytic-vs-DES cell-cost gap is tracked like for
/// like with the exponential sweep above.
runner::SweepSpec make_scenario_spec(std::uint64_t seed) {
  runner::SweepSpec spec = make_spec(seed);
  spec.id = "sweep_scaling_gg1_mmpp";
  spec.workload.service_cv2 = 4.0;
  spec.workload.mmpp = analytic::MmppArrivals{4.0, 0.1, 1000.0};
  return spec;
}

struct ScenarioCost {
  double wall_seconds = 0.0;
  double cell_seconds = 0.0;
  std::size_t points = 0;
};

ScenarioCost time_backend(const runner::SweepSpec& spec,
                          const std::shared_ptr<runner::Backend>& backend) {
  runner::RunnerOptions options;
  options.threads = 1;  // serial: cost per cell, not pool throughput
  const auto start = std::chrono::steady_clock::now();
  const runner::SweepResult result =
      runner::run_sweep(spec, {backend}, options);
  const auto finish = std::chrono::steady_clock::now();
  ScenarioCost cost;
  cost.wall_seconds = std::chrono::duration<double>(finish - start).count();
  cost.points = result.points.size();
  cost.cell_seconds =
      cost.points > 0 ? cost.wall_seconds / static_cast<double>(cost.points)
                      : 0.0;
  return cost;
}

/// perfbench's analytic_grid shape with fixed values: 9 cluster counts
/// x 5 message sizes x 16 rates x 2 architectures x Case 1/2 at
/// N = 65,536, through three analytic methods — 8,640 cells.
runner::SweepSpec output_grid_spec() {
  runner::SweepSpec spec;
  spec.id = "output_layers";
  spec.total_nodes = 65536;
  spec.axes.clusters = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  spec.axes.message_bytes = {256.0, 512.0, 1024.0, 2048.0, 4096.0};
  for (int k = 0; k < 16; ++k) {
    spec.axes.lambda_per_us.push_back(25e-6 * std::pow(1.25, k));
  }
  spec.axes.architectures = {analytic::NetworkArchitecture::kNonBlocking,
                             analytic::NetworkArchitecture::kBlocking};
  spec.axes.technologies = {
      runner::technology_case(analytic::HeterogeneityCase::kCase1),
      runner::technology_case(analytic::HeterogeneityCase::kCase2)};
  return spec;
}

std::vector<std::shared_ptr<runner::Backend>> output_grid_backends() {
  std::vector<std::shared_ptr<runner::Backend>> backends;
  const std::pair<analytic::SourceThrottling, const char*> methods[] = {
      {analytic::SourceThrottling::kBisection, "bisection"},
      {analytic::SourceThrottling::kPicard, "picard"},
      {analytic::SourceThrottling::kExactMva, "mva"}};
  for (const auto& [method, name] : methods) {
    analytic::ModelOptions model;
    model.fixed_point.method = method;
    backends.push_back(std::make_shared<runner::AnalyticBackend>(model, name));
  }
  return backends;
}

template <typename Body>
double median_seconds(int repetitions, Body&& body) {
  std::vector<double> seconds;
  for (int r = 0; r < repetitions; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

/// Journals every cell of `result`, one block per 256 consecutive
/// cells, as the batch path writes a chunk.
void journal_grid(const std::string& path, const runner::SweepResult& result) {
  runner::JournalWriter::Shape shape{result.id, result.points.size(),
                                     result.backend_names};
  runner::JournalWriter journal(path, shape, /*append=*/false);
  const std::size_t n_backends = result.backend_names.size();
  std::vector<runner::JournalWriter::Record> block;
  for (std::size_t cell = 0; cell < result.cells.size(); ++cell) {
    block.push_back({cell, result.points[cell / n_backends].seed,
                     &result.cells[cell]});
    if (block.size() == 256 || cell + 1 == result.cells.size()) {
      journal.record(block);
      block.clear();
    }
  }
}

struct OutputLayers {
  std::size_t cells = 0;
  int repetitions = 0;
  double expand_us_per_point = 0.0;
  double table_us_per_cell = 0.0;
  double journal_us_per_cell = 0.0;
  double report_csv_us_per_cell = 0.0;
  double report_json_us_per_cell = 0.0;
  double report_us_per_cell = 0.0;
  std::uintmax_t output_bytes = 0;
  double fresh_write_ms = 0.0;
  double rewrite_ms = 0.0;
  double journal_load_us_per_cell = 0.0;
};

OutputLayers time_output_layers() {
  runner::RunnerOptions options;
  options.batch_cells = 256;
  options.on_error = runner::FailurePolicy::kCollectAll;
  const runner::SweepSpec spec = output_grid_spec();
  const runner::SweepResult result =
      runner::run_sweep(spec, output_grid_backends(), options);

  OutputLayers layers;
  layers.cells = result.cells.size();
  layers.repetitions = 5;
  const double per_cell_us = 1e6 / static_cast<double>(layers.cells);
  std::size_t sink = 0;  // keeps the formatted text observable
  const auto us_per_cell = [&](auto&& body) {
    return median_seconds(layers.repetitions, body) * per_cell_us;
  };
  layers.expand_us_per_point =
      median_seconds(layers.repetitions,
                     [&] { sink += runner::expand_sweep(spec).size(); }) *
      1e6 / static_cast<double>(result.points.size());
  layers.table_us_per_cell = us_per_cell(
      [&] { sink += runner::render_sweep_table(result).size(); });
  // A character device is written through, so this is the formatting
  // plus one write per block.
  layers.journal_us_per_cell =
      us_per_cell([&] { journal_grid("/dev/null", result); });

  // What hmcs_run --journal --csv-dir --json-dir writes after the solve.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hmcs_sweep_scaling_outputs";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string journal_path = (dir / (result.id + ".jsonl")).string();
  const auto write_outputs = [&] {
    journal_grid(journal_path, result);
    std::ostringstream table;
    runner::print_sweep_report(table, result, dir.string(), dir.string());
    sink += table.str().size();
  };
  layers.fresh_write_ms = median_seconds(1, write_outputs) * 1e3;
  layers.rewrite_ms = median_seconds(layers.repetitions, write_outputs) * 1e3;
  for (const auto& entry : fs::directory_iterator(dir)) {
    layers.output_bytes += entry.file_size();
  }
  // print_sweep_report alone, streaming the CSV only, the JSON record
  // only, and both (what hmcs_run --csv-dir --json-dir waits for) while
  // it renders the table; each replaces the file written before it.
  const auto report_us_per_cell = [&](const std::string& csv_dir,
                                      const std::string& json_dir) {
    return us_per_cell([&] {
      std::ostringstream table;
      runner::print_sweep_report(table, result, csv_dir, json_dir);
      sink += table.str().size();
    });
  };
  layers.report_csv_us_per_cell = report_us_per_cell(dir.string(), "");
  layers.report_json_us_per_cell = report_us_per_cell("", dir.string());
  layers.report_us_per_cell = report_us_per_cell(dir.string(), dir.string());
  // What hmcs_run --resume reads before its first cell.
  const runner::JournalWriter::Shape shape{result.id, result.points.size(),
                                           result.backend_names};
  layers.journal_load_us_per_cell = us_per_cell([&] {
    sink += runner::load_sweep_journal(journal_path, shape).completed();
  });
  fs::remove_all(dir);
  require(sink > 0, "sweep_scaling: the output layers wrote nothing");
  return layers;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("sweep_scaling",
                "Sweep-runner thread scaling benchmark; writes a JSON "
                "record.");
  cli.add_option("messages", "measured deliveries per point", "20000");
  cli.add_option("seed", "base sweep seed", "3");
  cli.add_option("out", "output JSON path", "BENCH_sweep.json");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.help_text().c_str());
    return 0;
  }
  const std::uint64_t messages = cli.get_uint("messages");
  const std::uint64_t seed = cli.get_uint("seed");
  const std::string out_path = cli.get_string("out");

  const runner::SweepSpec spec = make_spec(seed);
  runner::DesBackend::Options des;
  des.sim.measured_messages = messages;
  des.sim.warmup_messages = messages / 5;
  const std::vector<std::shared_ptr<runner::Backend>> backends = {
      std::make_shared<runner::DesBackend>(des)};

  const std::uint32_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<ScalingRun> runs;
  runner::SweepResult serial;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    runner::RunnerOptions options;
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    runner::SweepResult result = runner::run_sweep(spec, backends, options);
    const auto finish = std::chrono::steady_clock::now();

    ScalingRun run;
    run.threads = threads;
    run.wall_seconds =
        std::chrono::duration<double>(finish - start).count();
    run.oversubscribed = threads > cores;
    if (threads == 1) {
      serial = std::move(result);
    } else {
      run.bit_identical = grids_identical(serial, result);
    }
    runs.push_back(run);
  }

  // Like-for-like heavy-traffic sweep: same grid, G/G/1 cv^2 = 4 service
  // + MMPP bursty arrivals, each backend timed serially so the record
  // carries the analytic-vs-DES cell-cost gap for scenario workloads.
  const runner::SweepSpec scenario_spec = make_scenario_spec(seed);
  const auto analytic_backend = std::make_shared<runner::AnalyticBackend>();
  const ScenarioCost analytic_cost =
      time_backend(scenario_spec, analytic_backend);
  const ScenarioCost des_cost = time_backend(scenario_spec, backends.front());

  const OutputLayers layers = time_output_layers();

  JsonWriter json;
  json.begin_object();
  json.key("benchmark").value("sweep_scaling");
  json.key("messages").value(messages);
  json.key("seed").value(seed);
  json.key("points").value(static_cast<std::uint64_t>(serial.points.size()));
  json.key("hardware_concurrency").value(static_cast<std::uint64_t>(cores));
  json.key("runs").begin_array();
  for (const ScalingRun& run : runs) {
    json.begin_object();
    json.key("threads").value(static_cast<std::uint64_t>(run.threads));
    json.key("wall_seconds").value(run.wall_seconds);
    // An oversubscribed rung gets no speedup claim: its wall time is
    // valid data, but the ratio would compare context-switch overhead,
    // not parallelism.
    if (!run.oversubscribed) {
      json.key("speedup_vs_serial").value(
          run.wall_seconds > 0.0 ? runs.front().wall_seconds / run.wall_seconds
                                 : 0.0);
    }
    json.key("oversubscribed").value(run.oversubscribed);
    json.key("bit_identical").value(run.bit_identical);
    json.end_object();
  }
  json.end_array();
  json.key("scenario_sweep").begin_object();
  json.key("workload").value("gg1_cv2_4_mmpp");
  json.key("service_cv2").value(4.0);
  json.key("mmpp_burst_ratio").value(4.0);
  json.key("points").value(static_cast<std::uint64_t>(analytic_cost.points));
  json.key("analytic").begin_object();
  json.key("wall_seconds").value(analytic_cost.wall_seconds);
  json.key("cell_seconds").value(analytic_cost.cell_seconds);
  json.end_object();
  json.key("des").begin_object();
  json.key("messages").value(messages);
  json.key("wall_seconds").value(des_cost.wall_seconds);
  json.key("cell_seconds").value(des_cost.cell_seconds);
  json.end_object();
  json.end_object();
  json.key("output_layers").begin_object();
  json.key("grid").value(
      "9 clusters x 5 sizes x 16 rates x 2 architectures x 2 cases, "
      "N = 65536, bisection + picard + mva");
  json.key("cells").value(static_cast<std::uint64_t>(layers.cells));
  json.key("repetitions").value(static_cast<std::uint64_t>(layers.repetitions));
  json.key("expand_us_per_point").value(layers.expand_us_per_point);
  json.key("table_us_per_cell").value(layers.table_us_per_cell);
  json.key("journal_us_per_cell").value(layers.journal_us_per_cell);
  json.key("report_csv_us_per_cell").value(layers.report_csv_us_per_cell);
  json.key("report_json_us_per_cell").value(layers.report_json_us_per_cell);
  json.key("report_us_per_cell").value(layers.report_us_per_cell);
  json.key("output_bytes")
      .value(static_cast<std::uint64_t>(layers.output_bytes));
  json.key("fresh_write_ms").value(layers.fresh_write_ms);
  json.key("rewrite_ms").value(layers.rewrite_ms);
  json.key("journal_load_us_per_cell").value(layers.journal_load_us_per_cell);
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  require(out.good(), "sweep_scaling: cannot write '" + out_path + "'");
  out << json.str() << "\n";

  bool all_identical = true;
  for (const ScalingRun& run : runs) {
    if (run.oversubscribed) {
      std::printf("threads=%u  %7.3f s  (oversubscribed: %u threads > %u "
                  "cores; no speedup claimed)  %s\n",
                  run.threads, run.wall_seconds, run.threads, cores,
                  run.bit_identical ? "bit-identical" : "GRID MISMATCH");
    } else {
      std::printf("threads=%u  %7.3f s  speedup %.2fx  %s\n", run.threads,
                  run.wall_seconds,
                  runs.front().wall_seconds / run.wall_seconds,
                  run.bit_identical ? "bit-identical" : "GRID MISMATCH");
    }
    all_identical = all_identical && run.bit_identical;
  }
  std::printf("scenario sweep (cv2=4 + MMPP, %zu cells): analytic %.3e s/cell, "
              "des %.3e s/cell\n",
              analytic_cost.points, analytic_cost.cell_seconds,
              des_cost.cell_seconds);
  std::printf("output layers (%zu cells): expand %.2f us/point; table %.2f, "
              "journal %.2f us/cell; report with csv %.2f, json %.2f, both "
              "%.2f us/cell; outputs %.1f MB written in %.1f ms fresh, "
              "%.1f ms over themselves; journal load %.2f us/cell\n",
              layers.cells, layers.expand_us_per_point,
              layers.table_us_per_cell, layers.journal_us_per_cell,
              layers.report_csv_us_per_cell, layers.report_json_us_per_cell,
              layers.report_us_per_cell,
              static_cast<double>(layers.output_bytes) / 1e6,
              layers.fresh_write_ms, layers.rewrite_ms,
              layers.journal_load_us_per_cell);
  std::printf("hardware_concurrency=%u\nrecord written to %s\n", cores,
              out_path.c_str());
  return all_identical ? 0 : 1;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
