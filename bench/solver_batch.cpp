// Like-for-like benchmark of the batch analytic solver (BENCH_solver.json):
//
//  1. Station-class MVA collapse: the exact recursion over the 2C+1
//     stations of the HMCS network vs the same recursion over its 3
//     station classes, at a large closed population (default 2^20) and
//     each requested cluster count. Identical stations stay exchangeable
//     through the recursion, so the collapse is exact — the record
//     carries the measured max relative error next to the speedup.
//
//  2. Batch grid evaluation: predict_latency cell by cell vs
//     predict_latency_batch over a dense generation-rate grid, for every
//     SourceThrottling method. Both sides run the one fixed-point
//     engine: predict_latency is a one-cell call of it, so the speedup
//     is what one grouped call (the shared precomputation and the
//     lockstep sweep) buys over one call per cell. Each side is timed
//     as the median of kGridRepeats runs, since one run is tens to
//     hundreds of microseconds.
//
//  3. Mixed chunk: the first 256 points of a cartesian technology x
//     rate x clusters x message size x architecture sweep, in its
//     expansion order (architecture innermost, so no two neighbouring
//     points share a topology), through exact MVA: predict_latency
//     cell by cell vs predict_latency_batch, on the MVA lane kernel the
//     process dispatches to; then the chunk's networks once through
//     each kernel the CPU supports (AVX-512F, AVX2, baseline).
//
// In parts 2 and 3 every field of every cell must match the per-cell
// solve bit for bit, for every method and on every kernel; the program
// exits 1 when one does not. All three comparisons run on the same
// inputs in the same process; speedups are wall-clock ratios of the two
// sides (station vs class recursion in 1, one call per cell vs one call
// per grid or chunk in 2 and 3), nothing else.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "hmcs/analytic/batch_solver.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/network_tech.hpp"
#include "hmcs/analytic/routing_probability.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/string_util.hpp"

namespace {

using namespace hmcs;
using analytic::SourceThrottling;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double rel_error(double a, double b) {
  const double denom = std::max(std::fabs(a), std::fabs(b));
  return denom > 0.0 ? std::fabs(a - b) / denom : 0.0;
}

analytic::SystemConfig make_config(std::uint32_t clusters,
                                   std::uint32_t nodes_per_cluster) {
  analytic::SystemConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = nodes_per_cluster;
  config.icn1 = analytic::gigabit_ethernet();
  config.ecn1 = analytic::fast_ethernet();
  config.icn2 = analytic::gigabit_ethernet();
  return config;
}

struct MvaCollapseRun {
  std::uint32_t clusters = 0;
  std::size_t stations = 0;
  double station_seconds = 0.0;
  double class_seconds = 0.0;
  double max_rel_error = 0.0;
};

/// Part 1: one cluster count; population = clusters * nodes_per_cluster.
MvaCollapseRun run_mva_collapse(std::uint32_t clusters,
                                std::uint64_t total_nodes) {
  require(total_nodes % clusters == 0,
          "solver_batch: --nodes must be divisible by every cluster count");
  const analytic::SystemConfig config = make_config(
      clusters, static_cast<std::uint32_t>(total_nodes / clusters));
  const analytic::CenterServiceTimes service =
      analytic::center_service_times(config);
  const double think = 1.0 / config.generation_rate_per_us;

  MvaCollapseRun run;
  run.clusters = clusters;

  const analytic::HmcsMvaLayout stations =
      analytic::build_hmcs_mva_layout(config, service);
  run.stations = stations.stations.size();
  auto start = std::chrono::steady_clock::now();
  const analytic::MvaResult by_station =
      analytic::solve_closed_mva(stations.stations, think, total_nodes);
  run.station_seconds = seconds_since(start);

  const analytic::HmcsMvaClassLayout classes =
      analytic::build_hmcs_mva_class_layout(config, service);
  start = std::chrono::steady_clock::now();
  const analytic::MvaClassResult by_class =
      analytic::solve_closed_mva_classes(classes.classes, think, total_nodes);
  run.class_seconds = seconds_since(start);

  run.max_rel_error =
      rel_error(by_station.throughput, by_class.throughput);
  run.max_rel_error = std::max(
      run.max_rel_error, rel_error(by_station.total_residence_us,
                                   by_class.total_residence_us));
  const std::size_t station_of_class[3] = {
      stations.icn1_index, stations.ecn1_index, stations.icn2_index};
  for (std::size_t cls = 0; cls < 3; ++cls) {
    run.max_rel_error = std::max(
        run.max_rel_error,
        rel_error(by_station.response_time_us[station_of_class[cls]],
                  by_class.response_time_us[cls]));
    run.max_rel_error = std::max(
        run.max_rel_error,
        rel_error(by_station.queue_length[station_of_class[cls]],
                  by_class.queue_length[cls]));
  }
  return run;
}

/// Part 3: the first `cells` points of a cartesian sweep over
/// technology x rate x clusters x message size x architecture, nested
/// in that order (architecture innermost) at population `total_nodes`.
std::vector<analytic::SystemConfig> mixed_chunk_configs(
    std::uint64_t total_nodes, std::size_t cells) {
  const std::uint32_t clusters[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double message_bytes[] = {256.0, 512.0, 1024.0, 2048.0, 4096.0};
  require(total_nodes % 256 == 0 && total_nodes <= UINT32_MAX,
          "solver_batch: --nodes must be a multiple of 256 for the mixed "
          "chunk");
  std::vector<analytic::SystemConfig> configs;
  for (const analytic::HeterogeneityCase hetero :
       {analytic::HeterogeneityCase::kCase1,
        analytic::HeterogeneityCase::kCase2}) {
    for (int k = 0; k < 16; ++k) {
      const double rate_per_us = 25e-6 * std::pow(1.25, k);
      for (const std::uint32_t c : clusters) {
        for (const double bytes : message_bytes) {
          for (const analytic::NetworkArchitecture architecture :
               {analytic::NetworkArchitecture::kNonBlocking,
                analytic::NetworkArchitecture::kBlocking}) {
            if (configs.size() == cells) return configs;
            configs.push_back(analytic::paper_scenario(
                hetero, c, architecture, bytes,
                static_cast<std::uint32_t>(total_nodes), rate_per_us));
          }
        }
      }
    }
  }
  return configs;
}

/// Names of the LatencyPrediction fields that differ in some cell.
using Mismatches = std::vector<std::string>;

void compare_field(Mismatches& mismatched, const char* name, double a,
                   double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return;
  }
  for (const std::string& seen : mismatched) {
    if (seen == name) return;
  }
  mismatched.emplace_back(name);
}

void compare_center(Mismatches& mismatched, const std::string& role,
                    const analytic::CenterPrediction& a,
                    const analytic::CenterPrediction& b) {
  compare_field(mismatched, (role + ".arrival_rate").c_str(), a.arrival_rate,
                b.arrival_rate);
  compare_field(mismatched, (role + ".service_rate").c_str(), a.service_rate,
                b.service_rate);
  compare_field(mismatched, (role + ".utilization").c_str(), a.utilization,
                b.utilization);
  compare_field(mismatched, (role + ".response_time_us").c_str(),
                a.response_time_us, b.response_time_us);
  compare_field(mismatched, (role + ".queue_length").c_str(), a.queue_length,
                b.queue_length);
}

void compare_service(Mismatches& mismatched, const std::string& role,
                     const analytic::ServiceTimeBreakdown& a,
                     const analytic::ServiceTimeBreakdown& b) {
  compare_field(mismatched, (role + ".link_latency_us").c_str(),
                a.link_latency_us, b.link_latency_us);
  compare_field(mismatched, (role + ".switch_latency_us").c_str(),
                a.switch_latency_us, b.switch_latency_us);
  compare_field(mismatched, (role + ".transmission_us").c_str(),
                a.transmission_us, b.transmission_us);
  compare_field(mismatched, (role + ".blocking_us").c_str(), a.blocking_us,
                b.blocking_us);
}

/// Every field of every cell of `batch` against `scalar`, bit for bit.
Mismatches compare_predictions(
    const std::vector<analytic::LatencyPrediction>& scalar,
    const std::vector<analytic::LatencyPrediction>& batch) {
  Mismatches mismatched;
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    const analytic::LatencyPrediction& a = scalar[i];
    const analytic::LatencyPrediction& b = batch[i];
    compare_field(mismatched, "mean_latency_us", a.mean_latency_us,
                  b.mean_latency_us);
    compare_field(mismatched, "inter_cluster_probability",
                  a.inter_cluster_probability, b.inter_cluster_probability);
    compare_field(mismatched, "lambda_offered", a.lambda_offered,
                  b.lambda_offered);
    compare_field(mismatched, "lambda_effective", a.lambda_effective,
                  b.lambda_effective);
    compare_field(mismatched, "total_queue_length", a.total_queue_length,
                  b.total_queue_length);
    compare_field(mismatched, "fixed_point_converged",
                  a.fixed_point_converged ? 1.0 : 0.0,
                  b.fixed_point_converged ? 1.0 : 0.0);
    compare_field(mismatched, "fixed_point_iterations",
                  static_cast<double>(a.fixed_point_iterations),
                  static_cast<double>(b.fixed_point_iterations));
    compare_center(mismatched, "icn1", a.icn1, b.icn1);
    compare_center(mismatched, "ecn1", a.ecn1, b.ecn1);
    compare_center(mismatched, "icn2", a.icn2, b.icn2);
    compare_service(mismatched, "service_times.icn1", a.service_times.icn1,
                    b.service_times.icn1);
    compare_service(mismatched, "service_times.ecn1", a.service_times.ecn1,
                    b.service_times.ecn1);
    compare_service(mismatched, "service_times.icn2", a.service_times.icn2,
                    b.service_times.icn2);
  }
  return mismatched;
}

/// Timed runs per side of part 2; each side reports its median.
constexpr std::size_t kGridRepeats = 9;

double median_seconds(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

struct GridRun {
  std::string method;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  std::uint64_t converged_cells = 0;
  Mismatches mismatched_fields;
};

/// Part 2: one throttling method over the shared rate grid.
GridRun run_grid(const std::vector<analytic::SystemConfig>& configs,
                 SourceThrottling method, const char* name) {
  analytic::ModelOptions options;
  options.fixed_point.method = method;

  GridRun run;
  run.method = name;
  std::vector<double> scalar_seconds;
  std::vector<double> batch_seconds;
  std::vector<analytic::LatencyPrediction> scalar;
  std::vector<analytic::LatencyPrediction> batch;
  for (std::size_t repeat = 0; repeat < kGridRepeats; ++repeat) {
    scalar.clear();
    auto start = std::chrono::steady_clock::now();
    for (const analytic::SystemConfig& config : configs) {
      scalar.push_back(analytic::predict_latency(config, options));
    }
    scalar_seconds.push_back(seconds_since(start));

    start = std::chrono::steady_clock::now();
    batch = analytic::predict_latency_batch(configs, options);
    batch_seconds.push_back(seconds_since(start));
  }
  run.scalar_seconds = median_seconds(scalar_seconds);
  run.batch_seconds = median_seconds(batch_seconds);
  for (const analytic::LatencyPrediction& cell : batch) {
    run.converged_cells += cell.fixed_point_converged ? 1 : 0;
  }
  run.mismatched_fields = compare_predictions(scalar, batch);
  return run;
}

struct MixedChunkRun {
  std::size_t cells = 0;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  /// The per-cell predictions: the reference every kernel is held to.
  std::vector<analytic::LatencyPrediction> scalar;
  Mismatches mismatched_fields;
};

MixedChunkRun run_mixed_chunk(
    const std::vector<analytic::SystemConfig>& configs) {
  analytic::ModelOptions options;
  options.fixed_point.method = SourceThrottling::kExactMva;

  MixedChunkRun run;
  run.cells = configs.size();
  run.scalar.reserve(configs.size());
  auto start = std::chrono::steady_clock::now();
  for (const analytic::SystemConfig& config : configs) {
    run.scalar.push_back(analytic::predict_latency(config, options));
  }
  run.scalar_seconds = seconds_since(start);

  start = std::chrono::steady_clock::now();
  const std::vector<analytic::LatencyPrediction> batch =
      analytic::predict_latency_batch(configs, options);
  run.batch_seconds = seconds_since(start);
  run.mismatched_fields = compare_predictions(run.scalar, batch);
  return run;
}

struct KernelRun {
  std::string kernel;
  std::size_t lanes = 0;
  double batch_seconds = 0.0;
  /// batch_seconds per network and population step.
  double ns_per_lane_step = 0.0;
  Mismatches mismatched_fields;
};

/// The mixed chunk through one MVA kernel: the networks
/// predict_latency_batch builds for it (HMCS class layout, think time
/// 1/rate; every cell has a positive rate and the same population),
/// solved by `kernel` and finished into predictions like the batch path.
KernelRun run_kernel(const analytic::detail::MvaKernel& kernel,
                     const std::vector<analytic::SystemConfig>& configs,
                     const std::vector<analytic::LatencyPrediction>& scalar) {
  KernelRun run;
  run.kernel = kernel.name;
  run.lanes = kernel.lanes;
  const auto start = std::chrono::steady_clock::now();
  std::vector<analytic::CenterServiceTimes> services;
  std::vector<analytic::HmcsMvaClassLayout> layouts;
  for (const analytic::SystemConfig& config : configs) {
    services.push_back(analytic::center_service_times(config));
    layouts.push_back(
        analytic::build_hmcs_mva_class_layout(config, services.back()));
  }
  std::vector<analytic::MvaClassNetwork> networks;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    networks.push_back(analytic::MvaClassNetwork{
        layouts[i].classes, 1.0 / configs[i].generation_rate_per_us});
  }
  const std::vector<analytic::MvaClassResult> solved =
      kernel.solve(networks, configs.front().total_nodes());
  std::vector<analytic::LatencyPrediction> batch;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const analytic::SystemConfig& config = configs[i];
    batch.push_back(analytic::detail::finish_mva_prediction(
        config,
        analytic::inter_cluster_probability(config.clusters,
                                            config.nodes_per_cluster),
        services[i], layouts[i], solved[i]));
  }
  run.batch_seconds = seconds_since(start);
  run.ns_per_lane_step =
      run.batch_seconds * 1e9 /
      (static_cast<double>(configs.size()) *
       static_cast<double>(configs.front().total_nodes()));
  run.mismatched_fields = compare_predictions(scalar, batch);
  return run;
}

double speedup(double slow_seconds, double fast_seconds) {
  return fast_seconds > 0.0 ? slow_seconds / fast_seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("solver_batch",
                "Batch/station-class analytic solver benchmark; writes a "
                "JSON record.");
  cli.add_option("nodes", "closed-MVA population (total nodes)", "1048576");
  cli.add_option("clusters", "comma-separated cluster counts for the MVA "
                             "collapse comparison", "64,1024");
  cli.add_option("grid-cells", "rate-grid size for the batch comparison",
                 "512");
  cli.add_option("out", "output JSON path", "BENCH_solver.json");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.help_text().c_str());
    return 0;
  }
  const std::uint64_t nodes = cli.get_uint("nodes");
  const std::uint64_t grid_cells = cli.get_uint("grid-cells");
  const std::string out_path = cli.get_string("out");
  std::vector<std::uint32_t> cluster_counts;
  for (const std::string& item : split(cli.get_string("clusters"), ',')) {
    cluster_counts.push_back(
        static_cast<std::uint32_t>(std::stoul(trim(item))));
  }
  require(!cluster_counts.empty(), "solver_batch: --clusters is empty");
  require(grid_cells >= 2, "solver_batch: --grid-cells must be >= 2");

  // Part 1: station-class collapse at the full population.
  std::vector<MvaCollapseRun> collapse;
  for (const std::uint32_t clusters : cluster_counts) {
    collapse.push_back(run_mva_collapse(clusters, nodes));
    const MvaCollapseRun& run = collapse.back();
    std::printf("mva C=%-5u %4zu stations -> 3 classes: %8.3f s -> %8.3f s "
                "(%.1fx), max rel err %.2e\n",
                run.clusters, run.stations, run.station_seconds,
                run.class_seconds,
                speedup(run.station_seconds, run.class_seconds),
                run.max_rel_error);
  }

  // Part 2: the rate grid, from light load to well past saturation of
  // the slowest centre (the fixed point throttles the saturated cells).
  const analytic::SystemConfig base = make_config(16, 8);
  std::vector<analytic::SystemConfig> grid(grid_cells, base);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].generation_rate_per_us =
        1.5e-3 * static_cast<double>(i + 1) / static_cast<double>(grid.size());
  }
  const std::vector<GridRun> grid_runs = {
      run_grid(grid, SourceThrottling::kNone, "none"),
      run_grid(grid, SourceThrottling::kPicard, "picard"),
      run_grid(grid, SourceThrottling::kBisection, "bisection"),
      run_grid(grid, SourceThrottling::kExactMva, "mva"),
  };
  bool bit_identical = true;
  for (const GridRun& run : grid_runs) {
    bit_identical = bit_identical && run.mismatched_fields.empty();
    std::printf("grid %-9s %llu cells (%llu converged): %8.6f s -> %8.6f s "
                "(%.1fx), bit-identical: %s\n",
                run.method.c_str(),
                static_cast<unsigned long long>(grid_cells),
                static_cast<unsigned long long>(run.converged_cells),
                run.scalar_seconds, run.batch_seconds,
                speedup(run.scalar_seconds, run.batch_seconds),
                run.mismatched_fields.empty() ? "yes" : "NO");
    for (const std::string& field : run.mismatched_fields) {
      std::printf("  field differs: %s\n", field.c_str());
    }
  }

  // Part 3: a chunk whose neighbouring cells never share a topology,
  // through the dispatched MVA kernel, then through every kernel this
  // CPU supports.
  const std::vector<analytic::SystemConfig> chunk =
      mixed_chunk_configs(nodes, 256);
  const MixedChunkRun mixed = run_mixed_chunk(chunk);
  bit_identical = bit_identical && mixed.mismatched_fields.empty();
  const analytic::detail::MvaKernel& dispatched =
      analytic::detail::supported_mva_kernels().front();
  std::printf("mixed chunk mva %zu cells (%s, %zu lanes): %8.4f s -> "
              "%8.4f s (%.1fx), bit-identical: %s\n",
              mixed.cells, std::string(dispatched.name).c_str(),
              dispatched.lanes, mixed.scalar_seconds, mixed.batch_seconds,
              speedup(mixed.scalar_seconds, mixed.batch_seconds),
              mixed.mismatched_fields.empty() ? "yes" : "NO");
  for (const std::string& field : mixed.mismatched_fields) {
    std::printf("  field differs: %s\n", field.c_str());
  }
  std::vector<KernelRun> kernels;
  for (const analytic::detail::MvaKernel& kernel :
       analytic::detail::supported_mva_kernels()) {
    kernels.push_back(run_kernel(kernel, chunk, mixed.scalar));
    const KernelRun& run = kernels.back();
    bit_identical = bit_identical && run.mismatched_fields.empty();
    std::printf("  kernel %-8s %2zu lanes: %8.4f s (%.1fx, %.3f ns per "
                "lane-step), bit-identical: %s\n",
                run.kernel.c_str(), run.lanes, run.batch_seconds,
                speedup(mixed.scalar_seconds, run.batch_seconds),
                run.ns_per_lane_step,
                run.mismatched_fields.empty() ? "yes" : "NO");
    for (const std::string& field : run.mismatched_fields) {
      std::printf("    field differs: %s\n", field.c_str());
    }
  }

  JsonWriter json;
  json.begin_object();
  json.key("benchmark").value("solver_batch");
  json.key("total_nodes").value(nodes);
  json.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("cpu").value(bench::cpu_model());
  json.key("mva_class_collapse").begin_array();
  for (const MvaCollapseRun& run : collapse) {
    json.begin_object();
    json.key("clusters").value(static_cast<std::uint64_t>(run.clusters));
    json.key("stations").value(static_cast<std::uint64_t>(run.stations));
    json.key("classes").value(static_cast<std::uint64_t>(3));
    json.key("station_seconds").value(run.station_seconds);
    json.key("class_seconds").value(run.class_seconds);
    json.key("speedup").value(speedup(run.station_seconds, run.class_seconds));
    json.key("max_rel_error").value(run.max_rel_error);
    json.end_object();
  }
  json.end_array();
  json.key("batch_grid").begin_object();
  json.key("cells").value(grid_cells);
  json.key("clusters").value(static_cast<std::uint64_t>(base.clusters));
  json.key("nodes_per_cluster")
      .value(static_cast<std::uint64_t>(base.nodes_per_cluster));
  json.key("repeats").value(static_cast<std::uint64_t>(kGridRepeats));
  json.key("methods").begin_array();
  for (const GridRun& run : grid_runs) {
    json.begin_object();
    json.key("method").value(run.method);
    json.key("scalar_seconds").value(run.scalar_seconds);
    json.key("batch_seconds").value(run.batch_seconds);
    json.key("speedup").value(speedup(run.scalar_seconds, run.batch_seconds));
    json.key("converged_cells").value(run.converged_cells);
    json.key("bit_identical").value(run.mismatched_fields.empty());
    json.key("mismatched_fields").begin_array();
    for (const std::string& field : run.mismatched_fields) {
      json.value(field);
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("mixed_chunk").begin_object();
  json.key("cells").value(static_cast<std::uint64_t>(mixed.cells));
  json.key("method").value("mva");
  json.key("scalar_seconds").value(mixed.scalar_seconds);
  json.key("batch_seconds").value(mixed.batch_seconds);
  json.key("speedup")
      .value(speedup(mixed.scalar_seconds, mixed.batch_seconds));
  json.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("kernel").value(dispatched.name);
  json.key("lanes").value(static_cast<std::uint64_t>(dispatched.lanes));
  json.key("bit_identical").value(mixed.mismatched_fields.empty());
  json.key("mismatched_fields").begin_array();
  for (const std::string& field : mixed.mismatched_fields) {
    json.value(field);
  }
  json.end_array();
  json.key("kernels").begin_array();
  for (const KernelRun& run : kernels) {
    json.begin_object();
    json.key("kernel").value(run.kernel);
    json.key("lanes").value(static_cast<std::uint64_t>(run.lanes));
    json.key("batch_seconds").value(run.batch_seconds);
    json.key("ns_per_lane_step").value(run.ns_per_lane_step);
    json.key("bit_identical").value(run.mismatched_fields.empty());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  require(out.good(), "solver_batch: cannot write '" + out_path + "'");
  out << json.str() << "\n";
  std::printf("record written to %s\n", out_path.c_str());
  if (!bit_identical) {
    std::fprintf(stderr,
                 "error: a batch differs from the per-cell solve\n");
    return 1;
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
