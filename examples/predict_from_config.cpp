// Config-file driven prediction tool: load a one-point sweep config
// (the JSON schema hmcs_run reads, through the same load_sweep_config +
// expand_sweep path), solve the analytical model (paper fixed point and
// exact MVA), optionally cross-check by simulation, and emit a JSON
// record for downstream tooling.
//
//   $ ./predict_from_config examples/configs/case1_c8.json
//   $ ./predict_from_config my.json --simulate --json out.json
//
// The config must expand to exactly one flat point; its backends, seed
// and fault-tolerance members are ignored. A nested tree is refused (run
// it with hmcs_run); a flat-shaped one was lowered at expansion.

#include <cstdio>
#include <fstream>
#include <optional>
#include <iostream>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/serialize.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

int main(int argc, char** argv) {
  using namespace hmcs;
  using namespace hmcs::analytic;

  CliParser cli("predict_from_config",
                "predict mean message latency for a config file");
  cli.add_flag("simulate", "also run the discrete-event simulator");
  cli.add_option("json", "write a JSON record to this path", "");
  try {
    if (!cli.parse(argc, argv) || cli.positional().empty()) {
      std::cout << cli.help_text()
                << "\nusage: predict_from_config <config.json> [--simulate]"
                   " [--json out.json]\n";
      return cli.positional().empty() ? 1 : 0;
    }
    const std::string path = cli.positional().front();
    const std::vector<runner::SweepPoint> points =
        runner::expand_sweep(runner::load_sweep_config(path).spec);
    require(points.size() == 1,
            "predict_from_config: '" + path + "' expands to " +
                std::to_string(points.size()) +
                " points; give every axis one value");
    require(points.front().tree == nullptr,
            "predict_from_config: '" + path +
                "' describes a nested tree; run it with hmcs_run");
    const SystemConfig& config = points.front().config;

    std::printf("%s: C=%u x N0=%u, %s, M=%.0fB, lambda=%.1f msg/s\n\n",
                path.c_str(), config.clusters, config.nodes_per_cluster,
                to_string(config.architecture), config.message_bytes,
                units::per_us_to_per_s(config.generation_rate_per_us));

    const LatencyPrediction open = predict_latency(config);
    ModelOptions mva_options;
    mva_options.fixed_point.method = SourceThrottling::kExactMva;
    const LatencyPrediction mva = predict_latency(config, mva_options);

    Table table({"model", "latency (ms)", "lambda_eff (msg/s)", "ICN1 util",
                 "ECN1 util", "ICN2 util"});
    auto add = [&](const char* name, const LatencyPrediction& prediction) {
      table.add_row(
          {name, format_fixed(units::us_to_ms(prediction.mean_latency_us), 3),
           format_fixed(units::per_us_to_per_s(prediction.lambda_effective), 1),
           format_fixed(prediction.icn1.utilization, 3),
           format_fixed(prediction.ecn1.utilization, 3),
           format_fixed(prediction.icn2.utilization, 3)});
    };
    add("paper fixed point", open);
    add("exact MVA", mva);

    std::optional<sim::SimResult> sim_result;
    if (cli.get_flag("simulate")) {
      sim::SimOptions options;
      options.measured_messages = 10000;
      options.warmup_messages = 2000;
      options.seed = 1;
      sim::MultiClusterSim simulator(config, options);
      sim_result = simulator.run();
      table.add_row(
          {"simulation",
           format_fixed(units::us_to_ms(sim_result->mean_latency_us), 3),
           format_fixed(
               units::per_us_to_per_s(sim_result->effective_rate_per_us), 1),
           format_fixed(sim_result->icn1.utilization, 3),
           format_fixed(sim_result->ecn1.utilization, 3),
           format_fixed(sim_result->icn2.utilization, 3)});
    }
    std::cout << table;

    if (sim_result) {
      std::printf("\npercentiles (ms)  p50      p95      p99\n");
      std::printf("  simulation      %-8.3f %-8.3f %-8.3f\n",
                  units::us_to_ms(sim_result->p50_latency_us),
                  units::us_to_ms(sim_result->p95_latency_us),
                  units::us_to_ms(sim_result->p99_latency_us));
    }

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      JsonWriter json;
      json.begin_object();
      json.key("config");
      write_json(json, config);
      json.key("paper_fixed_point");
      write_json(json, open);
      json.key("exact_mva");
      write_json(json, mva);
      json.end_object();
      std::ofstream out(json_path);
      require(out.good(), "cannot write '" + json_path + "'");
      out << json.str() << "\n";
      std::printf("\nJSON record written to %s\n", json_path.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
