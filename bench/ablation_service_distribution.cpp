// Ablation: the paper assumes exponential network service times so each
// centre is M/M/1. Real fixed-size store-and-forward transmission is
// closer to deterministic (M/D/1). This harness runs the simulator and
// the analysis (bisection fixed point) both ways, each pair on the same
// config, quantifying the cost of that modelling assumption (M/D/1
// queues are about half as long).

#include <cstdio>
#include <iostream>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

namespace {

using namespace hmcs;
using namespace hmcs::analytic;

double simulate_ms(const SystemConfig& config, std::uint64_t seed,
                   std::uint64_t messages) {
  sim::SimOptions options;
  options.measured_messages = messages;
  options.warmup_messages = messages / 5;
  options.seed = seed;
  sim::MultiClusterSim simulator(config, options);
  return units::us_to_ms(simulator.run().mean_latency_us);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("ablation_service_distribution",
                "exponential (paper) vs deterministic network service");
  // Default to moderate load: at the headline 250 msg/s every point is
  // throughput-bound (saturated closed loop), where service variability
  // is irrelevant by design; the distribution's effect shows at
  // utilisations below ~0.9.
  cli.add_option("messages", "measured deliveries per point", "10000");
  cli.add_option("lambda", "per-node rate in msg/s", "50");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const auto messages = static_cast<std::uint64_t>(cli.get_int("messages"));
    const double rate = units::per_s_to_per_us(cli.get_double("lambda"));

    std::cout << "== Ablation: service-time distribution "
                 "(Fig. 4 configuration, M=1024) ==\n";
    Table table({"Clusters", "analysis M/M/1 (ms)", "sim exponential (ms)",
                 "analysis M/D/1 (ms)", "sim deterministic (ms)", "det/exp"});
    std::size_t count = 0;
    const std::uint32_t* sweep = paper_cluster_sweep(&count);
    for (std::size_t i = 0; i < count; ++i) {
      const SystemConfig config = paper_scenario(
          HeterogeneityCase::kCase1, sweep[i],
          NetworkArchitecture::kNonBlocking, 1024.0, kPaperTotalNodes, rate);
      SystemConfig deterministic = config;
      deterministic.scenario.service_cv2 = 0.0;
      // One solver for both analysis columns: they differ only in the
      // scenario, as the two simulated columns do.
      const double analysis_ms =
          units::us_to_ms(predict_latency(config).mean_latency_us);
      const double analysis_md1_ms =
          units::us_to_ms(predict_latency(deterministic).mean_latency_us);
      const double exp_ms = simulate_ms(config, 500 + sweep[i], messages);
      const double det_ms =
          simulate_ms(deterministic, 900 + sweep[i], messages);
      table.add_row({std::to_string(sweep[i]), format_fixed(analysis_ms, 3),
                     format_fixed(exp_ms, 3),
                     format_fixed(analysis_md1_ms, 3), format_fixed(det_ms, 3),
                     format_fixed(det_ms / exp_ms, 2)});
    }
    std::cout << table;
    std::cout
        << "(at moderate load deterministic service shortens queues —\n"
           " Pollaczek-Khinchine halves the waiting time, so the M/M/1\n"
           " analysis overestimates an M/D/1-like network there; rerun\n"
           " with --lambda 250 to see the effect vanish in saturation,\n"
           " where latency is throughput-bound and distribution-free)\n";
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
