// Section 6's comparative claim: "the average message latency of blocking
// network is larger, something between 1.4 to 3.1 times" (the figure axes
// suggest a larger spread at the extremes). This harness computes the
// measured blocking/non-blocking latency ratio per cluster count for both
// scenarios, from both the analytical model and the simulator.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

int main(int argc, char** argv) {
  using namespace hmcs;
  using namespace hmcs::analytic;

  CliParser cli("ratio_blocking_vs_nonblocking",
                "blocking/non-blocking latency ratio per cluster count");
  cli.add_option("messages", "measured deliveries per point", "10000");
  cli.add_option("lambda", "per-node rate in msg/s", "250");
  cli.add_option("bytes", "message size in bytes", "1024");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const std::uint64_t messages = cli.get_uint("messages");
    const double bytes = cli.get_double("bytes");

    ModelOptions mva;
    mva.fixed_point.method = SourceThrottling::kExactMva;
    runner::DesBackend::Options des;
    des.sim.measured_messages = messages;
    des.sim.warmup_messages = messages / 5;

    for (const auto hetero :
         {HeterogeneityCase::kCase1, HeterogeneityCase::kCase2}) {
      // One sweep per scenario: paper cluster sweep × both architectures
      // (architecture innermost); both architectures of one cluster
      // count share its default_point_seed.
      runner::SweepSpec spec;
      spec.id = "ratio";
      spec.axes.technologies = {runner::technology_case(hetero)};
      spec.axes.lambda_per_us = {
          units::per_s_to_per_us(cli.get_double("lambda"))};
      spec.axes.message_bytes = {bytes};
      spec.axes.architectures = {NetworkArchitecture::kNonBlocking,
                                 NetworkArchitecture::kBlocking};
      const runner::SweepResult result = runner::run_sweep(
          spec, {std::make_shared<runner::AnalyticBackend>(mva, "analysis"),
                 std::make_shared<runner::DesBackend>(des, "simulation")});

      std::cout << "== " << to_string(hetero) << ", M=" << bytes
                << " bytes ==\n";
      Table table({"Clusters", "non-blocking (ms)", "blocking (ms)",
                   "ratio (analysis)", "ratio (simulation)"});
      double min_ratio = 1e300;
      double max_ratio = 0.0;
      // Points come out (C, non-blocking), (C, blocking), ...
      for (std::size_t i = 0; i + 1 < result.points.size(); i += 2) {
        const double nb_ms = units::us_to_ms(result.at(i, 0).mean_latency_us);
        const double b_ms =
            units::us_to_ms(result.at(i + 1, 0).mean_latency_us);
        const double sim_ratio =
            units::us_to_ms(result.at(i + 1, 1).mean_latency_us) /
            units::us_to_ms(result.at(i, 1).mean_latency_us);

        const double ratio = b_ms / nb_ms;
        min_ratio = std::min(min_ratio, ratio);
        max_ratio = std::max(max_ratio, ratio);
        table.add_row({std::to_string(result.points[i].clusters),
                       format_fixed(nb_ms, 2), format_fixed(b_ms, 2),
                       format_fixed(ratio, 2), format_fixed(sim_ratio, 2)});
      }
      std::cout << table;
      std::printf("ratio range across the sweep: %.2f .. %.2f"
                  " (paper text: 1.4 .. 3.1; figure axes: up to ~8)\n\n",
                  min_ratio, max_ratio);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
