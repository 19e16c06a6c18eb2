// Ablation: how much does the blocked-source correction matter, and how
// accurate is the paper's open-network approximation (eqs. 6-7) compared
// with the exact closed-network MVA? Sweeps Figure 4's configuration and
// prints latency per throttling method next to the simulation reference.
//
// Headline: kNone explodes at saturated points (the open network has no
// stationary distribution there, reported as 'inf'); kPicard/kBisection
// agree with each other but misallocate queueing at partially saturated
// points (C=2); kExactMva tracks the simulator within noise everywhere.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

namespace {

using namespace hmcs;
using namespace hmcs::analytic;

std::string latency_cell(const runner::PointResult& cell, bool is_picard) {
  if (!std::isfinite(cell.mean_latency_us)) return "inf";
  if (is_picard && !cell.converged) {
    return format_fixed(units::us_to_ms(cell.mean_latency_us), 3) + "*";
  }
  return format_fixed(units::us_to_ms(cell.mean_latency_us), 3);
}

std::shared_ptr<runner::Backend> analytic_backend(SourceThrottling method,
                                                  std::string name) {
  ModelOptions options;
  options.fixed_point.method = method;
  if (method == SourceThrottling::kPicard) {
    options.fixed_point.picard_damping = 0.5;
    options.fixed_point.max_iterations = 10000;
  }
  return std::make_shared<runner::AnalyticBackend>(options, std::move(name));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("ablation_fixed_point",
                "latency per source-throttling method vs simulation");
  cli.add_option("messages", "measured deliveries per point", "10000");
  cli.add_option("lambda", "per-node rate in msg/s", "250");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const std::uint64_t messages = cli.get_uint("messages");

    // The paper cluster sweep (the default clusters axis) against every
    // throttling method plus the simulator — one grid, five backends.
    runner::SweepSpec spec;
    spec.id = "ablation_fixed_point";
    spec.axes.lambda_per_us = {units::per_s_to_per_us(cli.get_double("lambda"))};

    runner::DesBackend::Options des;
    des.sim.measured_messages = messages;
    des.sim.warmup_messages = messages / 5;
    const runner::SweepResult result = runner::run_sweep(
        spec, {analytic_backend(SourceThrottling::kNone, "none"),
               analytic_backend(SourceThrottling::kPicard, "picard"),
               analytic_backend(SourceThrottling::kBisection, "bisection"),
               analytic_backend(SourceThrottling::kExactMva, "mva"),
               std::make_shared<runner::DesBackend>(des, "simulation")});

    std::cout << "== Ablation: blocked-source correction "
                 "(Fig. 4 configuration, M=1024) ==\n";
    Table table({"Clusters", "none (ms)", "Picard eq.7 (ms)",
                 "bisection (ms)", "exact MVA (ms)", "simulation (ms)"});
    for (const runner::SweepPoint& point : result.points) {
      table.add_row(
          {std::to_string(point.clusters),
           latency_cell(result.at(point.index, 0), false),
           latency_cell(result.at(point.index, 1), true),
           latency_cell(result.at(point.index, 2), false),
           latency_cell(result.at(point.index, 3), false),
           format_fixed(
               units::us_to_ms(result.at(point.index, 4).mean_latency_us),
               3)});
    }
    std::cout << table;
    std::cout << "(* = Picard hit its iteration cap without converging; the\n"
                 " last damped iterate is shown. 'inf' = the uncorrected\n"
                 " open network is unstable at that point.)\n";
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
