// Ablation: generation-rate sweep, including the literal Table 2 reading
// (0.25 msg/s) and the figure-scale reading (0.25 msg/ms = 250 msg/s).
// Shows where queueing starts to dominate and that the model tracks the
// simulator across the whole range — the unit-reconciliation evidence
// for DESIGN.md note 4.

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

  CliParser cli("ablation_lambda", "generation-rate sweep at C=8, M=1024");
  cli.add_option("messages", "measured deliveries per point", "10000");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const std::uint64_t messages = cli.get_uint("messages");

    const struct {
      double per_s;
      const char* note;
    } rates[] = {{0.25, "Table 2 literal"},
                 {2.5, ""},
                 {25.0, ""},
                 {100.0, ""},
                 {250.0, "figure scale (0.25/ms)"},
                 {1000.0, "deep saturation"}};

    // One declarative sweep over the rate axis; everything else is a
    // singleton, so every point shares one default_point_seed.
    runner::SweepSpec spec;
    spec.id = "ablation_lambda";
    spec.axes.clusters = {8};
    for (const auto& point : rates) {
      spec.axes.lambda_per_us.push_back(units::per_s_to_per_us(point.per_s));
    }

    ModelOptions mva;
    mva.fixed_point.method = SourceThrottling::kExactMva;
    runner::DesBackend::Options des;
    des.sim.measured_messages = messages;
    des.sim.warmup_messages = messages / 5;
    const runner::SweepResult result = runner::run_sweep(
        spec, {std::make_shared<runner::AnalyticBackend>(mva),
               std::make_shared<runner::DesBackend>(des)});

    std::cout << "== Ablation: lambda sweep (Case 1, non-blocking, C=8, "
                 "M=1024) ==\n";
    Table table({"lambda (msg/s)", "analysis (ms)", "simulation (ms)",
                 "lambda_eff/lambda", "note"});
    for (std::size_t i = 0; i < result.points.size(); ++i) {
      const runner::PointResult& analysis = result.at(i, 0);
      const runner::PointResult& simulation = result.at(i, 1);
      table.add_row(
          {format_compact(rates[i].per_s, 4),
           format_fixed(units::us_to_ms(analysis.mean_latency_us), 3),
           format_fixed(units::us_to_ms(simulation.mean_latency_us), 3),
           format_fixed(analysis.lambda_effective / analysis.lambda_offered,
                        3),
           rates[i].note});
    }
    std::cout << table;
    std::cout << "(at 0.25 msg/s the latency is the bare ~0.3 ms service\n"
                 " path — none of the figures' millisecond dynamics exist;\n"
                 " at 250 msg/s the model reproduces the figures' scale)\n";
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
