// One-table accuracy summary across all four figures: for each figure,
// the mean/max relative error of (a) the paper's eqs. (6)-(7) model and
// (b) the exact-MVA extension against the same simulation runs. This is
// the headline validation number of EXPERIMENTS.md, regenerated in one
// binary. Running both analytic variants as backends of one sweep means
// each figure's simulation runs once, not once per variant.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "hmcs/analytic/scenario.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/math_util.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

namespace {

using namespace hmcs;

/// One of the paper's validation figures: a technology case and an
/// architecture, swept over C = 1..256 at M in {1024, 512} bytes
/// (configs/sweeps/fig{4,5,6,7}.json hold the same grids).
struct Figure {
  const char* id;
  analytic::HeterogeneityCase hetero;
  analytic::NetworkArchitecture architecture;
};

constexpr Figure kFigures[] = {
    {"fig4", analytic::HeterogeneityCase::kCase1,
     analytic::NetworkArchitecture::kNonBlocking},
    {"fig5", analytic::HeterogeneityCase::kCase2,
     analytic::NetworkArchitecture::kNonBlocking},
    {"fig6", analytic::HeterogeneityCase::kCase1,
     analytic::NetworkArchitecture::kBlocking},
    {"fig7", analytic::HeterogeneityCase::kCase2,
     analytic::NetworkArchitecture::kBlocking},
};

struct ErrorSummary {
  double mean = 0.0;
  double max = 0.0;
};

/// Mean/max relative error of one analytic backend column against the
/// simulation column, in ms — the paper's accuracy notion.
ErrorSummary column_errors(const runner::SweepResult& result,
                           std::size_t analytic_column,
                           std::size_t sim_column) {
  ErrorSummary summary;
  for (const runner::SweepPoint& point : result.points) {
    const double analysis_ms =
        units::us_to_ms(result.at(point.index, analytic_column).mean_latency_us);
    const double simulation_ms =
        units::us_to_ms(result.at(point.index, sim_column).mean_latency_us);
    const double error = relative_error(analysis_ms, simulation_ms);
    summary.mean += error;
    summary.max = std::max(summary.max, error);
  }
  summary.mean /= static_cast<double>(result.points.size());
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("model_accuracy_report",
                "analysis-vs-simulation agreement across Figures 4-7");
  cli.add_option("messages", "measured deliveries per point", "10000");
  cli.add_option("replications", "independent replications per point", "1");
  cli.add_option("seed", "base seed", "1");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const std::uint64_t messages = cli.get_uint("messages");

    analytic::ModelOptions paper_model;
    paper_model.fixed_point.method = analytic::SourceThrottling::kBisection;
    analytic::ModelOptions mva_model;
    mva_model.fixed_point.method = analytic::SourceThrottling::kExactMva;

    runner::DesBackend::Options des;
    des.sim.measured_messages = messages;
    des.sim.warmup_messages = messages / 5;
    des.replications =
        static_cast<std::uint32_t>(cli.get_uint("replications"));

    Table table({"figure", "paper model: mean err", "max err",
                 "exact MVA: mean err", "max err"});
    for (const Figure& fig : kFigures) {
      // The figure's sweep, evaluated by both analytic variants and the
      // simulator in one grid. The per-point seeds are the figure
      // configs', so with --replications 3 the simulation column is
      // theirs.
      runner::SweepSpec spec;
      spec.id = fig.id;
      spec.axes.technologies = {runner::technology_case(fig.hetero)};
      spec.axes.lambda_per_us = {analytic::kPaperRatePerUs};
      spec.axes.message_bytes = {1024.0, 512.0};
      spec.axes.architectures = {fig.architecture};
      spec.total_nodes = analytic::kPaperTotalNodes;
      spec.base_seed = cli.get_uint("seed");

      const runner::SweepResult result = runner::run_sweep(
          spec,
          {std::make_shared<runner::AnalyticBackend>(paper_model, "paper"),
           std::make_shared<runner::AnalyticBackend>(mva_model, "mva"),
           std::make_shared<runner::DesBackend>(des, "simulation")});

      const ErrorSummary paper = column_errors(result, 0, 2);
      const ErrorSummary mva = column_errors(result, 1, 2);
      table.add_row({fig.id, format_fixed(paper.mean * 100.0, 1) + "%",
                     format_fixed(paper.max * 100.0, 1) + "%",
                     format_fixed(mva.mean * 100.0, 1) + "%",
                     format_fixed(mva.max * 100.0, 1) + "%"});
    }
    std::cout << "== Model accuracy vs simulation, Figures 4-7 ==\n"
              << table
              << "(the paper model's max errors concentrate at the partially\n"
                 " saturated small-C points; see "
                 "Bounds.PaperApproximationViolatesTheEnvelope...)\n";
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
