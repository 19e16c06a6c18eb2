// The paper's Figures 4-7 as shipped sweep configs
// (configs/sweeps/fig{4,5,6,7}.json, run by hmcs_run): the grid each
// config describes, the qualitative shape criteria of the paper's
// figures on the analytic backend (fast), and the agreement column of
// one analysis-vs-simulation sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "hmcs/analytic/scenario.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/math_util.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/units.hpp"

namespace {

using namespace hmcs;
using analytic::HeterogeneityCase;
using analytic::NetworkArchitecture;

runner::SweepRunConfig load_figure(int figure) {
  return runner::load_sweep_config(std::string(HMCS_SOURCE_DIR) +
                                   "/configs/sweeps/fig" +
                                   std::to_string(figure) + ".json");
}

/// The figure's grid under its analytic backend alone.
runner::SweepResult run_analysis(const runner::SweepRunConfig& config) {
  return runner::run_sweep(config.spec, {config.backends.front()});
}

double analysis_ms(const runner::SweepResult& result, std::size_t point) {
  return units::us_to_ms(result.at(point, 0).mean_latency_us);
}

TEST(FigureExperiment, SpecsCoverTheFourFigures) {
  struct Expected {
    int figure;
    HeterogeneityCase hetero;
    NetworkArchitecture architecture;
  };
  constexpr auto kNonBlocking = NetworkArchitecture::kNonBlocking;
  constexpr auto kBlocking = NetworkArchitecture::kBlocking;
  for (const Expected& expected :
       {Expected{4, HeterogeneityCase::kCase1, kNonBlocking},
        Expected{5, HeterogeneityCase::kCase2, kNonBlocking},
        Expected{6, HeterogeneityCase::kCase1, kBlocking},
        Expected{7, HeterogeneityCase::kCase2, kBlocking}}) {
    const runner::SweepRunConfig config = load_figure(expected.figure);
    const runner::SweepAxes& axes = config.spec.axes;
    SCOPED_TRACE(config.spec.id);
    EXPECT_EQ(config.spec.id, "fig" + std::to_string(expected.figure));
    EXPECT_EQ(config.spec.total_nodes, 256u);
    EXPECT_EQ(config.spec.base_seed, 1u);
    ASSERT_EQ(axes.technologies.size(), 1u);
    EXPECT_EQ(axes.technologies[0].label,
              analytic::to_string(expected.hetero));
    EXPECT_EQ(axes.architectures,
              std::vector<NetworkArchitecture>{expected.architecture});
    EXPECT_EQ(axes.lambda_per_us,
              std::vector<double>{analytic::kPaperRatePerUs});
    EXPECT_EQ(axes.message_bytes, (std::vector<double>{1024.0, 512.0}));
    ASSERT_EQ(config.backends.size(), 2u);
    EXPECT_EQ(config.backends[0]->name(), "analysis");
    EXPECT_EQ(config.backends[1]->name(), "simulation");
  }
}

TEST(FigureExperiment, SweepProducesPointPerClusterAndSize) {
  const runner::SweepRunConfig config = load_figure(4);
  const runner::SweepResult result = run_analysis(config);
  ASSERT_EQ(result.points.size(), 9u * 2u);
  // Cluster-major, size-minor ordering over C = 1..256.
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_EQ(result.points[i].clusters, 1u << (i / 2));
    EXPECT_DOUBLE_EQ(result.points[i].message_bytes,
                     i % 2 == 0 ? 1024.0 : 512.0);
    EXPECT_GT(analysis_ms(result, i), 0.0);
  }
}

TEST(FigureExperiment, LargerMessagesSlowerAtEveryPoint) {
  for (const int figure : {4, 5, 6, 7}) {
    const runner::SweepResult result = run_analysis(load_figure(figure));
    for (std::size_t i = 0; i < result.points.size(); i += 2) {
      EXPECT_GT(analysis_ms(result, i), analysis_ms(result, i + 1))
          << "fig" << figure << " C=" << result.points[i].clusters;
    }
  }
}

TEST(FigureExperiment, BlockingFiguresDominateNonBlockingOnes) {
  // Figure 6 over Figure 4 (Case 1) and Figure 7 over Figure 5 (Case 2),
  // point by point.
  for (const auto& [blocking, non_blocking] :
       {std::pair{6, 4}, std::pair{7, 5}}) {
    const runner::SweepResult high = run_analysis(load_figure(blocking));
    const runner::SweepResult low = run_analysis(load_figure(non_blocking));
    ASSERT_EQ(high.points.size(), low.points.size());
    for (std::size_t i = 0; i < high.points.size(); ++i) {
      EXPECT_GT(analysis_ms(high, i), analysis_ms(low, i))
          << "fig" << blocking << " vs fig" << non_blocking
          << " C=" << high.points[i].clusters;
    }
  }
}

TEST(FigureExperiment, CustomSweepAndRateAreHonoured) {
  runner::SweepRunConfig config = load_figure(5);
  config.spec.axes.clusters = {2, 8};
  config.spec.axes.message_bytes = {256.0};
  config.spec.axes.lambda_per_us = {1e-6};
  const runner::SweepResult result = run_analysis(config);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].clusters, 2u);
  EXPECT_EQ(result.points[1].clusters, 8u);
  // Near-zero load: latency close to the pure service path (< 1 ms).
  EXPECT_LT(analysis_ms(result, 0), 1.0);
}

TEST(FigureExperiment, SimulatedRunReportsAgreement) {
  // A one-point analytic + DES sweep: the table's RelErr column is the
  // paper's accuracy notion, |analysis - simulation| / simulation.
  runner::SweepSpec spec = load_figure(4).spec;
  spec.axes.clusters = {4};
  spec.axes.message_bytes = {512.0};
  spec.total_nodes = 64;
  analytic::ModelOptions mva;
  mva.fixed_point.method = analytic::SourceThrottling::kExactMva;
  runner::DesBackend::Options des;
  des.sim.measured_messages = 4000;
  des.sim.warmup_messages = 400;
  const runner::SweepResult result = runner::run_sweep(
      spec, {std::make_shared<runner::AnalyticBackend>(mva, "analysis"),
             std::make_shared<runner::DesBackend>(des, "simulation")});
  ASSERT_EQ(result.points.size(), 1u);

  const double analysis = units::us_to_ms(result.at(0, 0).mean_latency_us);
  const double simulation = units::us_to_ms(result.at(0, 1).mean_latency_us);
  EXPECT_GT(simulation, 0.0);
  EXPECT_GT(result.at(0, 1).ci_half_us, 0.0);
  const double error = std::abs(analysis - simulation) / simulation;
  EXPECT_DOUBLE_EQ(relative_error(analysis, simulation), error);
  EXPECT_LT(error, 0.15);

  const std::string table = runner::render_sweep_table(result);
  EXPECT_NE(table.find("RelErr simulation"), std::string::npos);
  std::string cell = " ";
  cell += format_fixed(error * 100.0, 1);
  cell += "% |";
  EXPECT_NE(table.find(cell), std::string::npos) << table;
}

TEST(FigureExperiment, TableRendersEveryCluster) {
  const runner::SweepResult result = run_analysis(load_figure(4));
  const std::string table = runner::render_sweep_table(result);
  // Cells are right-aligned, so match " <value> |" boundaries.
  for (const char* cluster : {" 1 |", " 16 |", " 256 |"}) {
    EXPECT_NE(table.find(cluster), std::string::npos) << cluster;
  }
  EXPECT_NE(table.find("analysis (ms)"), std::string::npos);
  // No simulation columns on an analysis-only run.
  EXPECT_EQ(table.find("simulation"), std::string::npos);
}

TEST(FigureExperiment, CsvHasHeaderAndAllRows) {
  const runner::SweepResult result = run_analysis(load_figure(4));
  const std::string csv = runner::sweep_csv(result).to_string();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1u + result.points.size());
  EXPECT_EQ(csv.rfind("clusters,message_bytes,", 0), 0u);
  EXPECT_NE(csv.find("analysis_mean_ms"), std::string::npos);
}

TEST(FigureExperiment, ReportWritesSeriesAndRecord) {
  // What `hmcs_run --csv-dir D --json-dir D` prints and writes for a
  // figure config: the titled table, then <D>/fig4.csv and fig4.json.
  runner::SweepRunConfig config = load_figure(4);
  config.spec.axes.clusters = {2, 8, 32};
  const runner::SweepResult result = run_analysis(config);

  std::ostringstream os;
  const std::string dir = ::testing::TempDir();
  runner::print_sweep_report(os, result, dir, dir);
  const std::string report = os.str();
  EXPECT_EQ(report.rfind("== Figure 4:", 0), 0u);
  EXPECT_NE(report.find("series written to"), std::string::npos);
  EXPECT_NE(report.find("record written to"), std::string::npos);

  std::ifstream csv(dir + "/fig4.csv");
  EXPECT_TRUE(csv.good());
  std::ifstream json(dir + "/fig4.json");
  EXPECT_TRUE(json.good());
  std::string json_text((std::istreambuf_iterator<char>(json)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(json_text.rfind("{\"id\":\"fig4\"", 0), 0u);
  std::remove((dir + "/fig4.csv").c_str());
  std::remove((dir + "/fig4.json").c_str());
}

}  // namespace
