// The span/trace recorder and its Chrome trace-event export: ring
// bounding, JSON validity (parsed back with hmcs::util::parse_json), the
// end-to-end fixed-seed simulator golden run, sim-time tracks of nested
// DES sweep cells, and the fixed-point residual trace.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/obs/sampler.hpp"
#include "hmcs/obs/trace.hpp"
#include "hmcs/runner/backend.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

TEST(ObsTrace, RecordsSpansInOrder) {
  obs::TraceSession session;
  session.complete("a", "cat", 10.0, 5.0);
  session.instant("b", "cat", 20.0);
  session.counter("depth", 30.0, 4.0);
  EXPECT_EQ(session.size(), 3u);
  EXPECT_EQ(session.dropped_count(), 0u);
  const auto events = session.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_DOUBLE_EQ(events[0].duration_us, 5.0);
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[2].phase, 'C');
  EXPECT_DOUBLE_EQ(events[2].counter_value, 4.0);
}

TEST(ObsTrace, RingKeepsNewestAndCountsDrops) {
  obs::TraceSession session(4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    session.instant(name, "cat", static_cast<double>(i));
  }
  EXPECT_EQ(session.size(), 4u);
  EXPECT_EQ(session.dropped_count(), 6u);
  const auto events = session.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: e6 e7 e8 e9.
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
}

TEST(ObsTrace, ChromeJsonIsValidAndComplete) {
  obs::TraceSession session;
  session.set_process_name(1, "proc \"one\"");
  session.set_thread_name(1, 2, "lane");
  session.complete("span", "cat", 1.5, 2.5, 1, 2);
  session.counter("depth", 3.0, 7.0, 1);

  const JsonValue doc = parse_json(session.to_chrome_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  // 2 metadata + 2 events.
  ASSERT_EQ(events.size(), 4u);
  bool saw_span = false;
  bool saw_counter = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    // Required trace-event fields on every record.
    EXPECT_TRUE(event.find("name") != nullptr);
    EXPECT_TRUE(event.find("ph") != nullptr);
    EXPECT_TRUE(event.find("ts") != nullptr);
    EXPECT_TRUE(event.find("pid") != nullptr);
    const std::string ph = event.at("ph").as_string();
    if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(event.at("name").as_string(), "span");
      EXPECT_DOUBLE_EQ(event.at("ts").as_number(), 1.5);
      EXPECT_DOUBLE_EQ(event.at("dur").as_number(), 2.5);
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(event.at("args").at("value").as_number(), 7.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
}

/// The golden end-to-end check: a fixed-seed simulator run with tracing
/// and sampling attached must emit a parseable Chrome trace containing
/// the phase spans and every sampled counter track.
TEST(ObsTrace, FixedSeedSimProducesLoadableTrace) {
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, 4,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0, 16, 1e-4);
  sim::SimOptions options;
  options.measured_messages = 200;
  options.warmup_messages = 50;
  options.seed = 11;
  options.obs.trace = std::make_shared<obs::TraceSession>();
  options.obs.trace_pid = 5;
  options.obs.sample_interval_us = 500.0;
  sim::MultiClusterSim simulator(config, options);
  const sim::SimResult result = simulator.run();

  ASSERT_NE(simulator.sampler(), nullptr);
  EXPECT_EQ(result.obs.samples_taken, simulator.sampler()->samples_taken());
  EXPECT_GT(result.obs.samples_taken, 0u);
  EXPECT_GT(result.obs.warmup_end_us, 0.0);
  EXPECT_GT(result.obs.events_pushed, 0u);

  const JsonValue doc = parse_json(options.obs.trace->to_chrome_json());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::set<std::string> names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    names.insert(event.at("name").as_string());
    EXPECT_DOUBLE_EQ(event.at("pid").as_number(), 5.0);
    EXPECT_GE(event.at("ts").as_number(), 0.0);
  }
  EXPECT_TRUE(names.count("warmup"));
  EXPECT_TRUE(names.count("measurement"));
  EXPECT_TRUE(names.count("measurement_start"));
  EXPECT_TRUE(names.count("sim.event_queue.pending"));
  EXPECT_TRUE(names.count("sim.icn1.queue_total"));
  EXPECT_TRUE(names.count("sim.messages_in_flight"));
}

/// A nested-tree DES cell gets the flat cells' observability: with a
/// trace on the point context and a sample interval set, its sim-time
/// phase spans and counter tracks land under pid 2 + index, named after
/// the point.
TEST(ObsTrace, NestedDesCellRecordsSimTimeTracks) {
  std::ifstream file(std::string(HMCS_SOURCE_DIR) +
                     "/configs/trees/heterogeneous_campuses.json");
  std::stringstream text;
  text << file.rdbuf();
  const analytic::ModelTree tree = analytic::load_model_tree(text.str());
  ASSERT_FALSE(tree.as_system_config().has_value());

  runner::DesBackend::Options options;
  options.sim.measured_messages = 500;
  options.sim.warmup_messages = 100;
  options.sim.obs.sample_interval_us = 500.0;
  const runner::DesBackend backend(options);
  runner::PointContext ctx;
  ctx.index = 3;
  ctx.seed = 17;
  ctx.label = "campuses";
  ctx.trace = std::make_shared<obs::TraceSession>();
  const runner::PointResult result = backend.predict_tree(tree, ctx);
  EXPECT_EQ(result.messages_measured, 500u);

  bool measurement = false;
  bool pending = false;
  for (const obs::SpanEvent& event : ctx.trace->events()) {
    if (event.pid != 5) continue;
    measurement |= event.phase == 'X' && event.name == "measurement";
    pending |= event.phase == 'C' && event.name == "sim.event_queue.pending";
  }
  EXPECT_TRUE(measurement);
  EXPECT_TRUE(pending);
  EXPECT_NE(ctx.trace->to_chrome_json().find("campuses (sim us)"),
            std::string::npos);
}

TEST(ObsTrace, SamplerSeriesAreBoundedAndMirrored) {
  obs::TraceSession session;
  obs::TimeSeriesSampler sampler(4);
  sampler.attach_trace(&session, 9);
  double value = 0.0;
  sampler.add_probe("probe", [&value] { return value; });
  for (int i = 0; i < 10; ++i) {
    value = static_cast<double>(i);
    sampler.sample(static_cast<double>(i) * 10.0);
  }
  ASSERT_EQ(sampler.series().size(), 1u);
  const auto& series = sampler.series()[0];
  EXPECT_EQ(series.values.size(), 4u);
  EXPECT_EQ(series.dropped, 6u);
  EXPECT_DOUBLE_EQ(series.values.back(), 9.0);
  EXPECT_DOUBLE_EQ(series.values.front(), 6.0);
  EXPECT_EQ(sampler.samples_taken(), 10u);
  // Mirrored counter events are unbounded by the series cap (ring-bounded
  // by the session instead).
  EXPECT_EQ(session.size(), 10u);
}

/// Satellite check: the bisection residual trace decays monotonically
/// (the bracket halves every iteration) and ends below tolerance.
TEST(ObsTrace, BisectionResidualTraceDecaysMonotonically) {
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, 4,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0, 256,
      analytic::kPaperRatePerUs);
  std::vector<double> residuals;
  analytic::ModelOptions options;
  options.fixed_point.method = analytic::SourceThrottling::kBisection;
  options.fixed_point.tolerance = 1e-9;
  options.fixed_point.residual_trace = &residuals;
  const analytic::LatencyPrediction result =
      analytic::predict_latency(config, options);
  EXPECT_TRUE(result.fixed_point_converged);
  ASSERT_GE(residuals.size(), 2u);
  EXPECT_EQ(residuals.size(), result.fixed_point_iterations);
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    EXPECT_LT(residuals[i], residuals[i - 1]);
  }
  EXPECT_LE(residuals.back(), options.fixed_point.tolerance);
  // The same buffer is cleared and refilled on reuse.
  analytic::predict_latency(config, options);
  EXPECT_EQ(residuals.size(), result.fixed_point_iterations);
}

TEST(ObsTrace, WriteFileRejectsBadPath) {
  obs::TraceSession session;
  session.instant("x", "cat", 0.0);
  EXPECT_THROW(session.write_file("/nonexistent-dir-xyz/trace.json"),
               hmcs::Error);
}

}  // namespace
