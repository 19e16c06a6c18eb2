// Discrete-event cross-validation of the recursive tree solver on
// genuinely nested (depth >= 2 network levels beyond the root)
// heterogeneous topologies — the shapes the flat pipeline cannot
// express, so TreeSim is the only independent check.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/network_tech.hpp"
#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/sim/trace.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/workload/traffic_pattern.hpp"

namespace {

using namespace hmcs;

double relative_error(double observed, double expected) {
  return std::abs(observed - expected) / expected;
}

analytic::TreeLatencyPrediction analytic_prediction(
    const analytic::ModelTree& tree) {
  analytic::TreeModelOptions options;
  options.fixed_point.method = analytic::SourceThrottling::kBisection;
  options.fixed_point.queue_rule = analytic::QueueLengthRule::kConsistent;
  return analytic::predict_model_tree(tree, options);
}

sim::TreeSimResult simulate(const analytic::ModelTree& tree,
                            std::uint64_t seed) {
  sim::TreeSimOptions options;
  options.measured_messages = 8000;
  options.warmup_messages = 2000;
  options.seed = seed;
  sim::TreeSim sim(tree, options);
  return sim.run();
}

/// Depth-3 heterogeneous topology #1: fast-ethernet backbone over two
/// unequal gigabit campuses, each with unequal leaf groups.
analytic::ModelTree campuses_tree() {
  using analytic::ModelNode;
  ModelNode campus_a = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(12, 1e-4), ModelNode::leaf(6, 0.5e-4)}, "campus-a");
  ModelNode campus_b = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(20, 0.75e-4)}, "campus-b");
  analytic::ModelTree tree;
  tree.root =
      ModelNode::internal(analytic::fast_ethernet(), {campus_a, campus_b});
  tree.switch_params = {24, 10.0};
  tree.message_bytes = 1024.0;
  return tree;
}

/// Depth-3 heterogeneous topology #2: three subtrees with different
/// egress technologies and rates — heterogeneity at every level.
analytic::ModelTree mixed_egress_tree() {
  using analytic::ModelNode;
  ModelNode left = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::gigabit_ethernet(),
      {ModelNode::leaf(16, 0.5e-4)}, "left");
  ModelNode mid = ModelNode::internal(
      analytic::fast_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(8, 1e-4), ModelNode::leaf(8, 1e-4)}, "mid");
  ModelNode right = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(10, 0.25e-4)}, "right");
  analytic::ModelTree tree;
  tree.root = ModelNode::internal(analytic::gigabit_ethernet(),
                                  {left, mid, right});
  tree.switch_params = {24, 10.0};
  tree.message_bytes = 512.0;
  return tree;
}

TEST(TreeSim, MatchesAnalyticOnHeterogeneousCampuses) {
  const analytic::ModelTree tree = campuses_tree();
  const analytic::TreeLatencyPrediction model = analytic_prediction(tree);
  ASSERT_TRUE(model.fixed_point_converged);

  const sim::TreeSimResult sim_result = simulate(tree, 20240615);
  EXPECT_EQ(sim_result.messages_measured, 8000u);
  EXPECT_LT(relative_error(sim_result.mean_latency_us, model.mean_latency_us),
            0.15)
      << "sim " << sim_result.mean_latency_us << "us vs model "
      << model.mean_latency_us << "us";

  // Per-processor delivered rate agrees with the throttled offered rate.
  const double model_rate =
      model.lambda_offered_total * model.effective_rate_scale /
      static_cast<double>(tree.total_processors());
  EXPECT_LT(relative_error(sim_result.effective_rate_per_us, model_rate),
            0.15);
}

TEST(TreeSim, MatchesAnalyticOnMixedEgressTree) {
  const analytic::ModelTree tree = mixed_egress_tree();
  const analytic::TreeLatencyPrediction model = analytic_prediction(tree);
  ASSERT_TRUE(model.fixed_point_converged);

  const sim::TreeSimResult sim_result = simulate(tree, 20240616);
  EXPECT_LT(relative_error(sim_result.mean_latency_us, model.mean_latency_us),
            0.15)
      << "sim " << sim_result.mean_latency_us << "us vs model "
      << model.mean_latency_us << "us";
}

TEST(TreeSim, CenterStatsLineUpWithAnalyticCenters) {
  const analytic::ModelTree tree = campuses_tree();
  const analytic::TreeLatencyPrediction model = analytic_prediction(tree);
  const sim::TreeSimResult sim_result = simulate(tree, 20240617);

  ASSERT_EQ(sim_result.centers.size(), model.centers.size());
  for (std::size_t c = 0; c < model.centers.size(); ++c) {
    EXPECT_EQ(sim_result.centers[c].path, model.centers[c].path);
    EXPECT_EQ(sim_result.centers[c].egress, model.centers[c].egress);
    // Busy centres agree on utilisation to simulation tolerance.
    if (model.centers[c].utilization > 0.05) {
      EXPECT_LT(relative_error(sim_result.centers[c].utilization,
                               model.centers[c].utilization),
                0.25)
          << model.centers[c].path;
    }
  }
}

TEST(TreeSim, DeterministicForFixedSeed) {
  const analytic::ModelTree tree = mixed_egress_tree();
  const sim::TreeSimResult a = simulate(tree, 7);
  const sim::TreeSimResult b = simulate(tree, 7);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.events_executed, b.events_executed);

  const sim::TreeSimResult c = simulate(tree, 8);
  EXPECT_NE(a.mean_latency_us, c.mean_latency_us);
}

/// configs/trees/heterogeneous_campuses.json: two campuses, the first
/// with two leaf groups (16 + 8 processors), the second with one (32).
analytic::ModelTree heterogeneous_campuses() {
  std::ifstream file(std::string(HMCS_SOURCE_DIR) +
                     "/configs/trees/heterogeneous_campuses.json");
  std::stringstream text;
  text << file.rdbuf();
  return analytic::load_model_tree(text.str());
}

sim::SimOptions campus_options(std::uint64_t seed) {
  sim::SimOptions options;
  options.measured_messages = 3000;
  options.warmup_messages = 500;
  options.seed = seed;
  return options;
}

std::uint64_t departures_where(const sim::SimResult& result, bool egress,
                               bool root) {
  std::uint64_t total = 0;
  for (const sim::TreeCenterStats& center : result.centers) {
    const bool is_root = center.path == "root.icn";
    if (center.egress == egress && is_root == root) total += center.departures;
  }
  return total;
}

TEST(TreeSim, LocalizedTrafficOverLeafGroupsStaysInsideTheirParent) {
  // Leaf groups in DFS order are the traffic pattern's clusters; with
  // locality 1 every message stays in its own group, so it crosses only
  // its parent's network and never an egress.
  sim::SimOptions options = campus_options(41);
  workload::NodeSpace groups;
  groups.clusters = 3;
  groups.nodes_per_cluster = {16, 8, 32};
  options.traffic = std::make_shared<workload::LocalizedTraffic>(groups, 1.0);
  const sim::SimResult result =
      sim::TreeSim(heterogeneous_campuses(), options).run();
  EXPECT_EQ(result.remote_fraction, 0.0);
  EXPECT_EQ(result.mean_remote_latency_us, 0.0);
  EXPECT_EQ(result.ecn1.departures, 0u);
  EXPECT_EQ(result.icn2.departures, 0u);
  EXPECT_EQ(departures_where(result, true, false), 0u);
  EXPECT_GT(result.icn1.departures, 0u);
}

TEST(TreeSim, OpenLoopAtAStableRateMeasuresItsQuota) {
  sim::SimOptions options = campus_options(42);
  options.closed_loop = false;
  const sim::SimResult result =
      sim::TreeSim(heterogeneous_campuses(), options).run();
  EXPECT_EQ(result.messages_measured, options.measured_messages);
  EXPECT_GT(result.remote_fraction, 0.0);
  EXPECT_LT(result.max_center_utilization, 1.0);
}

TEST(TreeSim, PercentilesAreOrdered) {
  const sim::SimResult result =
      sim::TreeSim(heterogeneous_campuses(), campus_options(43)).run();
  EXPECT_LE(result.min_latency_us, result.p50_latency_us);
  EXPECT_LE(result.p50_latency_us, result.p95_latency_us);
  EXPECT_LE(result.p95_latency_us, result.p99_latency_us);
  EXPECT_LE(result.p99_latency_us, result.max_latency_us);
  EXPECT_LT(result.min_latency_us, result.max_latency_us);
}

TEST(TreeSim, RoleDeparturesSumTheirCenters) {
  // Role rule: the root's network is ICN2, the other networks ICN1 and
  // every egress ECN1.
  const sim::SimResult result =
      sim::TreeSim(heterogeneous_campuses(), campus_options(44)).run();
  ASSERT_EQ(result.centers.size(), 5u);
  EXPECT_EQ(result.icn1.departures, departures_where(result, false, false));
  EXPECT_EQ(result.ecn1.departures, departures_where(result, true, false));
  EXPECT_EQ(result.icn2.departures, departures_where(result, false, true));
  EXPECT_GT(result.ecn1.departures, 0u);
  EXPECT_GT(result.icn2.departures, 0u);
}

TEST(TreeSim, DepartureStartsTheNextJobBeforeRoutingTheDeparted) {
  // Four clusters of four processors on one technology: ICN1, ECN1 and
  // ICN2 each join four devices, so with deterministic service every
  // centre serves for the same time S. When a message leaves a centre
  // with a line behind it and enters an idle one, both next departures
  // fall at t + S, and the calendar breaks the tie by push order: the
  // departure pushed first — the queued job's, when a departure starts
  // the next job before it routes the departed message — fires first.
  using analytic::ModelNode;
  std::vector<ModelNode> clusters;
  for (int k = 0; k < 4; ++k) {
    clusters.push_back(ModelNode::internal(analytic::fast_ethernet(),
                                           analytic::fast_ethernet(),
                                           {ModelNode::leaf(4, 5e-4)}));
  }
  analytic::ModelTree tree;
  tree.root = ModelNode::internal(analytic::fast_ethernet(), clusters);
  tree.switch_params = {24, 10.0};
  tree.message_bytes = 1024.0;
  tree.scenario.service_cv2 = 0.0;

  sim::TreeSimOptions options;
  options.measured_messages = 2000;
  options.warmup_messages = 0;
  options.seed = 5;
  options.trace = std::make_shared<sim::TraceRecorder>(1'000'000);
  sim::TreeSim(tree, options).run();
  ASSERT_FALSE(options.trace->truncated());

  // Replay the trace with the owner's rule — on a departure, the next
  // queued job starts before the departed message's next enqueue — and
  // number the service starts in that order. Each start pushes one
  // departure, so same-time departures must fire in start order.
  struct Center {
    std::deque<std::uint64_t> waiting;
    bool busy = false;
    std::uint64_t in_service = 0;
    std::uint64_t start_rank = 0;
  };
  std::map<std::string, Center> centers;
  std::uint64_t starts = 0;
  auto start = [&starts](Center& c) {
    c.in_service = c.waiting.front();
    c.waiting.pop_front();
    c.busy = true;
    c.start_rank = starts++;
  };
  double last_departure_time = -1.0;
  std::uint64_t last_departure_rank = 0;
  std::uint64_t ties = 0;
  for (const sim::TraceEvent& event : options.trace->events()) {
    if (event.kind == sim::TraceEventKind::kEnqueued) {
      Center& c = centers[event.center];
      c.waiting.push_back(event.message_id);
      if (!c.busy) start(c);
    } else if (event.kind == sim::TraceEventKind::kDeparted) {
      Center& c = centers[event.center];
      ASSERT_TRUE(c.busy);
      ASSERT_EQ(c.in_service, event.message_id);
      if (event.time_us == last_departure_time) {
        ++ties;
        EXPECT_GT(c.start_rank, last_departure_rank)
            << "same-time departures out of start order at "
            << event.time_us << " us (" << event.center << ")";
      }
      last_departure_time = event.time_us;
      last_departure_rank = c.start_rank;
      c.busy = false;
      if (!c.waiting.empty()) start(c);
    }
  }
  // The check means something only if such ties happened.
  EXPECT_GT(ties, 100u);
}

TEST(TreeSim, RejectsTrafficOutsideTheTree) {
  // A pattern built for 128 nodes always picking node 100 cannot be
  // routed on the campuses tree's 56 processors.
  sim::SimOptions options = campus_options(45);
  options.traffic = std::make_shared<workload::HotspotTraffic>(
      workload::NodeSpace::uniform(4, 32), 100, 1.0);
  sim::TreeSim simulator(heterogeneous_campuses(), options);
  EXPECT_THROW(simulator.run(), hmcs::ConfigError);
}

TEST(TreeSim, RejectsDegenerateTrees) {
  analytic::ModelTree tree;
  tree.root = analytic::ModelNode::internal(
      analytic::fast_ethernet(), {analytic::ModelNode::leaf(1, 1e-4)});
  // One processor: no destinations to send to.
  EXPECT_THROW(sim::TreeSim(tree, {}), hmcs::ConfigError);

  tree.root = analytic::ModelNode::internal(
      analytic::fast_ethernet(),
      {analytic::ModelNode::leaf(4, 0.0), analytic::ModelNode::leaf(4, 1e-4)});
  // A zero-rate leaf never releases its closed-loop sources.
  EXPECT_THROW(sim::TreeSim(tree, {}), hmcs::ConfigError);
}

TEST(TreeSim, CancelledTokenUnwindsTheRun) {
  util::CancelToken token;
  token.cancel();
  sim::SimOptions options = campus_options(1);
  options.cancel = &token;
  sim::TreeSim simulator(campuses_tree(), options);
  try {
    simulator.run();
    FAIL() << "a cancelled run finished";
  } catch (const hmcs::Cancelled& error) {
    EXPECT_NE(std::string(error.what()).find("TreeSim: cancelled"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
