// Golden pins of the analytic model's absolute outputs. The other
// bitwise analytic tests compare two code paths with each other (batch
// vs per-cell, tree vs flat); these compare against numbers recorded
// once, so a refactor that changes every path the same way still fails
// here.
//
// Each pin is a 64-bit FNV-1a digest of the bit patterns of every
// numeric output field of one (input, method) pair, in declaration
// order; a few plain mean latencies are pinned next to them so a
// failure also reads as a number. As with the DES golden runs
// (test_engine_determinism.cpp, docs/PERFORMANCE.md), a mismatch means
// the arithmetic changed: that is a behavioural break to fix, not a
// constant to re-record.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "hmcs/analytic/fixed_point.hpp"
#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/analytic/workload.hpp"

namespace {

using namespace hmcs::analytic;

/// FNV-1a over the little-endian bytes of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3u;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { add(std::uint64_t{value ? 1u : 0u}); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325u;
};

void add_center(Digest& d, const CenterPrediction& c) {
  d.add(c.arrival_rate);
  d.add(c.service_rate);
  d.add(c.utilization);
  d.add(c.response_time_us);
  d.add(c.queue_length);
}

void add_service(Digest& d, const ServiceTimeBreakdown& s) {
  d.add(s.link_latency_us);
  d.add(s.switch_latency_us);
  d.add(s.transmission_us);
  d.add(s.blocking_us);
}

/// Every LatencyPrediction field.
void add_prediction(Digest& d, const LatencyPrediction& p) {
  d.add(p.mean_latency_us);
  d.add(p.inter_cluster_probability);
  d.add(p.lambda_offered);
  d.add(p.lambda_effective);
  d.add(p.total_queue_length);
  d.add(p.fixed_point_converged);
  d.add(p.fixed_point_iterations);
  add_center(d, p.icn1);
  add_center(d, p.ecn1);
  add_center(d, p.icn2);
  add_service(d, p.service_times.icn1);
  add_service(d, p.service_times.ecn1);
  add_service(d, p.service_times.icn2);
}

/// Every numeric TreeLatencyPrediction field, per-leaf latencies and
/// per-centre predictions included.
void add_tree(Digest& d, const TreeLatencyPrediction& p) {
  d.add(p.mean_latency_us);
  d.add(std::uint64_t{p.per_leaf_latency_us.size()});
  for (const double latency : p.per_leaf_latency_us) d.add(latency);
  d.add(p.lambda_offered_total);
  d.add(p.effective_rate_scale);
  d.add(p.total_queue_length);
  d.add(p.fixed_point_converged);
  d.add(p.fixed_point_iterations);
  // The digest word of the retired lowered-to-flat flag: it was false on
  // every pinned tree solve, so the pins keep their values.
  d.add(false);
  d.add(std::uint64_t{p.centers.size()});
  for (const TreeCenterPrediction& c : p.centers) {
    d.add(c.egress);
    d.add(c.arrival_rate);
    d.add(c.service_rate);
    d.add(c.utilization);
    d.add(c.response_time_us);
    d.add(c.queue_length);
  }
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llxu",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Exact decimal form of a double (round-trips), for failure messages.
std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

const char* method_name(SourceThrottling method) {
  switch (method) {
    case SourceThrottling::kNone: return "none";
    case SourceThrottling::kPicard: return "picard";
    case SourceThrottling::kBisection: return "bisection";
    case SourceThrottling::kExactMva: return "mva";
  }
  return "?";
}

ModelOptions flat_options(SourceThrottling method) {
  ModelOptions options;
  options.fixed_point.method = method;
  return options;
}

// ---------------------------------------------------------------------
// Flat model: the paper's Figures 4-7.

struct Figure {
  const char* id;
  HeterogeneityCase hetero;
  NetworkArchitecture architecture;
};

constexpr Figure kFigures[] = {
    {"fig4", HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking},
    {"fig5", HeterogeneityCase::kCase2, NetworkArchitecture::kNonBlocking},
    {"fig6", HeterogeneityCase::kCase1, NetworkArchitecture::kBlocking},
    {"fig7", HeterogeneityCase::kCase2, NetworkArchitecture::kBlocking},
};

/// Methods in pin-column order.
constexpr SourceThrottling kMethods[] = {
    SourceThrottling::kNone, SourceThrottling::kPicard,
    SourceThrottling::kBisection, SourceThrottling::kExactMva};

/// One digest per figure and method over C in {1, 2, 16, 256} x M in
/// {512, 1024} at the paper's rate (columns: none, picard, bisection,
/// mva). At this rate Picard exhausts its iterations on every cell, so
/// these also pin the stale-queue-on-exhaustion rule.
constexpr std::uint64_t kFigurePins[4][4] = {
    {0x4ef2538608c2f6a3u, 0x8ea5a8d906ff1a72u, 0xbf128c443358a9d9u,
     0x9d1796f5285512c0u},
    {0x7830ef7fa34b524cu, 0xf9bcaf7052b4bd2fu, 0x68286346193f50a2u,
     0xddb76aa8fed1d281u},
    {0x5e1165cd0d3d41dbu, 0xb92b3e0dc1d1ebcfu, 0xedf538cac7738fe3u,
     0xd711b838e0443108u},
    {0xbb2f3b2d06551104u, 0x6e45d7bd90f29b8bu, 0x6fdd55e5f7bfcf20u,
     0xf42d7abb686d0c01u},
};

TEST(AnalyticGolden, PaperFiguresUnderEveryMethod) {
  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t m = 0; m < 4; ++m) {
      Digest digest;
      for (const std::uint32_t clusters : {1u, 2u, 16u, 256u}) {
        for (const double bytes : {512.0, 1024.0}) {
          const SystemConfig config = paper_scenario(
              kFigures[f].hetero, clusters, kFigures[f].architecture, bytes);
          add_prediction(digest,
                         predict_latency(config, flat_options(kMethods[m])));
        }
      }
      EXPECT_EQ(digest.value(), kFigurePins[f][m])
          << kFigures[f].id << " " << method_name(kMethods[m]) << ": actual "
          << hex(digest.value());
    }
  }
}

// ---------------------------------------------------------------------
// Flat model: non-default queue rule and workload scenarios, at a light
// load where both iterative methods converge after a few dozen steps.

constexpr double kLightRate = 2e-5;

SystemConfig light_cell() {
  return paper_scenario(HeterogeneityCase::kCase1, 16,
                        NetworkArchitecture::kNonBlocking, 1024.0,
                        kPaperTotalNodes, kLightRate);
}

struct ScenarioCell {
  const char* id;
  SystemConfig config;
  QueueLengthRule rule;
};

std::vector<ScenarioCell> scenario_cells() {
  SystemConfig bursty = light_cell();
  bursty.scenario.service_cv2 = 4.0;
  bursty.scenario.mmpp = MmppArrivals{6.0, 0.15, 5e3};
  SystemConfig failing = light_cell();
  failing.scenario.failure = FailureRepair{5e5, 2e3};
  return {{"consistent", light_cell(), QueueLengthRule::kConsistent},
          {"cv2=4+mmpp", bursty, QueueLengthRule::kPaperEq6},
          {"failure/repair", failing, QueueLengthRule::kPaperEq6}};
}

/// Columns: picard, bisection.
constexpr std::uint64_t kScenarioPins[3][2] = {
    {0x26e797c7f21091c4u, 0x0841b7cf116623e8u},
    {0xcc6958b29f1e86c9u, 0x5725d94c3960e8e9u},
    {0xc9cfb009ee39004cu, 0xc7dd97596174ef53u},
};

TEST(AnalyticGolden, QueueRuleAndWorkloadCellsUnderPicardAndBisection) {
  const std::vector<ScenarioCell> cells = scenario_cells();
  constexpr SourceThrottling kIterative[] = {SourceThrottling::kPicard,
                                             SourceThrottling::kBisection};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t m = 0; m < 2; ++m) {
      ModelOptions options = flat_options(kIterative[m]);
      options.fixed_point.queue_rule = cells[c].rule;
      const LatencyPrediction prediction =
          predict_latency(cells[c].config, options);
      EXPECT_TRUE(prediction.fixed_point_converged)
          << cells[c].id << " " << method_name(kIterative[m]);
      Digest digest;
      add_prediction(digest, prediction);
      EXPECT_EQ(digest.value(), kScenarioPins[c][m])
          << cells[c].id << " " << method_name(kIterative[m]) << ": actual "
          << hex(digest.value());
    }
  }
}

// ---------------------------------------------------------------------
// Far past saturation Picard oscillates until max_iterations and reports
// its last iterate with the queue length of the iterate before it.

TEST(AnalyticGolden, PicardExhaustionReportsTheStaleQueue) {
  const SystemConfig config =
      paper_scenario(HeterogeneityCase::kCase1, 16,
                     NetworkArchitecture::kNonBlocking, 1024.0,
                     kPaperTotalNodes, 5e-3);
  const ModelOptions options = flat_options(SourceThrottling::kPicard);
  const LatencyPrediction prediction = predict_latency(config, options);
  EXPECT_FALSE(prediction.fixed_point_converged);
  EXPECT_EQ(prediction.fixed_point_iterations,
            options.fixed_point.max_iterations);
  // The reported queue is not the one at the reported rate.
  EXPECT_NE(prediction.total_queue_length,
            total_queue_length(config, center_service_times(config),
                               prediction.lambda_effective,
                               options.fixed_point));

  Digest digest;
  add_prediction(digest, prediction);
  EXPECT_EQ(digest.value(), 0xfece827b62c1c905u)
      << "actual " << hex(digest.value());
  EXPECT_EQ(prediction.mean_latency_us, 875.30569037069836)
      << "actual " << exact(prediction.mean_latency_us);
}

TEST(AnalyticGolden, ReadableFigureLatencies) {
  // Figure 4 at C = 16, M = 1024 (columns: none, picard, bisection, mva).
  // Unthrottled, the paper's rate saturates a centre.
  constexpr double kExpected[] = {std::numeric_limits<double>::infinity(),
                                  719.43452493759571, 33784.333075196992,
                                  33953.971988795522};
  const SystemConfig config =
      paper_scenario(HeterogeneityCase::kCase1, 16,
                     NetworkArchitecture::kNonBlocking, 1024.0);
  for (std::size_t m = 0; m < 4; ++m) {
    const double latency =
        predict_latency(config, flat_options(kMethods[m])).mean_latency_us;
    EXPECT_EQ(latency, kExpected[m])
        << method_name(kMethods[m]) << ": actual " << exact(latency);
  }
}

// ---------------------------------------------------------------------
// Tree model: the generic recursion (no flat lowering) on the shipped
// heterogeneous-campuses config. Under kExactMva the tree is not
// uniform, so it takes the multi-class AMVA path.

ModelTree campuses() {
  std::ifstream file(std::string(HMCS_SOURCE_DIR) +
                     "/configs/trees/heterogeneous_campuses.json");
  std::stringstream text;
  text << file.rdbuf();
  return load_model_tree(text.str());
}

TreeLatencyPrediction predict_tree(const ModelTree& tree,
                                   SourceThrottling method) {
  TreeModelOptions options;
  options.fixed_point.method = method;
  return predict_model_tree(tree, options);
}

TEST(AnalyticGolden, HeterogeneousTreeUnderEveryMethod) {
  // Columns: none, picard, bisection, mva.
  constexpr std::uint64_t kPins[] = {0x6956008fb858ede2u, 0xfec5bd7403275fedu,
                                     0xcb7bfd87211fec00u, 0xacb274e4b62227a3u};
  constexpr double kMeanLatency[] = {455.11125835090161, 443.14310704605617,
                                     443.14310704581101, 442.31358224025382};
  const ModelTree tree = campuses();
  for (std::size_t m = 0; m < 4; ++m) {
    const TreeLatencyPrediction prediction = predict_tree(tree, kMethods[m]);
    EXPECT_TRUE(prediction.fixed_point_converged) << method_name(kMethods[m]);
    Digest digest;
    add_tree(digest, prediction);
    EXPECT_EQ(digest.value(), kPins[m])
        << method_name(kMethods[m]) << ": actual " << hex(digest.value());
    EXPECT_EQ(prediction.mean_latency_us, kMeanLatency[m])
        << method_name(kMethods[m]) << ": actual "
        << exact(prediction.mean_latency_us);
  }
}

TEST(AnalyticGolden, OverloadedTreeWherePicardDoesNotConverge) {
  // campus-b's compute leaf raised from 75 to 1000 msg/s: Picard
  // oscillates to max_iterations, bisection still converges.
  ModelTree tree = campuses();
  set_tree_path(tree, "root.children[1].children[0].lambda_per_s", 1000.0);

  const TreeLatencyPrediction picard =
      predict_tree(tree, SourceThrottling::kPicard);
  EXPECT_FALSE(picard.fixed_point_converged);
  EXPECT_EQ(picard.fixed_point_iterations, FixedPointOptions{}.max_iterations);
  Digest picard_digest;
  add_tree(picard_digest, picard);
  EXPECT_EQ(picard_digest.value(), 0xc214a1978c6e9230u)
      << "picard: actual " << hex(picard_digest.value());
  EXPECT_EQ(picard.mean_latency_us, 808.94607750491855)
      << "picard: actual " << exact(picard.mean_latency_us);

  const TreeLatencyPrediction bisection =
      predict_tree(tree, SourceThrottling::kBisection);
  EXPECT_TRUE(bisection.fixed_point_converged);
  Digest bisection_digest;
  add_tree(bisection_digest, bisection);
  EXPECT_EQ(bisection_digest.value(), 0x0d203a26be132376u)
      << "bisection: actual " << hex(bisection_digest.value());
}

}  // namespace
