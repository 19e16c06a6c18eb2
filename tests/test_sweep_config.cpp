// The sweep-config loader: the JSON schema, axis parsing,
// backend construction, unknown-key rejection, and the technology /
// model / architecture vocabularies.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "hmcs/analytic/config_io.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/units.hpp"

namespace {

using namespace hmcs;
using runner::SweepRunConfig;
using runner::sweep_config_from_json;

TEST(SweepConfig, ShippedConfigsLoadAndExpand) {
  // Every config under configs/sweeps/ parses and expands to a grid.
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HMCS_SOURCE_DIR) + "/configs/sweeps")) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    const SweepRunConfig config =
        runner::load_sweep_config(entry.path().string());
    EXPECT_FALSE(runner::expand_sweep(config.spec).empty());
    EXPECT_FALSE(config.backends.empty());
    ++loaded;
  }
  EXPECT_GE(loaded, 8u);
}

TEST(SweepConfig, JsonFullDocument) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "id": "study",
    "title": "a study",
    "mode": "cartesian",
    "total_nodes": 64,
    "seed": 9,
    "threads": 4,
    "axes": {
      "clusters": [2, 4],
      "message_bytes": [256, 1024],
      "lambda_per_s": [250],
      "architecture": ["blocking"],
      "technology": ["case2"]
    },
    "backends": [
      {"type": "analytic", "model": "mva"},
      {"type": "des", "messages": 500, "warmup": 100, "replications": 2}
    ]
  })");
  EXPECT_EQ(config.spec.id, "study");
  EXPECT_EQ(config.spec.title, "a study");
  EXPECT_EQ(config.spec.total_nodes, 64u);
  EXPECT_EQ(config.spec.base_seed, 9u);
  EXPECT_EQ(config.threads, 4u);
  EXPECT_EQ(config.spec.axes.clusters, (std::vector<std::uint32_t>{2, 4}));
  ASSERT_EQ(config.spec.axes.lambda_per_us.size(), 1u);
  EXPECT_DOUBLE_EQ(config.spec.axes.lambda_per_us[0],
                   units::per_s_to_per_us(250.0));
  ASSERT_EQ(config.spec.axes.architectures.size(), 1u);
  EXPECT_EQ(config.spec.axes.architectures[0],
            analytic::NetworkArchitecture::kBlocking);
  ASSERT_EQ(config.spec.axes.technologies.size(), 1u);
  // Case 2 (Table 2): FE intra-cluster, GE everywhere else.
  EXPECT_EQ(config.spec.axes.technologies[0].icn1.name,
            analytic::fast_ethernet().name);
  EXPECT_EQ(config.spec.axes.technologies[0].ecn1.name,
            analytic::gigabit_ethernet().name);
  ASSERT_EQ(config.backends.size(), 2u);
  EXPECT_EQ(config.backends[0]->name(), "analytic");
  EXPECT_EQ(config.backends[1]->name(), "des");
}

TEST(SweepConfig, JsonDefaultsToAnalyticOnly) {
  const SweepRunConfig config = sweep_config_from_json(R"({"id": "s"})");
  ASSERT_EQ(config.backends.size(), 1u);
  EXPECT_EQ(config.backends[0]->name(), "analytic");
  EXPECT_EQ(config.threads, 0u);
  EXPECT_TRUE(config.spec.axes.clusters.empty());  // paper sweep default
}

TEST(SweepConfig, JsonTechnologyObjectAndPresetString) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "axes": {"technology": [
      "myrinet",
      {"label": "mixed", "icn1": "gigabit-ethernet",
       "ecn1": "custom:MyNet,25,120", "icn2": "infiniband"}
    ]}
  })");
  ASSERT_EQ(config.spec.axes.technologies.size(), 2u);
  // A bare preset applies to all three roles.
  EXPECT_EQ(config.spec.axes.technologies[0].icn1.name,
            analytic::myrinet().name);
  EXPECT_EQ(config.spec.axes.technologies[0].icn2.name,
            analytic::myrinet().name);
  EXPECT_EQ(config.spec.axes.technologies[1].label, "mixed");
  EXPECT_EQ(config.spec.axes.technologies[1].ecn1.name, "MyNet");
  EXPECT_DOUBLE_EQ(config.spec.axes.technologies[1].ecn1.latency_us, 25.0);
}

TEST(SweepConfig, JsonRejectsUnknownKeysAtEveryLevel) {
  EXPECT_THROW(sweep_config_from_json(R"({"nope": 1})"), ConfigError);
  EXPECT_THROW(sweep_config_from_json(R"({"axes": {"nope": []}})"),
               ConfigError);
  EXPECT_THROW(sweep_config_from_json(
                   R"({"backends": [{"type": "analytic", "nope": 1}]})"),
               ConfigError);
  EXPECT_THROW(
      sweep_config_from_json(R"({"axes": {"technology": [{"nope": "x"}]}})"),
      ConfigError);
}

TEST(SweepConfig, JsonRejectsBadValues) {
  EXPECT_THROW(sweep_config_from_json(R"({"mode": "diagonal"})"),
               ConfigError);
  EXPECT_THROW(sweep_config_from_json(R"({"seed": -1})"), ConfigError);
  EXPECT_THROW(sweep_config_from_json(R"({"axes": {"clusters": [0]}})"),
               ConfigError);
  EXPECT_THROW(
      sweep_config_from_json(R"({"backends": [{"type": "quantum"}]})"),
      ConfigError);
  EXPECT_THROW(sweep_config_from_json(
                   R"({"backends": [{"type": "analytic", "model": "x"}]})"),
               ConfigError);
}

TEST(SweepConfig, JsonTreeSweepExpandsPathAxes) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "id": "smoke_tree",
    "tree": {
      "tree": {
        "network": "fast-ethernet",
        "children": [
          {"network": "gigabit-ethernet", "egress": "fast-ethernet",
           "children": [{"processors": 16, "lambda_per_s": 100},
                        {"processors": 8, "lambda_per_s": 50}]},
          {"network": "gigabit-ethernet", "egress": "fast-ethernet",
           "children": [{"processors": 32, "lambda_per_s": 75}]}
        ]
      },
      "message_bytes": 1024
    },
    "axes": {
      "paths": [{"path": "root.children[1].icn.bandwidth",
                 "values": [125, 1250]}],
      "message_bytes": [512, 1024]
    },
    "backends": [{"type": "analytic"}]
  })");
  ASSERT_NE(config.spec.base_tree, nullptr);
  ASSERT_EQ(config.spec.axes.node_paths.size(), 1u);
  EXPECT_EQ(config.spec.axes.node_paths[0].path,
            "root.children[1].icn.bandwidth");

  const std::vector<runner::SweepPoint> points =
      runner::expand_sweep(config.spec);
  ASSERT_EQ(points.size(), 4u);  // 2 path values x 2 message sizes
  for (const auto& point : points) {
    ASSERT_NE(point.tree, nullptr);
    EXPECT_EQ(point.tree->total_processors(), 56u);
  }
  // Path axis is outermost; message_bytes varies fastest.
  EXPECT_EQ(analytic::tree_path_value(*points[0].tree,
                                      "root.children[1].icn.bandwidth"),
            125.0);
  EXPECT_EQ(points[0].tree->message_bytes, 512.0);
  EXPECT_EQ(points[1].tree->message_bytes, 1024.0);
  EXPECT_EQ(analytic::tree_path_value(*points[2].tree,
                                      "root.children[1].icn.bandwidth"),
            1250.0);
}

TEST(SweepConfig, TreeSweepRejectsShapeAxesAndOrphanPaths) {
  // The topology owns technology/lambda/clusters; those axes cannot
  // combine with a "tree", and path axes are meaningless without one.
  // The combination rules apply at expansion (the loader only parses).
  const SweepRunConfig tree_with_clusters = sweep_config_from_json(R"({
    "tree": {"tree": {"network": "fast-ethernet",
                      "children": [{"processors": 4, "lambda_per_s": 100},
                                   {"processors": 4, "lambda_per_s": 100}]}},
    "axes": {"clusters": [2, 4]}
  })");
  EXPECT_THROW(runner::expand_sweep(tree_with_clusters.spec), ConfigError);

  const SweepRunConfig paths_without_tree = sweep_config_from_json(R"({
    "axes": {"paths": [{"path": "root.icn.bandwidth", "values": [125]}]}
  })");
  EXPECT_THROW(runner::expand_sweep(paths_without_tree.spec), ConfigError);

  // A path axis without values is malformed at parse time.
  EXPECT_THROW(sweep_config_from_json(R"({
    "axes": {"paths": [{"path": "root.icn.bandwidth"}]}
  })"),
               ConfigError);
}

TEST(SweepConfig, JsonWorkloadAndDistributionAxes) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "id": "heavy",
    "total_nodes": 32,
    "workload": {"failure": {"mtbf_us": 1e6, "mttr_us": 1e3}},
    "axes": {
      "clusters": [2],
      "service_cv2": [0.0, 1.0, 4.0],
      "arrival_ca2": [1.0, 2.0]
    }
  })");
  ASSERT_TRUE(config.spec.workload.failure.has_value());
  EXPECT_DOUBLE_EQ(config.spec.workload.failure->mtbf_us, 1e6);
  EXPECT_EQ(config.spec.axes.service_cv2,
            (std::vector<double>{0.0, 1.0, 4.0}));
  EXPECT_EQ(config.spec.axes.arrival_ca2, (std::vector<double>{1.0, 2.0}));

  const auto points = runner::expand_sweep(config.spec);
  ASSERT_EQ(points.size(), 6u);  // 3 cv2 x 2 ca2, nested innermost
  // ca2 varies fastest; every point keeps the fixed failure scenario.
  EXPECT_DOUBLE_EQ(points[0].config.scenario.service_cv2, 0.0);
  EXPECT_DOUBLE_EQ(points[0].config.scenario.arrival_ca2, 1.0);
  EXPECT_DOUBLE_EQ(points[1].config.scenario.arrival_ca2, 2.0);
  EXPECT_DOUBLE_EQ(points[5].config.scenario.service_cv2, 4.0);
  for (const auto& point : points) {
    ASSERT_TRUE(point.config.scenario.failure.has_value());
    EXPECT_DOUBLE_EQ(point.config.scenario.failure->mttr_us, 1e3);
  }
  // Multi-valued axes label their coordinates.
  EXPECT_NE(points[0].label.find("cv2="), std::string::npos);
  EXPECT_NE(points[0].label.find("ca2="), std::string::npos);
}

TEST(SweepConfig, JsonWorkloadMmppAppliesToEveryPoint) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "id": "bursty",
    "total_nodes": 32,
    "workload": {"mmpp": {"burst_ratio": 6.0, "burst_fraction": 0.2,
                          "burst_dwell_us": 500.0}},
    "axes": {"clusters": [2, 4]}
  })");
  const auto points = runner::expand_sweep(config.spec);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    ASSERT_TRUE(point.config.scenario.mmpp.has_value());
    EXPECT_DOUBLE_EQ(point.config.scenario.mmpp->burst_ratio, 6.0);
  }
}

TEST(SweepConfig, TreeSweepRejectsDistributionAxesButTakesFixedWorkload) {
  // The axes are flat-only; a tree sweep takes the topology-wide
  // scenario through the fixed "workload" instead.
  const SweepRunConfig with_axis = sweep_config_from_json(R"({
    "tree": {"tree": {"network": "fast-ethernet",
                      "children": [{"processors": 4, "lambda_per_s": 100},
                                   {"processors": 4, "lambda_per_s": 100}]}},
    "axes": {"service_cv2": [0.0, 4.0]}
  })");
  EXPECT_THROW(runner::expand_sweep(with_axis.spec), ConfigError);

  const SweepRunConfig fixed = sweep_config_from_json(R"({
    "tree": {"tree": {"network": "fast-ethernet",
                      "children": [{"processors": 4, "lambda_per_s": 100},
                                   {"processors": 4, "lambda_per_s": 100}]}},
    "workload": {"service_cv2": 4.0}
  })");
  const auto points = runner::expand_sweep(fixed.spec);
  ASSERT_FALSE(points.empty());
  ASSERT_NE(points[0].tree, nullptr);
  EXPECT_DOUBLE_EQ(points[0].tree->scenario.service_cv2, 4.0);
}

TEST(SweepConfig, JsonRejectsBadWorkloadValues) {
  EXPECT_THROW(sweep_config_from_json(R"({"workload": {"service_cv2": -1}})"),
               ConfigError);
  EXPECT_THROW(sweep_config_from_json(
                   R"({"workload": {"arrival_ca2": 2.0,
                                    "mmpp": {"burst_ratio": 2.0}}})"),
               ConfigError);
  // Axis values are validated when points are built, like every axis.
  const SweepRunConfig bad_axis = sweep_config_from_json(
      R"({"total_nodes": 32, "axes": {"clusters": [2],
                                      "service_cv2": [-1]}})");
  EXPECT_THROW(runner::expand_sweep(bad_axis.spec), ConfigError);
}

TEST(SweepConfig, JsonFaultTolerancePolicy) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "id": "s",
    "on_error": "collect-all",
    "max_attempts": 3,
    "cell_deadline_ms": 60000,
    "degraded_utilization": 0.999
  })");
  EXPECT_EQ(config.on_error, runner::FailurePolicy::kCollectAll);
  EXPECT_EQ(config.max_attempts, 3u);
  EXPECT_DOUBLE_EQ(config.cell_deadline_ms, 60000.0);
  EXPECT_DOUBLE_EQ(config.degraded_utilization, 0.999);

  // Defaults preserve the historical semantics.
  const SweepRunConfig plain = sweep_config_from_json(R"({"id": "s"})");
  EXPECT_EQ(plain.on_error, runner::FailurePolicy::kFailFast);
  EXPECT_EQ(plain.max_attempts, 1u);
  EXPECT_DOUBLE_EQ(plain.cell_deadline_ms, 0.0);
  EXPECT_DOUBLE_EQ(plain.degraded_utilization, 1.0);
}

TEST(SweepConfig, JsonRejectsBadFaultToleranceValues) {
  EXPECT_THROW(sweep_config_from_json(R"({"on_error": "explode"})"),
               ConfigError);
  EXPECT_THROW(sweep_config_from_json(R"({"max_attempts": 0})"), ConfigError);
  EXPECT_THROW(sweep_config_from_json(R"({"cell_deadline_ms": -1})"),
               ConfigError);
  EXPECT_THROW(sweep_config_from_json(R"({"degraded_utilization": 0})"),
               ConfigError);
}

TEST(SweepConfig, ParseFailurePolicyVocabulary) {
  EXPECT_EQ(runner::parse_failure_policy("fail-fast"),
            runner::FailurePolicy::kFailFast);
  EXPECT_EQ(runner::parse_failure_policy("collect-all"),
            runner::FailurePolicy::kCollectAll);
  EXPECT_THROW(runner::parse_failure_policy("retry"), ConfigError);
}

TEST(SweepConfig, ZippedModeRoundTrips) {
  const SweepRunConfig config = sweep_config_from_json(R"({
    "mode": "zipped",
    "axes": {"clusters": [2, 4, 8], "message_bytes": [64, 256, 1024]}
  })");
  const auto points = runner::expand_sweep(config.spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].clusters, 8u);
  EXPECT_DOUBLE_EQ(points[2].message_bytes, 1024.0);
}

TEST(SweepConfig, ParseThrottlingModelVocabulary) {
  EXPECT_EQ(runner::parse_throttling_model("bisection"),
            analytic::SourceThrottling::kBisection);
  EXPECT_EQ(runner::parse_throttling_model("picard"),
            analytic::SourceThrottling::kPicard);
  EXPECT_EQ(runner::parse_throttling_model("mva"),
            analytic::SourceThrottling::kExactMva);
  EXPECT_EQ(runner::parse_throttling_model("none"),
            analytic::SourceThrottling::kNone);
  EXPECT_THROW(runner::parse_throttling_model("magic"), ConfigError);
}

TEST(SweepConfig, ParseTechnologyPresetsAndCustomRoundTrip) {
  EXPECT_EQ(analytic::parse_technology("gigabit-ethernet").name,
            analytic::gigabit_ethernet().name);
  EXPECT_EQ(analytic::parse_technology("infiniband").name,
            analytic::infiniband().name);
  const analytic::NetworkTechnology custom =
      analytic::parse_technology("custom:Lab,12.5,800");
  EXPECT_EQ(custom.name, "Lab");
  EXPECT_DOUBLE_EQ(custom.latency_us, 12.5);
  EXPECT_DOUBLE_EQ(custom.bandwidth_bytes_per_us,
                   units::mbps_to_bytes_per_us(800.0));
  EXPECT_THROW(analytic::parse_technology("token-ring"), ConfigError);
  EXPECT_THROW(analytic::parse_technology("custom:Lab,12.5"), ConfigError);
}

TEST(SweepConfig, ParseArchitectureVocabulary) {
  EXPECT_EQ(analytic::parse_architecture("non-blocking"),
            analytic::NetworkArchitecture::kNonBlocking);
  EXPECT_EQ(analytic::parse_architecture("fat-tree"),
            analytic::NetworkArchitecture::kNonBlocking);
  EXPECT_EQ(analytic::parse_architecture("blocking"),
            analytic::NetworkArchitecture::kBlocking);
  EXPECT_EQ(analytic::parse_architecture("chain"),
            analytic::NetworkArchitecture::kBlocking);
  EXPECT_THROW(analytic::parse_architecture("mesh"), ConfigError);
}

}  // namespace
