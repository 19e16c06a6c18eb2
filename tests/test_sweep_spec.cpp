// Declarative sweep expansion: axis defaulting, cartesian nesting
// order, zipped lockstep, labels, the deterministic seed chain, the
// point-count bound, and the texts of the checks expansion and the
// tree and JSON readers run.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/runner/sweep_spec.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/string_util.hpp"

namespace {

using namespace hmcs;
using runner::AxisMode;
using runner::SweepPoint;
using runner::SweepSpec;
using runner::expand_sweep;

TEST(SweepSpec, EmptyAxesExpandToPaperDefaults) {
  const std::vector<SweepPoint> points = expand_sweep(SweepSpec{});
  std::size_t count = 0;
  const std::uint32_t* sweep = analytic::paper_cluster_sweep(&count);
  ASSERT_EQ(points.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].clusters, sweep[i]);
    EXPECT_DOUBLE_EQ(points[i].message_bytes, 1024.0);
    EXPECT_DOUBLE_EQ(points[i].lambda_per_us, analytic::kPaperRatePerUs);
    EXPECT_EQ(points[i].architecture,
              analytic::NetworkArchitecture::kNonBlocking);
    EXPECT_EQ(points[i].technology_label,
              analytic::to_string(analytic::HeterogeneityCase::kCase1));
    // Case 1 (Table 2): GE intra-cluster, FE everywhere else.
    EXPECT_EQ(points[i].config.icn1.name, analytic::gigabit_ethernet().name);
    EXPECT_EQ(points[i].config.ecn1.name, analytic::fast_ethernet().name);
    EXPECT_EQ(points[i].config.icn2.name, analytic::fast_ethernet().name);
  }
}

TEST(SweepSpec, CartesianOrderIsClustersMajorSizeMinor) {
  SweepSpec spec;
  spec.axes.clusters = {2, 4};
  spec.axes.message_bytes = {1024.0, 512.0};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].clusters, 2u);
  EXPECT_DOUBLE_EQ(points[0].message_bytes, 1024.0);
  EXPECT_EQ(points[1].clusters, 2u);
  EXPECT_DOUBLE_EQ(points[1].message_bytes, 512.0);
  EXPECT_EQ(points[2].clusters, 4u);
  EXPECT_DOUBLE_EQ(points[2].message_bytes, 1024.0);
  EXPECT_EQ(points[3].clusters, 4u);
  EXPECT_DOUBLE_EQ(points[3].message_bytes, 512.0);
}

TEST(SweepSpec, ConfigIsFullyBuilt) {
  SweepSpec spec;
  spec.axes.clusters = {8};
  spec.total_nodes = 64;
  spec.axes.architectures = {analytic::NetworkArchitecture::kBlocking};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].config.clusters, 8u);
  EXPECT_EQ(points[0].config.nodes_per_cluster, 8u);
  EXPECT_EQ(points[0].config.architecture,
            analytic::NetworkArchitecture::kBlocking);
  EXPECT_EQ(points[0].config.switch_params.ports, analytic::kPaperSwitchPorts);
}

TEST(SweepSpec, LabelIsFigureStyleForSingletonExtras) {
  SweepSpec spec;
  spec.id = "fig6";
  spec.axes.clusters = {16};
  spec.axes.message_bytes = {512.0};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "fig6 C=16 M=512");
}

TEST(SweepSpec, LabelGrowsSuffixesForVaryingExtras) {
  SweepSpec spec;
  spec.id = "s";
  spec.axes.clusters = {4};
  spec.axes.architectures = {analytic::NetworkArchitecture::kNonBlocking,
                             analytic::NetworkArchitecture::kBlocking};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label,
            std::string("s C=4 M=1024 ") +
                analytic::to_string(
                    analytic::NetworkArchitecture::kNonBlocking));
  EXPECT_EQ(points[1].label,
            std::string("s C=4 M=1024 ") +
                analytic::to_string(analytic::NetworkArchitecture::kBlocking));
}

TEST(SweepSpec, DefaultSeedMatchesSplitMixChain) {
  // The figures' historical derivation, kept bit-exact.
  simcore::SplitMix64 seed_mix(3);
  simcore::SplitMix64 cluster_mix(seed_mix.next() ^ 8u);
  simcore::SplitMix64 byte_mix(cluster_mix.next() ^
                               static_cast<std::uint64_t>(512.0));
  const std::uint64_t expected = byte_mix.next();
  EXPECT_EQ(runner::default_point_seed(3, 8, 512.0), expected);

  SweepSpec spec;
  spec.base_seed = 3;
  spec.axes.clusters = {8};
  spec.axes.message_bytes = {512.0};
  EXPECT_EQ(expand_sweep(spec)[0].seed, expected);
}

TEST(SweepSpec, ZippedWalksAxesInLockstep) {
  SweepSpec spec;
  spec.mode = AxisMode::kZipped;
  spec.axes.clusters = {2, 4, 8};
  spec.axes.message_bytes = {64.0, 256.0, 1024.0};
  spec.axes.architectures = {analytic::NetworkArchitecture::kBlocking};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(points[i].clusters, spec.axes.clusters[i]);
    EXPECT_DOUBLE_EQ(points[i].message_bytes, spec.axes.message_bytes[i]);
    // The singleton architecture axis broadcasts.
    EXPECT_EQ(points[i].architecture,
              analytic::NetworkArchitecture::kBlocking);
  }
}

TEST(SweepSpec, ZippedRejectsLengthMismatch) {
  SweepSpec spec;
  spec.mode = AxisMode::kZipped;
  spec.axes.clusters = {2, 4, 8};
  spec.axes.message_bytes = {64.0, 256.0};
  EXPECT_THROW(expand_sweep(spec), ConfigError);
}

TEST(SweepSpec, RejectsClustersNotDividingTotalNodes) {
  SweepSpec spec;
  spec.axes.clusters = {3};  // 256 % 3 != 0
  EXPECT_THROW(expand_sweep(spec), ConfigError);
}

TEST(SweepSpec, SeedFoldsSizesPastTwoToThe64ByBitPattern) {
  // Below 2^64 the size folds in truncated, as it always has; at and
  // past 2^64 that cast is undefined, so the bit pattern folds in.
  const auto chain = [](std::uint64_t base, std::uint32_t clusters,
                        std::uint64_t bytes) {
    simcore::SplitMix64 seed_mix(base);
    simcore::SplitMix64 cluster_mix(seed_mix.next() ^ clusters);
    simcore::SplitMix64 byte_mix(cluster_mix.next() ^ bytes);
    return byte_mix.next();
  };
  const double below = std::nextafter(0x1p64, 0.0);
  EXPECT_EQ(runner::default_point_seed(5, 4, below),
            chain(5, 4, static_cast<std::uint64_t>(below)));
  EXPECT_EQ(runner::default_point_seed(5, 4, 0x1p64),
            chain(5, 4, std::bit_cast<std::uint64_t>(0x1p64)));
  EXPECT_EQ(runner::default_point_seed(5, 4, 1e20),
            chain(5, 4, std::bit_cast<std::uint64_t>(1e20)));

  // A finite size > 0 passes validation, so a sweep may carry it.
  SweepSpec spec;
  spec.base_seed = 5;
  spec.axes.clusters = {4};
  spec.axes.message_bytes = {1e20, 0x1p64};
  const std::vector<SweepPoint> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].seed, runner::default_point_seed(5, 4, 1e20));
  EXPECT_EQ(points[1].seed, runner::default_point_seed(5, 4, 0x1p64));
  EXPECT_NE(points[0].seed, points[1].seed);
}

/// "<file>:<line>: <message>" -> "<message>".
std::string message_of(const std::string& what) {
  const std::size_t colon = what.find(':');
  const std::size_t start = what.find(": ", colon + 1);
  return start == std::string::npos ? what : what.substr(start + 2);
}

std::string config_error_text(const std::function<void()>& body) {
  try {
    body();
  } catch (const ConfigError& error) {
    return message_of(error.what());
  }
  return "(no ConfigError)";
}

/// A Case 1 depth-2 tree of `clusters` clusters of four processors.
std::shared_ptr<const analytic::ModelTree> case1_tree(std::uint32_t clusters) {
  const runner::TechnologyCase tech =
      runner::technology_case(analytic::HeterogeneityCase::kCase1);
  analytic::SystemConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = 4;
  config.icn1 = tech.icn1;
  config.ecn1 = tech.ecn1;
  config.icn2 = tech.icn2;
  return std::make_shared<const analytic::ModelTree>(
      analytic::ModelTree::from_system(config));
}

TEST(SweepSpec, CartesianPointCountOverflowIsConfigError) {
  // 65,536^4 = 2^64 points: the count wraps to 0 in 64 bits. The check
  // runs before any point is built.
  SweepSpec spec;
  spec.id = "huge";
  for (std::uint32_t i = 0; i < 65536; ++i) {
    spec.axes.clusters.push_back(1);
    spec.axes.message_bytes.push_back(1024.0);
    spec.axes.lambda_per_us.push_back(1e-4);
    spec.axes.service_cv2.push_back(1.0);
  }
  EXPECT_EQ(config_error_text([&] { expand_sweep(spec); }),
            "sweep 'huge': the product of its axis sizes overflows");

  // Zipped axes do not multiply: four 4-value axes are 4 points.
  spec.axes.clusters.resize(4);
  spec.axes.message_bytes.resize(4);
  spec.axes.lambda_per_us.resize(4);
  spec.axes.service_cv2.resize(4);
  spec.mode = AxisMode::kZipped;
  EXPECT_EQ(expand_sweep(spec).size(), 4u);
}

TEST(SweepSpec, TreePathAxisProductOverflowIsConfigError) {
  SweepSpec spec;
  spec.id = "huge_tree";
  spec.base_tree = case1_tree(2);
  for (int p = 0; p < 4; ++p) {
    runner::PathAxis axis;
    axis.path = "root.children[0].icn.latency_us";
    axis.values.assign(65536, 1.0);
    spec.axes.node_paths.push_back(std::move(axis));
  }
  EXPECT_EQ(config_error_text([&] { expand_sweep(spec); }),
            "sweep 'huge_tree': the product of its axis sizes overflows");
}

/// A deterministic stream of draws for the randomized label check.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : mix_(seed) {}
  std::size_t below(std::size_t n) { return mix_.next() % n; }
  bool coin() { return below(2) == 1; }
  /// Log-uniform in [1e-3, 1e7], so %g switches between fixed and
  /// exponent notation; every fourth draw is a short round number.
  double number() {
    if (below(4) == 0) return static_cast<double>(below(2000) + 1);
    const double unit =
        static_cast<double>(mix_.next() >> 11) * 0x1p-53;  // [0, 1)
    return std::pow(10.0, -3.0 + 10.0 * unit);
  }
  std::vector<double> numbers(std::size_t n) {
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) values.push_back(number());
    return values;
  }

 private:
  simcore::SplitMix64 mix_;
};

/// A point's label as expansion built it one point at a time: the core
/// per point, plus a suffix per non-singleton extra axis. Every axis of
/// `spec` is set.
std::string flat_label(const SweepSpec& spec, const SweepPoint& point) {
  const runner::SweepAxes& axes = spec.axes;
  std::string label = spec.id + " C=" + std::to_string(point.clusters) +
                      " M=" + format_compact(point.message_bytes, 6);
  if (axes.technologies.size() > 1) label += " " + point.technology_label;
  if (axes.lambda_per_us.size() > 1) {
    label += " lambda=" + format_compact(point.lambda_per_us, 6);
  }
  if (axes.architectures.size() > 1) {
    label += std::string(" ") + analytic::to_string(point.architecture);
  }
  if (axes.service_cv2.size() > 1) {
    label += " cv2=" + format_compact(point.config.scenario.service_cv2, 6);
  }
  if (axes.arrival_ca2.size() > 1) {
    label += " ca2=" + format_compact(point.config.scenario.arrival_ca2, 6);
  }
  return label;
}

TEST(SweepSpec, LabelsMatchPerPointFormattingOnRandomSweeps) {
  Draws draws(20261018);
  const std::uint32_t divisors[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::size_t checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SweepSpec spec;
    spec.id = "r";
    spec.id += std::to_string(trial);
    spec.mode = draws.coin() ? AxisMode::kZipped : AxisMode::kCartesian;
    // Zipped axes share one length; cartesian axes draw their own.
    const std::size_t zipped = 1 + draws.below(4);
    const auto length = [&] {
      const std::size_t n = spec.mode == AxisMode::kZipped ? zipped
                                                           : 1 + draws.below(3);
      return draws.coin() ? std::size_t{1} : n;
    };
    for (std::size_t i = 0, n = length(); i < n; ++i) {
      spec.axes.clusters.push_back(divisors[draws.below(9)]);
    }
    spec.axes.message_bytes = draws.numbers(length());
    spec.axes.lambda_per_us = draws.numbers(length());
    spec.axes.service_cv2 = draws.numbers(length());
    spec.axes.arrival_ca2 = draws.numbers(length());
    for (std::size_t i = 0, n = length(); i < n; ++i) {
      spec.axes.architectures.push_back(
          draws.coin() ? analytic::NetworkArchitecture::kBlocking
                       : analytic::NetworkArchitecture::kNonBlocking);
    }
    for (std::size_t i = 0, n = length(); i < n; ++i) {
      spec.axes.technologies.push_back(runner::technology_case(
          draws.coin() ? analytic::HeterogeneityCase::kCase1
                       : analytic::HeterogeneityCase::kCase2));
    }
    const std::vector<SweepPoint> points = expand_sweep(spec);
    ASSERT_FALSE(points.empty());
    for (const SweepPoint& point : points) {
      EXPECT_EQ(point.label, flat_label(spec, point)) << spec.id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 200u);
}

/// A tree sweep's labels in expansion order, each built one point at a
/// time from its axis values. Every axis of `spec` is set.
std::vector<std::string> tree_labels(const SweepSpec& spec) {
  const std::vector<runner::PathAxis>& paths = spec.axes.node_paths;
  const std::vector<double>& bytes = spec.axes.message_bytes;
  const std::vector<analytic::NetworkArchitecture>& archs =
      spec.axes.architectures;
  std::vector<std::size_t> choice(paths.size(), 0);
  std::vector<std::string> labels;
  const auto add = [&](std::size_t m, std::size_t a) {
    std::string label = spec.id + " tree M=" + format_compact(bytes[m], 6);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (paths[p].values.size() <= 1) continue;
      label += " " + paths[p].path + "=" +
               format_compact(paths[p].values[choice[p]], 6);
    }
    if (archs.size() > 1) {
      label += std::string(" ") + analytic::to_string(archs[a]);
    }
    labels.push_back(label);
  };
  if (spec.mode == AxisMode::kCartesian) {
    std::size_t combos = 1;
    for (const runner::PathAxis& axis : paths) combos *= axis.values.size();
    for (std::size_t k = 0; k < combos; ++k) {
      std::size_t rest = k;  // the last path axis varies fastest
      for (std::size_t p = paths.size(); p > 0; --p) {
        choice[p - 1] = rest % paths[p - 1].values.size();
        rest /= paths[p - 1].values.size();
      }
      for (std::size_t m = 0; m < bytes.size(); ++m) {
        for (std::size_t a = 0; a < archs.size(); ++a) add(m, a);
      }
    }
    return labels;
  }
  std::size_t length = std::max(bytes.size(), archs.size());
  for (const runner::PathAxis& axis : paths) {
    length = std::max(length, axis.values.size());
  }
  const auto pick = [](std::size_t size, std::size_t i) {
    return size == 1 ? 0 : i;
  };
  for (std::size_t i = 0; i < length; ++i) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      choice[p] = pick(paths[p].values.size(), i);
    }
    add(pick(bytes.size(), i), pick(archs.size(), i));
  }
  return labels;
}

TEST(SweepSpec, TreeLabelsMatchPerPointFormattingOnRandomSweeps) {
  const auto base = case1_tree(3);
  const char* const fields[] = {"root.icn.latency_us",
                                "root.children[1].icn.bandwidth",
                                "root.children[2].egress.latency_us",
                                "root.children[0].children[0].lambda_per_s"};
  Draws draws(7);
  std::size_t checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    SweepSpec spec;
    spec.id = "t";
    spec.id += std::to_string(trial);
    spec.base_tree = base;
    spec.mode = draws.coin() ? AxisMode::kZipped : AxisMode::kCartesian;
    const std::size_t zipped = 1 + draws.below(4);
    const auto length = [&] {
      const std::size_t n = spec.mode == AxisMode::kZipped ? zipped
                                                           : 1 + draws.below(3);
      return draws.coin() ? std::size_t{1} : n;
    };
    for (const char* field : fields) {
      if (draws.coin()) continue;
      spec.axes.node_paths.push_back({field, draws.numbers(length())});
    }
    spec.axes.message_bytes = draws.numbers(length());
    for (std::size_t i = 0, n = length(); i < n; ++i) {
      spec.axes.architectures.push_back(
          draws.coin() ? analytic::NetworkArchitecture::kBlocking
                       : analytic::NetworkArchitecture::kNonBlocking);
    }
    const std::vector<SweepPoint> points = expand_sweep(spec);
    const std::vector<std::string> labels = tree_labels(spec);
    ASSERT_EQ(points.size(), labels.size()) << spec.id;
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].label, labels[i]) << spec.id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(SweepSpec, ChecksKeepTheirMessages) {
  // Every check that builds its message only on failure, with the text
  // it has always had (after the "<file>:<line>: " prefix).
  const analytic::ModelTree tree = *case1_tree(2);
  const auto set = [&](const char* path, double value) {
    return [&tree, path, value] {
      analytic::ModelTree copy = tree;
      analytic::set_tree_path(copy, path, value);
    };
  };
  const auto get = [&](const char* path) {
    return [&tree, path] { analytic::tree_path_value(tree, path); };
  };
  const auto invalid_tree = [&](auto&& edit) {
    return [&tree, edit] {
      analytic::ModelTree copy = tree;
      edit(copy);
      copy.validate();
    };
  };
  const auto flat_sweep = [](std::uint32_t clusters) {
    return [clusters] {
      SweepSpec spec;
      spec.id = "t";
      spec.axes.clusters = {clusters};
      expand_sweep(spec);
    };
  };
  const auto load_tree = [](std::string text) {
    return [text] { analytic::load_model_tree(text, "w"); };
  };
  const auto tech = [](double latency, double bandwidth) {
    return [latency, bandwidth] {
      analytic::validate(analytic::NetworkTechnology{"X", latency, bandwidth});
    };
  };
  const std::string leaf =
      R"({"processors": 2})";
  const std::string cluster =
      R"({"network": "fast-ethernet", "egress": "fast-ethernet", )"
      R"("children": [)" + leaf + "]}";
  const std::string tree_with_child =
      R"({"tree": {"network": "fast-ethernet", "children": [)";
  const std::vector<std::pair<std::function<void()>, std::string>> cases = {
      {flat_sweep(0), "sweep 't': clusters must be >= 1"},
      {flat_sweep(3),
       "sweep 't': clusters=3 must divide total_nodes=256 (assumption 5: "
       "equal-size clusters)"},
      {tech(-1.0, 10.0), "NetworkTechnology 'X': latency must be >= 0"},
      {tech(1.0, 0.0), "NetworkTechnology 'X': bandwidth must be > 0"},
      {invalid_tree([](analytic::ModelTree& t) {
         t.root.children[1].children[0].processors = 0;
       }),
       "ModelTree: leaf 'root.children[1].children[0]' needs >= 1 "
       "processors"},
      {invalid_tree([](analytic::ModelTree& t) {
         t.root.children[0].children[0].generation_rate_per_us = -1.0;
       }),
       "ModelTree: leaf 'root.children[0].children[0]' needs a finite "
       "generation rate >= 0"},
      {get("bogus.icn.latency_us"),
       "tree path 'bogus.icn.latency_us' must start with 'root'"},
      {get("root.children["), "tree path 'root.children[': malformed child "
                              "index"},
      {get("root.children[x].processors"),
       "tree path 'root.children[x].processors': malformed child index"},
      {get("root.children[99999999999].processors"),
       "tree path 'root.children[99999999999].processors': child index out "
       "of range"},
      {get("root.children[7].processors"),
       "tree path 'root.children[7].processors': child index 7 out of range "
       "(node has 2 children)"},
      {get("root"),
       "tree path 'root' needs a field (e.g. .icn.latency_us)"},
      {get("root."), "tree path 'root.' needs a field"},
      {get("root.children[0].children[0].icn.latency_us"),
       "tree path 'root.children[0].children[0].icn.latency_us': leaf nodes "
       "have no 'icn'"},
      {get("root.children[0].children[0].egress.bandwidth"),
       "tree path 'root.children[0].children[0].egress.bandwidth': leaf "
       "nodes have no 'egress'"},
      {get("root.egress.latency_us"),
       "tree path 'root.egress.latency_us': the root has no egress"},
      {get("root.icn.colour"),
       "tree path 'root.icn.colour': unknown technology field 'colour'"},
      {get("root.processors"),
       "tree path 'root.processors': 'processors' needs a leaf"},
      {get("root.lambda_per_s"),
       "tree path 'root.lambda_per_s': generation rate needs a leaf"},
      {get("root.colour"), "tree path 'root.colour': unknown field 'colour'"},
      {set("root.icn.latency_us", std::nan("")),
       "tree path 'root.icn.latency_us': value must be finite"},
      {set("root.processors", 2.0),
       "tree path 'root.processors': 'processors' needs a leaf"},
      {set("root.children[0].children[0].processors", 1.5),
       "tree path 'root.children[0].children[0].processors': 'processors' "
       "needs a positive integer"},
      {set("root.generation_rate_per_us", 1.0),
       "tree path 'root.generation_rate_per_us': generation rate needs a "
       "leaf"},
      {set("root.children[1].children[0].lambda_per_s", -1.0),
       "tree path 'root.children[1].children[0].lambda_per_s': generation "
       "rate must be >= 0"},
      {set("root.children[1].colour", 1.0),
       "tree path 'root.children[1].colour': unknown field 'colour'"},
      {load_tree(R"({"tree": {"network": 5, "children": [{"processors": 1}]}})"),
       "tree config: a technology at root.network must be a preset/custom "
       "string or an object"},
      {load_tree(tree_with_child + "5]}}"),
       "tree config: node at root.children[0] must be an object"},
      {load_tree(tree_with_child + R"({"processors": 0}]}})"),
       "tree config: leaf at root.children[0] needs 'processors' >= 1"},
      {load_tree(tree_with_child + R"({"egress": "myrinet", "children": [)" +
                 leaf + "]}]}}"),
       "tree config: internal node at root.children[0] needs a 'network'"},
      {load_tree(tree_with_child + R"({"network": "myrinet", "children": [)" +
                 leaf + "]}]}}"),
       "tree config: internal node at root.children[0] needs an 'egress'"},
      {load_tree(R"({"tree": {"network": "myrinet", "children": []}})"),
       "tree config: internal node at root needs a non-empty 'children' "
       "array"},
      {load_tree("5"), "tree config: w must be an object"},
      {load_tree("{}"), "tree config: w needs a 'tree'"},
      {[] { parse_json(R"({"a": 1})").at("b"); },
       "JsonValue: missing object member 'b'"},
      {[] {
         SweepSpec spec;
         spec.id = "resumed";
         spec.axes.clusters = {4};
         const auto backend = std::make_shared<runner::AnalyticBackend>();
         runner::SweepJournal journal;
         journal.id = spec.id;
         journal.points = 1;
         journal.backend_names = {backend->name()};
         journal.cells = {runner::PointResult{}};
         journal.seeds = {expand_sweep(spec)[0].seed + 1};
         runner::RunnerOptions options;
         options.resume = &journal;
         runner::run_sweep(spec, {backend}, options);
       },
       "run_sweep: resume journal seed mismatch at cell 0 (journal from a "
       "different spec?)"},
  };
  for (const auto& [body, expected] : cases) {
    EXPECT_EQ(config_error_text(body), expected);
  }
  // The tree strings above are well-formed apart from the one defect.
  EXPECT_NO_THROW(load_tree(tree_with_child + cluster + "]}}")());
}

}  // namespace
