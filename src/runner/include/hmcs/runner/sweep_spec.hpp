#pragma once

/// \file sweep_spec.hpp
/// The declarative sweep description: axes over cluster count, message
/// size, generation rate, network-technology case, and architecture,
/// expanded cartesian or zipped into a flat list of fully built
/// SystemConfigs with deterministic per-point seeds (default_point_seed:
/// every study is seeded one way). Every study in the
/// repo — the paper's Figures 4-7, the ablations, and any config-file
/// sweep run through hmcs_run — is one SweepSpec handed to run_sweep().
///
/// Axis semantics: an empty axis means its single default (Case 1
/// technologies, the paper rate, the paper cluster sweep, M=1024,
/// non-blocking). Cartesian mode nests the axes in the fixed order
///
///   technologies -> lambda -> clusters -> message_bytes -> architectures
///
/// (innermost last), which reproduces the row order of every existing
/// study: figures iterate clusters-major / size-minor, the message-size
/// sweep iterates bytes then architecture, and so on. Zipped mode walks
/// all non-singleton axes in lockstep (they must share one length;
/// singleton axes broadcast).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/system_config.hpp"

namespace hmcs::runner {

/// One point of the technology axis: the three network roles plus a
/// label used in tables and trace tracks.
struct TechnologyCase {
  std::string label;
  analytic::NetworkTechnology icn1;
  analytic::NetworkTechnology ecn1;
  analytic::NetworkTechnology icn2;
};

/// The paper's Table 2 heterogeneity cases as technology-axis points.
TechnologyCase technology_case(analytic::HeterogeneityCase hetero);

enum class AxisMode {
  kCartesian,  ///< full cross product, fixed nesting order (see above)
  kZipped,     ///< lockstep walk; non-singleton axes share one length
};

/// One axis over a node-path field of a tree sweep's base topology
/// (analytic::set_tree_path grammar, e.g.
/// "root.children[1].icn.bandwidth"). Only meaningful when
/// SweepSpec::base_tree is set.
struct PathAxis {
  std::string path;
  std::vector<double> values;
};

struct SweepAxes {
  std::vector<TechnologyCase> technologies;  ///< empty = Case 1
  std::vector<double> lambda_per_us;         ///< empty = paper rate
  std::vector<std::uint32_t> clusters;       ///< empty = paper sweep
  std::vector<double> message_bytes;         ///< empty = {1024}
  std::vector<analytic::NetworkArchitecture> architectures;  ///< empty = {non-blocking}
  /// Flat sweeps only: sweepable workload-distribution axes, nested
  /// innermost (after architectures) in cartesian mode. Empty = the
  /// SweepSpec workload's value. Tree sweeps reject them — set the
  /// topology-wide scenario through SweepSpec::workload instead.
  std::vector<double> service_cv2;
  std::vector<double> arrival_ca2;
  /// Tree sweeps only: per-point overrides applied to copies of
  /// base_tree. Cartesian mode nests them outermost (declaration-order
  /// major) over message_bytes then architectures; zipped mode walks
  /// them in lockstep with the other axes.
  std::vector<PathAxis> node_paths;
};

struct SweepPoint {
  std::size_t index = 0;  ///< position in expansion order
  std::uint32_t clusters = 0;
  double message_bytes = 0.0;
  double lambda_per_us = 0.0;
  analytic::NetworkArchitecture architecture =
      analytic::NetworkArchitecture::kNonBlocking;
  std::size_t technology_index = 0;
  std::string technology_label;
  /// Deterministic per-point seed (default_point_seed over
  /// base_seed/clusters/bytes; tree points fold the point index in place
  /// of clusters); fixed at expansion time so results never depend on
  /// execution scheduling.
  std::uint64_t seed = 1;
  /// Human-readable coordinates, e.g. "fig6 C=8 M=1024"; names trace
  /// tracks and error messages.
  std::string label;
  /// Fully built and validated; for a tree-sweep point whose tree has
  /// the flat two-stage shape, the SystemConfig that tree denotes.
  analytic::SystemConfig config;
  /// Nested tree-sweep points only: the point's topology with its
  /// node-path overrides applied, dispatched through
  /// Backend::predict_tree (`config` is then a default placeholder).
  /// Null for flat sweeps and for flat-shaped trees, which expansion
  /// lowers into `config` — the one place a sweep lowers a tree.
  std::shared_ptr<const analytic::ModelTree> tree;
};

struct SweepSpec {
  std::string id = "sweep";
  std::string title;
  AxisMode mode = AxisMode::kCartesian;
  SweepAxes axes;
  /// N: clusters must divide it (assumption 5: equal-size clusters).
  std::uint32_t total_nodes = analytic::kPaperTotalNodes;
  analytic::SwitchParams switch_params{analytic::kPaperSwitchPorts,
                                       analytic::kPaperSwitchLatencyUs};
  std::uint64_t base_seed = 1;
  /// Fixed workload scenario applied to every point (flat: the config's
  /// scenario; tree: the topology-wide scenario when non-default). The
  /// service_cv2/arrival_ca2 axes override their fields per point.
  analytic::WorkloadScenario workload;
  /// When set, the sweep is a *tree sweep*: every point is a copy of
  /// this topology with the node_paths overrides applied. The flat
  /// shape axes (technologies/lambda/clusters) must stay empty — the
  /// topology owns those properties — while message_bytes and
  /// architectures still apply (they are ModelTree fields).
  /// total_nodes/switch_params are ignored; the tree carries its own.
  std::shared_ptr<const analytic::ModelTree> base_tree;
};

/// Every sweep point's seed (the Figure 4-7 derivation): decorrelates
/// runs across sweep points while keeping the whole sweep reproducible
/// from one base seed.
/// Each coordinate is folded in through a full SplitMix64 finalizer: an
/// affine mix of (seed, clusters, bytes) collides for nearby sweep
/// points and hands highly correlated seeds to adjacent runs. A size
/// below 2^64 folds in truncated to an integer; a larger one (and NaN)
/// folds in its bit pattern.
std::uint64_t default_point_seed(std::uint64_t base_seed,
                                 std::uint32_t clusters,
                                 double message_bytes);

/// Seed for retry attempt `attempt` (1-based) of a cell whose point
/// seed is `point_seed`. Attempt 1 is the point seed itself — a sweep
/// without faults is bit-identical to the pre-retry engine — and each
/// later attempt folds the attempt number through a full SplitMix64
/// finalizer, so retries are decorrelated from the failed run yet
/// deterministic for any thread count (docs/ROBUSTNESS.md).
std::uint64_t retry_point_seed(std::uint64_t point_seed,
                               std::uint32_t attempt);

/// Expands the spec into its flat point list (cartesian or zipped),
/// building and validating every SystemConfig. Throws hmcs::ConfigError
/// on empty expansions, zip length mismatches, a cartesian point count
/// that overflows size_t (checked before any point is built), or
/// invalid configurations (e.g. a cluster count that does not divide
/// total_nodes).
std::vector<SweepPoint> expand_sweep(const SweepSpec& spec);

}  // namespace hmcs::runner
