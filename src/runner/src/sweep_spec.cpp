#include "hmcs/runner/sweep_spec.hpp"

#include <algorithm>

#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/string_util.hpp"

namespace hmcs::runner {

TechnologyCase technology_case(analytic::HeterogeneityCase hetero) {
  TechnologyCase tech;
  tech.label = analytic::to_string(hetero);
  if (hetero == analytic::HeterogeneityCase::kCase1) {
    tech.icn1 = analytic::gigabit_ethernet();
    tech.ecn1 = analytic::fast_ethernet();
    tech.icn2 = analytic::fast_ethernet();
  } else {
    tech.icn1 = analytic::fast_ethernet();
    tech.ecn1 = analytic::gigabit_ethernet();
    tech.icn2 = analytic::gigabit_ethernet();
  }
  return tech;
}

std::uint64_t default_point_seed(std::uint64_t base_seed,
                                 std::uint32_t clusters,
                                 double message_bytes) {
  simcore::SplitMix64 seed_mix(base_seed);
  simcore::SplitMix64 cluster_mix(seed_mix.next() ^ clusters);
  simcore::SplitMix64 byte_mix(cluster_mix.next() ^
                               static_cast<std::uint64_t>(message_bytes));
  return byte_mix.next();
}

std::uint64_t retry_point_seed(std::uint64_t point_seed,
                               std::uint32_t attempt) {
  if (attempt <= 1) return point_seed;
  simcore::SplitMix64 attempt_mix(point_seed ^ attempt);
  return attempt_mix.next();
}

namespace {

/// Resolved axes: every axis non-empty after defaulting.
struct ResolvedAxes {
  std::vector<TechnologyCase> technologies;
  std::vector<double> lambda_per_us;
  std::vector<std::uint32_t> clusters;
  std::vector<double> message_bytes;
  std::vector<analytic::NetworkArchitecture> architectures;
  std::vector<double> service_cv2;
  std::vector<double> arrival_ca2;
};

ResolvedAxes resolve(const SweepSpec& spec) {
  const SweepAxes& axes = spec.axes;
  ResolvedAxes resolved;
  resolved.technologies = axes.technologies;
  if (resolved.technologies.empty()) {
    resolved.technologies = {
        technology_case(analytic::HeterogeneityCase::kCase1)};
  }
  resolved.lambda_per_us = axes.lambda_per_us;
  if (resolved.lambda_per_us.empty()) {
    resolved.lambda_per_us = {analytic::kPaperRatePerUs};
  }
  resolved.clusters = axes.clusters;
  if (resolved.clusters.empty()) {
    std::size_t count = 0;
    const std::uint32_t* values = analytic::paper_cluster_sweep(&count);
    resolved.clusters.assign(values, values + count);
  }
  resolved.message_bytes = axes.message_bytes;
  if (resolved.message_bytes.empty()) resolved.message_bytes = {1024.0};
  resolved.architectures = axes.architectures;
  if (resolved.architectures.empty()) {
    resolved.architectures = {analytic::NetworkArchitecture::kNonBlocking};
  }
  resolved.service_cv2 = axes.service_cv2;
  if (resolved.service_cv2.empty()) {
    resolved.service_cv2 = {spec.workload.service_cv2};
  }
  resolved.arrival_ca2 = axes.arrival_ca2;
  if (resolved.arrival_ca2.empty()) {
    resolved.arrival_ca2 = {spec.workload.arrival_ca2};
  }
  return resolved;
}

SweepPoint make_point(const SweepSpec& spec, const ResolvedAxes& axes,
                      std::size_t tech, std::size_t lambda,
                      std::size_t clusters, std::size_t bytes,
                      std::size_t arch, std::size_t cv2, std::size_t ca2,
                      std::size_t index) {
  SweepPoint point;
  point.index = index;
  point.clusters = axes.clusters[clusters];
  point.message_bytes = axes.message_bytes[bytes];
  point.lambda_per_us = axes.lambda_per_us[lambda];
  point.architecture = axes.architectures[arch];
  point.technology_index = tech;
  point.technology_label = axes.technologies[tech].label;

  require(point.clusters >= 1,
          "sweep '" + spec.id + "': clusters must be >= 1");
  require(spec.total_nodes >= 1 && spec.total_nodes % point.clusters == 0,
          "sweep '" + spec.id + "': clusters=" +
              std::to_string(point.clusters) +
              " must divide total_nodes=" + std::to_string(spec.total_nodes) +
              " (assumption 5: equal-size clusters)");

  analytic::SystemConfig config;
  config.clusters = point.clusters;
  config.nodes_per_cluster = spec.total_nodes / point.clusters;
  config.icn1 = axes.technologies[tech].icn1;
  config.ecn1 = axes.technologies[tech].ecn1;
  config.icn2 = axes.technologies[tech].icn2;
  config.switch_params = spec.switch_params;
  config.architecture = point.architecture;
  config.message_bytes = point.message_bytes;
  config.generation_rate_per_us = point.lambda_per_us;
  config.scenario = spec.workload;
  config.scenario.service_cv2 = axes.service_cv2[cv2];
  config.scenario.arrival_ca2 = axes.arrival_ca2[ca2];
  config.validate();
  point.config = config;

  // Label: the figure-style core plus a suffix per non-singleton extra
  // axis, so every trace track stays identifiable in wide sweeps.
  point.label = spec.id + " C=" + std::to_string(point.clusters) + " M=" +
                format_compact(point.message_bytes, 6);
  if (axes.technologies.size() > 1) {
    point.label += ' ';
    point.label += point.technology_label;
  }
  if (axes.lambda_per_us.size() > 1) {
    point.label += " lambda=";
    point.label += format_compact(point.lambda_per_us, 6);
  }
  if (axes.architectures.size() > 1) {
    point.label += ' ';
    point.label += analytic::to_string(point.architecture);
  }
  if (axes.service_cv2.size() > 1) {
    point.label += " cv2=";
    point.label += format_compact(axes.service_cv2[cv2], 6);
  }
  if (axes.arrival_ca2.size() > 1) {
    point.label += " ca2=";
    point.label += format_compact(axes.arrival_ca2[ca2], 6);
  }

  point.seed = default_point_seed(spec.base_seed, point.clusters,
                                  point.message_bytes);
  return point;
}

/// One point of a tree sweep: a copy of the base topology with this
/// point's node-path overrides and message/architecture coordinates.
SweepPoint make_tree_point(
    const SweepSpec& spec, const std::vector<double>& bytes_axis,
    const std::vector<analytic::NetworkArchitecture>& arch_axis,
    const std::vector<std::size_t>& path_choice, std::size_t bytes,
    std::size_t arch, std::size_t index) {
  SweepPoint point;
  point.index = index;

  analytic::ModelTree tree = *spec.base_tree;
  tree.message_bytes = bytes_axis[bytes];
  tree.architecture = arch_axis[arch];
  // A non-default sweep workload overrides whatever the topology config
  // carried; the default leaves the tree's own scenario in place.
  if (!spec.workload.is_default()) tree.scenario = spec.workload;
  for (std::size_t p = 0; p < spec.axes.node_paths.size(); ++p) {
    const PathAxis& axis = spec.axes.node_paths[p];
    analytic::set_tree_path(tree, axis.path, axis.values[path_choice[p]]);
  }
  tree.validate();

  point.clusters = static_cast<std::uint32_t>(tree.root.children.size());
  point.message_bytes = tree.message_bytes;
  point.architecture = tree.architecture;
  point.technology_label = "tree";

  point.label = spec.id + " tree M=" + format_compact(point.message_bytes, 6);
  for (std::size_t p = 0; p < spec.axes.node_paths.size(); ++p) {
    const PathAxis& axis = spec.axes.node_paths[p];
    if (axis.values.size() <= 1) continue;
    point.label += ' ';
    point.label += axis.path;
    point.label += '=';
    point.label += format_compact(axis.values[path_choice[p]], 6);
  }
  if (arch_axis.size() > 1) {
    point.label += ' ';
    point.label += analytic::to_string(point.architecture);
  }

  // The one place a sweep lowers: a point whose tree has the flat
  // two-stage shape becomes that flat config (Backend::predict and the
  // batch path); only nested points keep a tree (Backend::predict_tree).
  if (const auto flat = tree.as_system_config()) {
    point.config = *flat;
    point.lambda_per_us = flat->generation_rate_per_us;
  } else {
    point.tree = std::make_shared<const analytic::ModelTree>(std::move(tree));
  }

  point.seed = default_point_seed(
      spec.base_seed, static_cast<std::uint32_t>(index), point.message_bytes);
  return point;
}

std::vector<SweepPoint> expand_tree_sweep(const SweepSpec& spec) {
  require(spec.axes.technologies.empty() && spec.axes.lambda_per_us.empty() &&
              spec.axes.clusters.empty(),
          "sweep '" + spec.id +
              "': a tree sweep owns its shape — the technology/lambda/"
              "clusters axes do not apply (sweep node fields via 'paths')");
  require(spec.axes.service_cv2.empty() && spec.axes.arrival_ca2.empty(),
          "sweep '" + spec.id +
              "': the service_cv2/arrival_ca2 axes do not apply to tree "
              "sweeps — set a fixed 'workload' instead");
  for (const PathAxis& axis : spec.axes.node_paths) {
    require(!axis.values.empty(), "sweep '" + spec.id + "': path axis '" +
                                      axis.path + "' has no values");
  }
  std::vector<double> bytes_axis = spec.axes.message_bytes;
  if (bytes_axis.empty()) bytes_axis = {spec.base_tree->message_bytes};
  std::vector<analytic::NetworkArchitecture> arch_axis =
      spec.axes.architectures;
  if (arch_axis.empty()) arch_axis = {spec.base_tree->architecture};

  const std::size_t n_paths = spec.axes.node_paths.size();
  std::vector<SweepPoint> points;

  if (spec.mode == AxisMode::kCartesian) {
    // Path axes nest outermost, declaration-order major, then
    // message_bytes, then architectures — mirroring the flat sweep's
    // fixed nesting with the topology axes in the technology slot.
    std::size_t combos = 1;
    for (const PathAxis& axis : spec.axes.node_paths) {
      combos *= axis.values.size();
    }
    std::vector<std::size_t> path_choice(n_paths, 0);
    for (std::size_t k = 0; k < combos; ++k) {
      std::size_t rest = k;
      for (std::size_t p = n_paths; p > 0; --p) {
        const std::size_t size = spec.axes.node_paths[p - 1].values.size();
        path_choice[p - 1] = rest % size;
        rest /= size;
      }
      for (std::size_t m = 0; m < bytes_axis.size(); ++m) {
        for (std::size_t a = 0; a < arch_axis.size(); ++a) {
          points.push_back(make_tree_point(spec, bytes_axis, arch_axis,
                                           path_choice, m, a, points.size()));
        }
      }
    }
    return points;
  }

  // Zipped: every non-singleton axis (path, bytes, architecture) shares
  // one length; singletons broadcast.
  std::size_t length = 1;
  const auto fold = [&](std::size_t axis_size, const std::string& axis_name) {
    if (axis_size == 1) return;
    if (length == 1) {
      length = axis_size;
      return;
    }
    require(axis_size == length,
            "sweep '" + spec.id + "': zipped axis '" + axis_name + "' has " +
                std::to_string(axis_size) + " values but another axis has " +
                std::to_string(length));
  };
  for (const PathAxis& axis : spec.axes.node_paths) {
    fold(axis.values.size(), axis.path);
  }
  fold(bytes_axis.size(), "message_bytes");
  fold(arch_axis.size(), "architecture");

  const auto pick = [](std::size_t axis_size, std::size_t i) {
    return axis_size == 1 ? 0 : i;
  };
  points.reserve(length);
  std::vector<std::size_t> path_choice(n_paths, 0);
  for (std::size_t i = 0; i < length; ++i) {
    for (std::size_t p = 0; p < n_paths; ++p) {
      path_choice[p] = pick(spec.axes.node_paths[p].values.size(), i);
    }
    points.push_back(make_tree_point(
        spec, bytes_axis, arch_axis, path_choice, pick(bytes_axis.size(), i),
        pick(arch_axis.size(), i), points.size()));
  }
  return points;
}

}  // namespace

std::vector<SweepPoint> expand_sweep(const SweepSpec& spec) {
  if (spec.base_tree != nullptr) return expand_tree_sweep(spec);
  require(spec.axes.node_paths.empty(),
          "sweep '" + spec.id +
              "': path axes need a base tree (set 'tree' in the config)");
  const ResolvedAxes axes = resolve(spec);
  std::vector<SweepPoint> points;

  if (spec.mode == AxisMode::kCartesian) {
    points.reserve(axes.technologies.size() * axes.lambda_per_us.size() *
                   axes.clusters.size() * axes.message_bytes.size() *
                   axes.architectures.size() * axes.service_cv2.size() *
                   axes.arrival_ca2.size());
    for (std::size_t t = 0; t < axes.technologies.size(); ++t) {
      for (std::size_t l = 0; l < axes.lambda_per_us.size(); ++l) {
        for (std::size_t c = 0; c < axes.clusters.size(); ++c) {
          for (std::size_t m = 0; m < axes.message_bytes.size(); ++m) {
            for (std::size_t a = 0; a < axes.architectures.size(); ++a) {
              for (std::size_t v = 0; v < axes.service_cv2.size(); ++v) {
                for (std::size_t b = 0; b < axes.arrival_ca2.size(); ++b) {
                  points.push_back(make_point(spec, axes, t, l, c, m, a, v, b,
                                              points.size()));
                }
              }
            }
          }
        }
      }
    }
    return points;
  }

  // Zipped: all non-singleton axes share one length; singletons repeat.
  std::size_t length = 1;
  const auto fold = [&](std::size_t axis_size, const char* axis_name) {
    if (axis_size == 1) return;
    if (length == 1) {
      length = axis_size;
      return;
    }
    require(axis_size == length,
            "sweep '" + spec.id + "': zipped axis '" + axis_name + "' has " +
                std::to_string(axis_size) + " values but another axis has " +
                std::to_string(length));
  };
  fold(axes.technologies.size(), "technology");
  fold(axes.lambda_per_us.size(), "lambda");
  fold(axes.clusters.size(), "clusters");
  fold(axes.message_bytes.size(), "message_bytes");
  fold(axes.architectures.size(), "architecture");
  fold(axes.service_cv2.size(), "service_cv2");
  fold(axes.arrival_ca2.size(), "arrival_ca2");

  const auto pick = [](std::size_t axis_size, std::size_t i) {
    return axis_size == 1 ? 0 : i;
  };
  points.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    points.push_back(make_point(
        spec, axes, pick(axes.technologies.size(), i),
        pick(axes.lambda_per_us.size(), i), pick(axes.clusters.size(), i),
        pick(axes.message_bytes.size(), i),
        pick(axes.architectures.size(), i), pick(axes.service_cv2.size(), i),
        pick(axes.arrival_ca2.size(), i), points.size()));
  }
  return points;
}

}  // namespace hmcs::runner
