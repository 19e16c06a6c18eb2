#include "hmcs/runner/sweep_spec.hpp"

#include <bit>
#include <limits>
#include <span>
#include <string_view>
#include <utility>

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
  // A size below 2^64 folds in truncated, as every seed has since the
  // figures; the cast is undefined past that, so larger sizes fold in
  // the double's bit pattern instead.
  const std::uint64_t bytes =
      message_bytes > -1.0 && message_bytes < 0x1p64
          ? static_cast<std::uint64_t>(message_bytes)
          : std::bit_cast<std::uint64_t>(message_bytes);
  simcore::SplitMix64 seed_mix(base_seed);
  simcore::SplitMix64 cluster_mix(seed_mix.next() ^ clusters);
  simcore::SplitMix64 byte_mix(cluster_mix.next() ^ bytes);
  return byte_mix.next();
}

std::uint64_t retry_point_seed(std::uint64_t point_seed,
                               std::uint32_t attempt) {
  if (attempt <= 1) return point_seed;
  simcore::SplitMix64 attempt_mix(point_seed ^ attempt);
  return attempt_mix.next();
}

namespace {

/// One resolved axis: its values and, per value, the text a point's
/// label appends for it (" C=8", " lambda=0.00025"), formatted once per
/// expansion. A singleton extra axis appends nothing.
template <typename T>
struct Axis {
  std::vector<T> values;
  std::vector<std::string> text;

  std::size_t size() const { return values.size(); }

  /// Sets `text` to `format(value)` per value, or to empty strings when
  /// the axis is not `shown`.
  template <typename Format>
  void label(bool shown, Format&& format) {
    text.assign(values.size(), std::string());
    if (!shown) return;
    for (std::size_t i = 0; i < values.size(); ++i) {
      text[i] = format(values[i]);
    }
  }
};

/// `prefix` then `value` as format_compact(value, 6) prints it.
std::string number_text(std::string_view prefix, double value) {
  std::string text(prefix);
  append_compact(text, value, 6);
  return text;
}

std::string architecture_text(analytic::NetworkArchitecture arch) {
  return std::string(" ") + analytic::to_string(arch);
}

/// `count` x `size`, the cartesian point count so far; a ConfigError
/// naming the sweep when the product does not fit in size_t.
std::size_t times(const SweepSpec& spec, std::size_t count,
                  std::size_t size) {
  require(size == 0 ||
              count <= std::numeric_limits<std::size_t>::max() / size,
          [&] {
            return "sweep '" + spec.id +
                   "': the product of its axis sizes overflows";
          });
  return count * size;
}

/// Folds one axis into a zipped sweep's length: every non-singleton axis
/// shares one length, and singletons broadcast.
void fold_zipped(const SweepSpec& spec, std::size_t& length,
                 std::size_t axis_size, std::string_view axis_name) {
  if (axis_size == 1) return;
  if (length == 1) {
    length = axis_size;
    return;
  }
  require(axis_size == length,
          "sweep '" + spec.id + "': zipped axis '" + std::string(axis_name) +
              "' has " + std::to_string(axis_size) +
              " values but another axis has " + std::to_string(length));
}

std::size_t pick(std::size_t axis_size, std::size_t i) {
  return axis_size == 1 ? 0 : i;
}

/// Resolved axes: every axis non-empty after defaulting.
struct ResolvedAxes {
  Axis<TechnologyCase> technologies;
  Axis<double> lambda_per_us;
  Axis<std::uint32_t> clusters;
  Axis<double> message_bytes;
  Axis<analytic::NetworkArchitecture> architectures;
  Axis<double> service_cv2;
  Axis<double> arrival_ca2;
};

/// `values`, or `fallback` when the axis is empty.
template <typename T>
Axis<T> resolve_axis(const std::vector<T>& values, std::vector<T> fallback) {
  Axis<T> axis;
  axis.values = values.empty() ? std::move(fallback) : values;
  return axis;
}

ResolvedAxes resolve(const SweepSpec& spec) {
  const SweepAxes& axes = spec.axes;
  std::size_t count = 0;
  const std::uint32_t* paper_sweep = analytic::paper_cluster_sweep(&count);
  return {
      resolve_axis(axes.technologies,
                   {technology_case(analytic::HeterogeneityCase::kCase1)}),
      resolve_axis(axes.lambda_per_us, {analytic::kPaperRatePerUs}),
      resolve_axis(axes.clusters, std::vector<std::uint32_t>(
                                      paper_sweep, paper_sweep + count)),
      resolve_axis(axes.message_bytes, {1024.0}),
      resolve_axis(axes.architectures,
                   {analytic::NetworkArchitecture::kNonBlocking}),
      resolve_axis(axes.service_cv2, {spec.workload.service_cv2}),
      resolve_axis(axes.arrival_ca2, {spec.workload.arrival_ca2})};
}

/// The label text of every axis value: the figure-style core
/// (" C=<c> M=<m>") plus a suffix per non-singleton extra axis, so every
/// trace track stays identifiable in wide sweeps.
void label_axes(ResolvedAxes& axes) {
  axes.clusters.label(true, [](std::uint32_t clusters) {
    return " C=" + std::to_string(clusters);
  });
  axes.message_bytes.label(
      true, [](double bytes) { return number_text(" M=", bytes); });
  axes.technologies.label(axes.technologies.size() > 1,
                          [](const TechnologyCase& tech) {
                            return " " + tech.label;
                          });
  axes.lambda_per_us.label(axes.lambda_per_us.size() > 1, [](double lambda) {
    return number_text(" lambda=", lambda);
  });
  axes.architectures.label(axes.architectures.size() > 1, architecture_text);
  axes.service_cv2.label(axes.service_cv2.size() > 1, [](double cv2) {
    return number_text(" cv2=", cv2);
  });
  axes.arrival_ca2.label(axes.arrival_ca2.size() > 1, [](double ca2) {
    return number_text(" ca2=", ca2);
  });
}

/// `id` followed by `parts`, in one buffer sized to its content.
std::string join_label(std::string_view id,
                       std::span<const std::string_view> parts) {
  std::size_t size = id.size();
  for (const std::string_view part : parts) size += part.size();
  std::string label;
  label.reserve(size);
  label += id;
  for (const std::string_view part : parts) label += part;
  return label;
}

SweepPoint make_point(const SweepSpec& spec, const ResolvedAxes& axes,
                      std::size_t tech, std::size_t lambda,
                      std::size_t clusters, std::size_t bytes,
                      std::size_t arch, std::size_t cv2, std::size_t ca2,
                      std::size_t index) {
  const TechnologyCase& technology = axes.technologies.values[tech];
  SweepPoint point;
  point.index = index;
  point.clusters = axes.clusters.values[clusters];
  point.message_bytes = axes.message_bytes.values[bytes];
  point.lambda_per_us = axes.lambda_per_us.values[lambda];
  point.architecture = axes.architectures.values[arch];
  point.technology_index = tech;
  point.technology_label = technology.label;

  require(point.clusters >= 1, [&] {
    return "sweep '" + spec.id + "': clusters must be >= 1";
  });
  require(spec.total_nodes >= 1 && spec.total_nodes % point.clusters == 0,
          [&] {
            return "sweep '" + spec.id + "': clusters=" +
                   std::to_string(point.clusters) +
                   " must divide total_nodes=" +
                   std::to_string(spec.total_nodes) +
                   " (assumption 5: equal-size clusters)";
          });

  analytic::SystemConfig& config = point.config;
  config.clusters = point.clusters;
  config.nodes_per_cluster = spec.total_nodes / point.clusters;
  config.icn1 = technology.icn1;
  config.ecn1 = technology.ecn1;
  config.icn2 = technology.icn2;
  config.switch_params = spec.switch_params;
  config.architecture = point.architecture;
  config.message_bytes = point.message_bytes;
  config.generation_rate_per_us = point.lambda_per_us;
  config.scenario = spec.workload;
  config.scenario.service_cv2 = axes.service_cv2.values[cv2];
  config.scenario.arrival_ca2 = axes.arrival_ca2.values[ca2];
  config.validate();

  const std::string_view parts[] = {
      axes.clusters.text[clusters],    axes.message_bytes.text[bytes],
      axes.technologies.text[tech],    axes.lambda_per_us.text[lambda],
      axes.architectures.text[arch],   axes.service_cv2.text[cv2],
      axes.arrival_ca2.text[ca2]};
  point.label = join_label(spec.id, parts);

  point.seed = default_point_seed(spec.base_seed, point.clusters,
                                  point.message_bytes);
  return point;
}

/// A tree sweep's axes: message_bytes and architectures (defaulting to
/// the base tree's), and one per node-path axis, labelled
/// " <path>=<value>".
struct TreeAxes {
  Axis<double> message_bytes;
  Axis<analytic::NetworkArchitecture> architectures;
  std::vector<Axis<double>> paths;
};

/// One point of a tree sweep: a copy of the base topology with this
/// point's node-path overrides and message/architecture coordinates.
SweepPoint make_tree_point(const SweepSpec& spec, const TreeAxes& axes,
                           const std::vector<std::size_t>& path_choice,
                           std::size_t bytes, std::size_t arch,
                           std::size_t index) {
  SweepPoint point;
  point.index = index;

  analytic::ModelTree tree = *spec.base_tree;
  tree.message_bytes = axes.message_bytes.values[bytes];
  tree.architecture = axes.architectures.values[arch];
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

  std::size_t size = spec.id.size() + axes.message_bytes.text[bytes].size() +
                     axes.architectures.text[arch].size();
  for (std::size_t p = 0; p < path_choice.size(); ++p) {
    size += axes.paths[p].text[path_choice[p]].size();
  }
  point.label.reserve(size);
  point.label += spec.id;
  point.label += axes.message_bytes.text[bytes];
  for (std::size_t p = 0; p < path_choice.size(); ++p) {
    point.label += axes.paths[p].text[path_choice[p]];
  }
  point.label += axes.architectures.text[arch];

  // The one place a sweep lowers: a point whose tree has the flat
  // two-stage shape becomes that flat config (Backend::predict and the
  // batch path); only nested points keep a tree (Backend::predict_tree).
  if (auto flat = tree.as_system_config()) {
    point.config = std::move(*flat);
    point.lambda_per_us = point.config.generation_rate_per_us;
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
  TreeAxes axes;
  axes.message_bytes =
      resolve_axis(spec.axes.message_bytes, {spec.base_tree->message_bytes});
  axes.architectures =
      resolve_axis(spec.axes.architectures, {spec.base_tree->architecture});
  const std::vector<PathAxis>& paths = spec.axes.node_paths;
  const std::size_t n_paths = paths.size();

  // Cartesian: path axes nest outermost, declaration-order major, then
  // message_bytes, then architectures — mirroring the flat sweep's
  // fixed nesting with the topology axes in the technology slot.
  // Zipped: every non-singleton axis (path, bytes, architecture) shares
  // one length; singletons broadcast.
  std::size_t combos = 1;  // cartesian: path-value combinations
  std::size_t count = 1;
  if (spec.mode == AxisMode::kCartesian) {
    for (const PathAxis& axis : paths) {
      combos = times(spec, combos, axis.values.size());
    }
    count = times(spec, times(spec, combos, axes.message_bytes.size()),
                  axes.architectures.size());
  } else {
    for (const PathAxis& axis : paths) {
      fold_zipped(spec, count, axis.values.size(), axis.path);
    }
    fold_zipped(spec, count, axes.message_bytes.size(), "message_bytes");
    fold_zipped(spec, count, axes.architectures.size(), "architecture");
  }

  axes.message_bytes.label(
      true, [](double bytes) { return number_text(" tree M=", bytes); });
  axes.architectures.label(axes.architectures.size() > 1, architecture_text);
  for (const PathAxis& path : paths) {
    Axis<double>& axis = axes.paths.emplace_back();
    axis.values = path.values;
    const std::string prefix = " " + path.path + "=";
    axis.label(axis.size() > 1,
               [&](double value) { return number_text(prefix, value); });
  }

  std::vector<SweepPoint> points;
  points.reserve(count);
  std::vector<std::size_t> path_choice(n_paths, 0);
  if (spec.mode == AxisMode::kCartesian) {
    for (std::size_t k = 0; k < combos; ++k) {
      std::size_t rest = k;
      for (std::size_t p = n_paths; p > 0; --p) {
        const std::size_t size = paths[p - 1].values.size();
        path_choice[p - 1] = rest % size;
        rest /= size;
      }
      for (std::size_t m = 0; m < axes.message_bytes.size(); ++m) {
        for (std::size_t a = 0; a < axes.architectures.size(); ++a) {
          points.push_back(
              make_tree_point(spec, axes, path_choice, m, a, points.size()));
        }
      }
    }
    return points;
  }
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t p = 0; p < n_paths; ++p) {
      path_choice[p] = pick(paths[p].values.size(), i);
    }
    points.push_back(make_tree_point(
        spec, axes, path_choice, pick(axes.message_bytes.size(), i),
        pick(axes.architectures.size(), i), points.size()));
  }
  return points;
}

}  // namespace

std::vector<SweepPoint> expand_sweep(const SweepSpec& spec) {
  if (spec.base_tree != nullptr) return expand_tree_sweep(spec);
  require(spec.axes.node_paths.empty(),
          "sweep '" + spec.id +
              "': path axes need a base tree (set 'tree' in the config)");
  ResolvedAxes axes = resolve(spec);
  const std::pair<std::size_t, std::string_view> sizes[] = {
      {axes.technologies.size(), "technology"},
      {axes.lambda_per_us.size(), "lambda"},
      {axes.clusters.size(), "clusters"},
      {axes.message_bytes.size(), "message_bytes"},
      {axes.architectures.size(), "architecture"},
      {axes.service_cv2.size(), "service_cv2"},
      {axes.arrival_ca2.size(), "arrival_ca2"}};
  // Cartesian: the full product, nested in the order above. Zipped: all
  // non-singleton axes share one length; singletons repeat.
  std::size_t count = 1;
  for (const auto& [size, name] : sizes) {
    if (spec.mode == AxisMode::kCartesian) {
      count = times(spec, count, size);
    } else {
      fold_zipped(spec, count, size, name);
    }
  }
  label_axes(axes);

  std::vector<SweepPoint> points;
  points.reserve(count);
  if (spec.mode == AxisMode::kCartesian) {
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
  for (std::size_t i = 0; i < count; ++i) {
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
