#pragma once

/// \file sweep_config.hpp
/// The sweep-config loader: builds a complete runnable sweep — spec,
/// backend set, thread count, output directories — from a JSON document,
/// so any study is a config file away instead of a bespoke binary (see
/// configs/sweeps/*.json for complete samples and docs/ARCHITECTURE.md
/// for the format reference). JSON is the only config format; members
/// are read through the util/json.hpp member readers, so an integer the
/// destination cannot store (a fraction, a negative, 2^32 clusters) is
/// rejected, never truncated.
///
/// JSON (RFC 8259, parsed with hmcs::parse_json):
///
///   {
///     "id": "fig6_small",
///     "title": "blocking Case-1, small sweep",
///     "mode": "cartesian",                  // or "zipped"
///     "total_nodes": 256,
///     "seed": 3,
///     "threads": 0,                         // 0 = hardware concurrency
///     "on_error": "collect-all",            // or "fail-fast" (default)
///     "max_attempts": 2,                    // per-cell retry budget
///     "cell_deadline_ms": 60000,            // 0 = no deadline
///     "degraded_utilization": 0.999,        // saturation guardrail
///     "batch_cells": 256,                   // 0 = per-cell (default)
///     "axes": {
///       "clusters": [1, 2, 4, 8],
///       "message_bytes": [1024, 512],
///       "lambda_per_s": [250],
///       "architecture": ["blocking"],
///       "technology": ["case1",
///                      {"label": "custom", "icn1": "myrinet",
///                       "ecn1": "custom:MyNet,25,120", "icn2": "myrinet"}]
///     },
///     "backends": [
///       {"type": "analytic", "model": "mva"},
///       {"type": "des", "messages": 2000, "warmup": 400,
///        "replications": 1},
///       {"type": "fabric", "messages": 2000, "warmup": 400}
///     ]
///   }
///
/// Tree sweeps: a top-level "tree" member holds a complete
/// nested topology config (the docs/COMPOSITION.md schema, as accepted
/// by hmcs_serve), and the axes sweep node fields by path instead of
/// the flat shape axes:
///
///   {
///     "id": "smoke_tree",
///     "tree": {"tree": {"network": "fast-ethernet", "children": [...]},
///              "message_bytes": 1024},
///     "axes": {
///       "paths": [{"path": "root.children[0].icn.bandwidth",
///                  "values": [125, 1250]}],
///       "message_bytes": [512, 1024]
///     },
///     "backends": [{"type": "analytic"}]
///   }
///
/// The technology/lambda/clusters axes do not combine with "tree"
/// (the topology owns those properties); message_bytes and
/// architecture still apply. A point whose tree has the flat two-stage
/// shape is lowered to its SystemConfig at expansion (expand_sweep).
///
/// Unknown keys are rejected at every level so typos fail loudly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hmcs/runner/backend.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/runner/sweep_spec.hpp"
#include "hmcs/util/json.hpp"

namespace hmcs::runner {

/// Execution-time knobs applied while constructing backends (config
/// files describe the study; these describe this run of it).
struct SweepLoadOptions {
  /// Sim-time sampling period for DES queue-depth counter tracks (µs;
  /// 0 = off). hmcs_run wires --obs-sample-us through here.
  double obs_sample_interval_us = 0.0;
};

/// A fully loaded, runnable sweep.
struct SweepRunConfig {
  SweepSpec spec;
  std::vector<std::shared_ptr<Backend>> backends;
  std::uint32_t threads = 0;  ///< 0 = hardware concurrency

  /// Fault-tolerance policy (docs/ROBUSTNESS.md), config keys
  /// `on_error` (fail-fast|collect-all), `max_attempts`,
  /// `cell_deadline_ms`, `degraded_utilization`; hmcs_run copies these
  /// into RunnerOptions and lets CLI flags override them.
  FailurePolicy on_error = FailurePolicy::kFailFast;
  std::uint32_t max_attempts = 1;
  double cell_deadline_ms = 0.0;
  double degraded_utilization = 1.0;
  /// RunnerOptions::batch_cells, config key `batch_cells`; hmcs_run's
  /// --batch flag overrides it.
  std::uint32_t batch_cells = 0;
};

/// Loads a sweep config from `path`, parsed as the JSON schema whatever
/// its extension. Throws hmcs::ConfigError on unreadable files or
/// malformed/unknown content.
SweepRunConfig load_sweep_config(const std::string& path,
                                 const SweepLoadOptions& options = {});

/// Parses the JSON schema from text.
SweepRunConfig sweep_config_from_json(std::string_view text,
                                      const SweepLoadOptions& options = {});

/// Parses one technology-axis entry: a string ("case1"/"case2" or any
/// parse_technology spec applied to all three roles) or an object with
/// icn1/ecn1/icn2 plus an optional label. Shared with the serve layer so
/// sweeps and query requests speak one schema.
TechnologyCase technology_from_json(const JsonValue& entry);

/// Builds one evaluation backend from a "backends" array entry
/// ({"type": "analytic"|"des"|"fabric", ...}; unknown keys rejected).
/// Shared with the serve layer.
std::shared_ptr<Backend> backend_from_json(const JsonValue& entry,
                                           const SweepLoadOptions& options = {});

/// Parses an analytic throttling-model name: bisection|picard|mva|none
/// (the analytic backend's "model" key and the bench binaries' --model).
analytic::SourceThrottling parse_throttling_model(const std::string& name);

/// Inverse of parse_throttling_model (stable wire names). Used for
/// canonical cache keys in the serve layer.
const char* throttling_model_name(analytic::SourceThrottling method);

/// Parses a failure-policy name: fail-fast|collect-all.
FailurePolicy parse_failure_policy(const std::string& name);

}  // namespace hmcs::runner
