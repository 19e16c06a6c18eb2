#pragma once

/// \file serialize.hpp
/// JSON serialisation of configurations and predictions, for downstream
/// tooling (plotting the figure series, archiving experiment records).
/// Output is stable: keys in declaration order, units spelled out in
/// key names.

#include <string>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/system_config.hpp"
#include "hmcs/analytic/tree_model.hpp"
#include "hmcs/util/json.hpp"

namespace hmcs::analytic {

/// Appends the technology as a JSON object to an open writer position.
void write_json(JsonWriter& json, const NetworkTechnology& tech);

void write_json(JsonWriter& json, const SystemConfig& config);
void write_json(JsonWriter& json, const CenterPrediction& center);
void write_json(JsonWriter& json, const LatencyPrediction& prediction);
/// Canonical recursive schema (docs/COMPOSITION.md): keys in declaration
/// order, node names emitted only when non-empty, rates spelled as
/// lambda_per_s — the same schema tree_io.hpp parses, so
/// parse -> write -> parse round-trips and hmcs_serve can use the writer
/// as a canonical cache key for nested configs.
void write_json(JsonWriter& json, const ModelNode& node, bool root);
void write_json(JsonWriter& json, const ModelTree& tree);
void write_json(JsonWriter& json, const TreeLatencyPrediction& prediction);

/// Convenience: a standalone document.
std::string to_json(const SystemConfig& config);
std::string to_json(const LatencyPrediction& prediction);
std::string to_json(const ModelTree& tree);
std::string to_json(const TreeLatencyPrediction& prediction);

}  // namespace hmcs::analytic
