#pragma once

/// \file config_io.hpp
/// The string vocabularies shared by every JSON config reader: network
/// technologies (tree configs, sweep technology entries, serve requests)
/// and network architectures. System descriptions themselves are JSON
/// sweep configs (runner/sweep_config.hpp) or nested tree configs
/// (tree_io.hpp).

#include <string>

#include "hmcs/analytic/system_config.hpp"

namespace hmcs::analytic {

/// Parses a technology spec: a preset name ("gigabit-ethernet",
/// "fast-ethernet", "myrinet", "infiniband") or
/// "custom:<name>,<latency_us>,<bandwidth MB/s>".
NetworkTechnology parse_technology(const std::string& spec);

/// Parses "non-blocking"/"fat-tree" or "blocking"/"chain"; throws
/// hmcs::ConfigError on anything else.
NetworkArchitecture parse_architecture(const std::string& spec);

}  // namespace hmcs::analytic
