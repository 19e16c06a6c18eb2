#pragma once

/// \file bench_host.hpp
/// Names the host a bench record was taken on.

#include <fstream>
#include <string>

#include "hmcs/util/string_util.hpp"

namespace hmcs::bench {

/// The CPU's model name as /proc/cpuinfo gives it, so the record names
/// the host it was taken on; "unknown" where there is no such file.
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

}  // namespace hmcs::bench
