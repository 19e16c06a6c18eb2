#include "hmcs/analytic/system_config.hpp"

#include <cmath>

#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

const char* to_string(NetworkArchitecture arch) {
  switch (arch) {
    case NetworkArchitecture::kNonBlocking:
      return "non-blocking (fat-tree)";
    case NetworkArchitecture::kBlocking:
      return "blocking (linear array)";
  }
  return "unknown";
}

void SystemConfig::validate() const {
  require(clusters >= 1, "SystemConfig: clusters must be >= 1");
  require(nodes_per_cluster >= 1, "SystemConfig: nodes_per_cluster must be >= 1");
  // A lone processor's messages have no destination (as in the DES).
  require(total_nodes() >= 2, "SystemConfig: needs >= 2 processors");
  analytic::validate(icn1);
  analytic::validate(ecn1);
  analytic::validate(icn2);
  require(switch_params.ports >= 4 && switch_params.ports % 2 == 0,
          "SystemConfig: switch ports must be even and >= 4");
  require(std::isfinite(switch_params.latency_us) &&
              switch_params.latency_us >= 0.0,
          "SystemConfig: switch latency must be >= 0");
  require(std::isfinite(message_bytes) && message_bytes > 0.0,
          "SystemConfig: message size must be > 0");
  // Zero is a valid (if degenerate) rate: the analytic model is well
  // defined at zero load — lambda_eff = 0, empty centres, latency = the
  // no-load service time. The event-driven simulators cannot realise a
  // source that never generates and enforce > 0 at their own boundary.
  require(std::isfinite(generation_rate_per_us) &&
              generation_rate_per_us >= 0.0,
          "SystemConfig: generation rate must be >= 0");
  scenario.validate();
}

}  // namespace hmcs::analytic
