#include "hmcs/analytic/network_tech.hpp"

#include <cmath>

#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

NetworkTechnology gigabit_ethernet() { return {"Gigabit Ethernet", 80.0, 94.0}; }

NetworkTechnology fast_ethernet() { return {"Fast Ethernet", 50.0, 10.5}; }

NetworkTechnology myrinet() { return {"Myrinet", 9.0, 230.0}; }

NetworkTechnology infiniband() { return {"Infiniband", 6.0, 700.0}; }

void validate(const NetworkTechnology& tech) {
  require(!tech.name.empty(), "NetworkTechnology: name must not be empty");
  require(std::isfinite(tech.latency_us) && tech.latency_us >= 0.0, [&] {
    return "NetworkTechnology '" + tech.name + "': latency must be >= 0";
  });
  require(std::isfinite(tech.bandwidth_bytes_per_us) &&
              tech.bandwidth_bytes_per_us > 0.0,
          [&] {
            return "NetworkTechnology '" + tech.name +
                   "': bandwidth must be > 0";
          });
}

}  // namespace hmcs::analytic
