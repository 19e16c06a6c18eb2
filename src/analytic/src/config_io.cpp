#include "hmcs/analytic/config_io.hpp"

#include "hmcs/util/error.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/units.hpp"

namespace hmcs::analytic {

NetworkTechnology parse_technology(const std::string& spec) {
  const std::string trimmed = trim(spec);
  if (trimmed == "gigabit-ethernet") return gigabit_ethernet();
  if (trimmed == "fast-ethernet") return fast_ethernet();
  if (trimmed == "myrinet") return myrinet();
  if (trimmed == "infiniband") return infiniband();
  if (starts_with(trimmed, "custom:")) {
    const auto fields = split(trimmed.substr(7), ',');
    require(fields.size() == 3,
            "technology '" + spec +
                "': custom needs <name>,<latency_us>,<bandwidth MB/s>");
    NetworkTechnology tech;
    tech.name = trim(fields[0]);
    tech.latency_us = parse_double(fields[1]);
    tech.bandwidth_bytes_per_us =
        units::mbps_to_bytes_per_us(parse_double(fields[2]));
    validate(tech);
    return tech;
  }
  detail::throw_config_error(
      "unknown technology '" + spec +
          "' (presets: gigabit-ethernet, fast-ethernet, myrinet, "
          "infiniband; or custom:<name>,<latency_us>,<MB/s>)",
      std::source_location::current());
}

NetworkArchitecture parse_architecture(const std::string& spec) {
  const std::string trimmed = trim(spec);
  if (trimmed == "non-blocking" || trimmed == "fat-tree") {
    return NetworkArchitecture::kNonBlocking;
  }
  if (trimmed == "blocking" || trimmed == "chain") {
    return NetworkArchitecture::kBlocking;
  }
  detail::throw_config_error(
      "config: architecture must be non-blocking|blocking, got '" + spec +
          "'",
      std::source_location::current());
}

}  // namespace hmcs::analytic
