#include "hmcs/analytic/workload.hpp"

#include <cmath>
#include <string>

#include "hmcs/util/error.hpp"

namespace hmcs::analytic {

void MmppArrivals::validate() const {
  require(std::isfinite(burst_ratio) && burst_ratio >= 1.0,
          "workload: mmpp burst_ratio must be >= 1");
  require(std::isfinite(burst_fraction) && burst_fraction > 0.0 &&
              burst_fraction < 1.0,
          "workload: mmpp burst_fraction must be in (0, 1)");
  require(std::isfinite(burst_dwell_us) && burst_dwell_us > 0.0,
          "workload: mmpp burst_dwell_us must be > 0");
}

MmppRates resolve_mmpp(const MmppArrivals& mmpp, double mean_rate_per_us) {
  mmpp.validate();
  require(std::isfinite(mean_rate_per_us) && mean_rate_per_us >= 0.0,
          "workload: mmpp mean rate must be >= 0");
  // Stationary occupancy of the burst state is burst_fraction f, so the
  // base-state dwell follows from detailed balance: d0 = d1 (1-f)/f.
  // The time-stationary mean (1-f) r0 + f r1 with r1 = b r0 pins r0.
  const double f = mmpp.burst_fraction;
  const double base_dwell_us = mmpp.burst_dwell_us * (1.0 - f) / f;
  MmppRates rates;
  rates.leave_base = 1.0 / base_dwell_us;
  rates.leave_burst = 1.0 / mmpp.burst_dwell_us;
  rates.base_rate =
      mean_rate_per_us / (1.0 - f + mmpp.burst_ratio * f);
  rates.burst_rate = mmpp.burst_ratio * rates.base_rate;
  return rates;
}

double mmpp_arrival_scv(const MmppArrivals& mmpp, double mean_rate_per_us) {
  const MmppRates rates = resolve_mmpp(mmpp, mean_rate_per_us);
  if (mean_rate_per_us <= 0.0 || mmpp.burst_ratio == 1.0) return 1.0;
  // Exact MAP interarrival moments for the 2-state MMPP. With
  // -D0 = [[r0+s0, -s0], [-s1, r1+s1]] and the arrival-embedded
  // stationary vector pi_a ∝ (pi0 r0, pi1 r1):
  //   E[X]   = pi_a (-D0)^{-1} 1,
  //   E[X^2] = 2 pi_a (-D0)^{-2} 1,
  // so two 2x2 solves give the SCV = E[X^2]/E[X]^2 - 1.
  const double r0 = rates.base_rate, r1 = rates.burst_rate;
  const double s0 = rates.leave_base, s1 = rates.leave_burst;
  const double a = r0 + s0, b = -s0;
  const double c = -s1, d = r1 + s1;
  const double det = a * d - b * c;
  // det = r0 r1 + r0 s1 + r1 s0 > 0 whenever the mean rate is > 0.
  const auto solve = [&](double rhs0, double rhs1, double& y0, double& y1) {
    y0 = (d * rhs0 - b * rhs1) / det;
    y1 = (a * rhs1 - c * rhs0) / det;
  };
  const double pi1 = mmpp.burst_fraction;
  const double pi0 = 1.0 - pi1;
  const double pa0 = pi0 * r0 / mean_rate_per_us;
  const double pa1 = pi1 * r1 / mean_rate_per_us;
  double y0, y1;  // y = (-D0)^{-1} 1
  solve(1.0, 1.0, y0, y1);
  double z0, z1;  // z = (-D0)^{-1} y
  solve(y0, y1, z0, z1);
  const double mean = pa0 * y0 + pa1 * y1;
  const double second = 2.0 * (pa0 * z0 + pa1 * z1);
  return second / (mean * mean) - 1.0;
}

void FailureRepair::validate() const {
  require(std::isfinite(mtbf_us) && mtbf_us > 0.0,
          "workload: failure mtbf_us must be > 0");
  require(std::isfinite(mttr_us) && mttr_us >= 0.0,
          "workload: failure mttr_us must be >= 0");
}

bool WorkloadScenario::is_default() const {
  return service_cv2 == 1.0 && arrival_ca2 == 1.0 && !mmpp.has_value() &&
         !failure.has_value();
}

void WorkloadScenario::validate() const {
  require(std::isfinite(service_cv2) && service_cv2 >= 0.0,
          "workload: service_cv2 must be >= 0");
  require(std::isfinite(arrival_ca2) && arrival_ca2 >= 0.0,
          "workload: arrival_ca2 must be >= 0");
  require(!mmpp.has_value() || arrival_ca2 == 1.0,
          "workload: arrival_ca2 and mmpp are mutually exclusive");
  if (mmpp.has_value()) mmpp->validate();
  if (failure.has_value()) failure->validate();
}

bool operator==(const MmppArrivals& a, const MmppArrivals& b) {
  return a.burst_ratio == b.burst_ratio &&
         a.burst_fraction == b.burst_fraction &&
         a.burst_dwell_us == b.burst_dwell_us;
}

bool operator==(const FailureRepair& a, const FailureRepair& b) {
  return a.mtbf_us == b.mtbf_us && a.mttr_us == b.mttr_us;
}

bool operator==(const WorkloadScenario& a, const WorkloadScenario& b) {
  return a.service_cv2 == b.service_cv2 && a.arrival_ca2 == b.arrival_ca2 &&
         a.mmpp == b.mmpp && a.failure == b.failure;
}

WorkloadScenario workload_from_json(const JsonValue& value) {
  constexpr std::string_view kPrefix = "workload";
  require(value.is_object(), "workload: must be an object");
  reject_unknown_members(value,
                         {"service_cv2", "arrival_ca2", "mmpp", "failure"},
                         kPrefix, "workload");
  require(value.find("arrival_ca2") == nullptr ||
              value.find("mmpp") == nullptr,
          "workload: arrival_ca2 and mmpp are mutually exclusive");
  WorkloadScenario scenario;
  scenario.service_cv2 =
      number_member(value, "service_cv2", scenario.service_cv2, kPrefix);
  scenario.arrival_ca2 =
      number_member(value, "arrival_ca2", scenario.arrival_ca2, kPrefix);
  if (const JsonValue* mmpp = value.find("mmpp")) {
    require(mmpp->is_object(), "workload: mmpp must be an object");
    reject_unknown_members(*mmpp,
                           {"burst_ratio", "burst_fraction", "burst_dwell_us"},
                           kPrefix, "workload.mmpp");
    MmppArrivals arrivals;
    arrivals.burst_ratio =
        number_member(*mmpp, "burst_ratio", arrivals.burst_ratio, kPrefix);
    arrivals.burst_fraction = number_member(*mmpp, "burst_fraction",
                                            arrivals.burst_fraction, kPrefix);
    arrivals.burst_dwell_us = number_member(*mmpp, "burst_dwell_us",
                                            arrivals.burst_dwell_us, kPrefix);
    scenario.mmpp = arrivals;
  }
  if (const JsonValue* failure = value.find("failure")) {
    require(failure->is_object(), "workload: failure must be an object");
    reject_unknown_members(*failure, {"mtbf_us", "mttr_us"}, kPrefix,
                           "workload.failure");
    FailureRepair repair;
    repair.mtbf_us = failure->at("mtbf_us").as_number();
    repair.mttr_us = failure->at("mttr_us").as_number();
    scenario.failure = repair;
  }
  scenario.validate();
  return scenario;
}

void write_json(JsonWriter& json, const WorkloadScenario& scenario) {
  json.begin_object();
  json.key("service_cv2").value(scenario.service_cv2);
  if (scenario.mmpp.has_value()) {
    json.key("mmpp").begin_object();
    json.key("burst_ratio").value(scenario.mmpp->burst_ratio);
    json.key("burst_fraction").value(scenario.mmpp->burst_fraction);
    json.key("burst_dwell_us").value(scenario.mmpp->burst_dwell_us);
    json.end_object();
  } else {
    json.key("arrival_ca2").value(scenario.arrival_ca2);
  }
  if (scenario.failure.has_value()) {
    json.key("failure").begin_object();
    json.key("mtbf_us").value(scenario.failure->mtbf_us);
    json.key("mttr_us").value(scenario.failure->mttr_us);
    json.end_object();
  }
  json.end_object();
}

}  // namespace hmcs::analytic
