#pragma once

/// \file workload.hpp
/// Heavy-traffic workload scenarios (docs/WORKLOADS.md): non-exponential
/// service (G/G/1 via Allen–Cunneen, mm1.hpp), bursty arrivals (a
/// 2-state Markov-modulated Poisson process reduced to an effective
/// interarrival ca^2), and failure/repair performability (preemptive-
/// resume breakdowns folded into an effective completion-time
/// distribution, à la the Beowulf performability literature). The
/// defaults — cv^2 = 1, Poisson arrivals, no failures — reproduce the
/// paper's exponential model exactly, and every serialisation surface
/// collapses them onto the pre-scenario schema so existing cache keys
/// and snapshots stay valid.

#include <optional>

#include "hmcs/util/json.hpp"

namespace hmcs::analytic {

/// 2-state MMPP arrival burstiness, parameterised so the *mean* rate is
/// whatever the config already says (generation_rate_per_us): the
/// process alternates between a base state and a burst state whose rate
/// is `burst_ratio` times the base rate; `burst_fraction` is the
/// long-run fraction of time spent bursting, and `burst_dwell_us` the
/// mean dwell time per burst. burst_ratio = 1 degenerates to Poisson.
struct MmppArrivals {
  double burst_ratio = 4.0;
  double burst_fraction = 0.1;
  double burst_dwell_us = 1000.0;

  void validate() const;
};

/// MMPP resolved against a mean rate: per-state arrival rates and
/// state-leaving rates (all per microsecond).
struct MmppRates {
  double base_rate;    ///< r0: arrival rate in the base state
  double burst_rate;   ///< r1: arrival rate in the burst state
  double leave_base;   ///< s0: base -> burst switching rate
  double leave_burst;  ///< s1: burst -> base switching rate
};

/// Solves for the per-state rates so that the time-stationary mean of
/// the MMPP equals `mean_rate_per_us`. Requires mean_rate_per_us >= 0
/// (rates are all 0 at 0).
MmppRates resolve_mmpp(const MmppArrivals& mmpp, double mean_rate_per_us);

/// Squared coefficient of variation of the MMPP interarrival times at
/// the given mean rate, via the exact 2-phase Markovian-arrival-process
/// moments. >= 1, rate-dependent (burstiness matters more when bursts
/// hold many arrivals); -> 1 as mean_rate -> 0. Returns 1 when the
/// mean rate is 0.
double mmpp_arrival_scv(const MmppArrivals& mmpp, double mean_rate_per_us);

/// Per-centre breakdown/repair: Poisson failures at rate 1/mtbf_us
/// strike a centre while it serves; each costs an exponential repair
/// with mean mttr_us, after which service resumes where it left off
/// (preemptive resume). Availability A = mtbf/(mtbf+mttr).
struct FailureRepair {
  double mtbf_us = 1e6;
  double mttr_us = 1e3;

  double availability() const { return mtbf_us / (mtbf_us + mttr_us); }
  void validate() const;
};

/// The full scenario attached to a SystemConfig/ModelTree. `mmpp`
/// engaged overrides `arrival_ca2` (the effective ca^2 is derived per
/// arrival rate); both default to the paper's exponential model.
struct WorkloadScenario {
  /// Squared coefficient of variation of every centre's service time
  /// (1 = exponential, 0 = deterministic, >1 = hyperexponential).
  double service_cv2 = 1.0;
  /// Interarrival-time ca^2 fed to the Allen–Cunneen term when `mmpp`
  /// is not engaged (1 = Poisson).
  double arrival_ca2 = 1.0;
  std::optional<MmppArrivals> mmpp;
  std::optional<FailureRepair> failure;

  /// True for the paper's exponential model: every serialiser skips the
  /// scenario entirely in that case, keeping canonical keys byte-
  /// identical to the pre-scenario schema.
  bool is_default() const;
  void validate() const;
};

/// The interarrival ca^2 the analytic solvers price for `scenario` at
/// per-source mean rate `mean_rate_per_us`: an engaged MMPP's effective
/// SCV at that rate (mmpp_arrival_scv), else the fixed arrival_ca2. The
/// one resolution every solve uses; the rate is the offered one, held
/// fixed through the blocked-source fixed point (the modulation is a
/// property of the sources, not of the throttled throughput).
inline double arrival_scv(const WorkloadScenario& scenario,
                          double mean_rate_per_us) {
  return scenario.mmpp.has_value()
             ? mmpp_arrival_scv(*scenario.mmpp, mean_rate_per_us)
             : scenario.arrival_ca2;
}

/// A centre's effective completion-time distribution under `scenario`:
/// the scenario's service cs^2 with breakdowns folded in (FailureRepair,
/// preemptive resume) as completion rate mu*A (A = mtbf/(mtbf+mttr)) and
/// inflated cs^2. The exact two-moment composition — the DES inflates
/// each service draw by its Poisson repair cost, realising this very
/// distribution. Identity on (mu, service_cv2) when failures are
/// disabled or repairs take no time.
struct EffectiveService {
  double mu;
  double cs2;
};

inline EffectiveService effective_service(double mu,
                                          const WorkloadScenario& scenario) {
  const double cs2 = scenario.service_cv2;
  if (!scenario.failure.has_value() || scenario.failure->mttr_us <= 0.0) {
    return {mu, cs2};
  }
  const double mtbf = scenario.failure->mtbf_us;
  const double mttr = scenario.failure->mttr_us;
  const double availability = mtbf / (mtbf + mttr);
  return {mu * availability,
          cs2 + 2.0 * availability * availability * mttr * mttr * mu / mtbf};
}

bool operator==(const MmppArrivals& a, const MmppArrivals& b);
bool operator==(const FailureRepair& a, const FailureRepair& b);
bool operator==(const WorkloadScenario& a, const WorkloadScenario& b);

/// Parses the "workload" JSON object (docs/WORKLOADS.md):
///   {"service_cv2": 4.0,
///    "arrival_ca2": 2.0 | "mmpp": {"burst_ratio":..., "burst_fraction":...,
///                                  "burst_dwell_us":...},
///    "failure": {"mtbf_us":..., "mttr_us":...}}
/// Every member optional; unknown members rejected; "arrival_ca2" and
/// "mmpp" are mutually exclusive.
WorkloadScenario workload_from_json(const JsonValue& value);

/// Canonical writer (declaration order, defaults explicit) used for
/// cache keys: emits service_cv2, then mmpp or arrival_ca2, then
/// failure only when engaged — so spelling a default explicitly
/// collapses onto the same bytes. Callers gate on is_default().
void write_json(JsonWriter& json, const WorkloadScenario& scenario);

}  // namespace hmcs::analytic
