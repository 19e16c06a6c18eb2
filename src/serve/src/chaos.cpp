#include "hmcs/serve/chaos.hpp"

#include <utility>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/util/error.hpp"

namespace hmcs::serve {

namespace {

/// One uniform double in [0, 1) from a site-salted splitmix64 draw.
/// Sequential tickets through splitmix64 are well-decorrelated by
/// construction (it is the seed-expansion function of the simulators'
/// RNG stack), so one draw per decision is enough.
double uniform_draw(std::uint64_t seed, std::uint64_t site,
                    std::uint64_t ticket) {
  simcore::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (site + 1)) ^
                          ticket);
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

}  // namespace

FaultPlan fault_plan_from_json(const JsonValue& doc) {
  constexpr std::string_view kPrefix = "chaos";
  require(doc.is_object(), "chaos: the plan must be a JSON object");
  reject_unknown_members(doc,
                         {"seed", "shed_prob", "eval_delay_prob",
                          "eval_delay_ms", "eval_error_prob",
                          "snapshot_fail_prob"},
                         kPrefix, "the plan");
  FaultPlan plan;
  plan.seed = uint_member(doc, "seed", plan.seed, kPrefix);
  for (const auto& [key, prob] :
       {std::pair{"shed_prob", &plan.shed_prob},
        std::pair{"eval_delay_prob", &plan.eval_delay_prob},
        std::pair{"eval_error_prob", &plan.eval_error_prob},
        std::pair{"snapshot_fail_prob", &plan.snapshot_fail_prob}}) {
    *prob = number_member(doc, key, 0.0, kPrefix);
    require(*prob >= 0.0 && *prob <= 1.0,
            "chaos: '" + std::string(key) + "' must be in [0, 1]");
  }
  plan.eval_delay_ms = number_member(doc, "eval_delay_ms", 0.0, kPrefix);
  require(plan.eval_delay_ms >= 0.0, "chaos: 'eval_delay_ms' must be >= 0");
  return plan;
}

void write_json(JsonWriter& json, const FaultPlan& plan) {
  json.begin_object();
  json.key("seed").value(plan.seed);
  json.key("shed_prob").value(plan.shed_prob);
  json.key("eval_delay_prob").value(plan.eval_delay_prob);
  json.key("eval_delay_ms").value(plan.eval_delay_ms);
  json.key("eval_error_prob").value(plan.eval_error_prob);
  json.key("snapshot_fail_prob").value(plan.snapshot_fail_prob);
  json.end_object();
}

void ChaosInjector::set_plan(const FaultPlan& plan) {
  const std::scoped_lock lock(mutex_);
  plan_ = plan;
}

FaultPlan ChaosInjector::plan() const {
  const std::scoped_lock lock(mutex_);
  return plan_;
}

bool ChaosInjector::roll(Site site, double prob) {
  if (prob <= 0.0) return false;
  std::uint64_t seed;
  {
    const std::scoped_lock lock(mutex_);
    seed = plan_.seed;
  }
  const std::uint64_t ticket =
      tickets_[site].fetch_add(1, std::memory_order_relaxed);
  return uniform_draw(seed, site, ticket) < prob;
}

bool ChaosInjector::should_force_shed() {
  double prob;
  {
    const std::scoped_lock lock(mutex_);
    prob = plan_.shed_prob;
  }
  if (!roll(kShed, prob)) return false;
  forced_sheds_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_COUNTER_INC("serve.chaos.forced_sheds");
  return true;
}

double ChaosInjector::eval_delay_ms() {
  double prob;
  double delay;
  {
    const std::scoped_lock lock(mutex_);
    prob = plan_.eval_delay_prob;
    delay = plan_.eval_delay_ms;
  }
  if (delay <= 0.0 || !roll(kEvalDelay, prob)) return 0.0;
  eval_delays_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_COUNTER_INC("serve.chaos.eval_delays");
  return delay;
}

bool ChaosInjector::should_fail_eval() {
  double prob;
  {
    const std::scoped_lock lock(mutex_);
    prob = plan_.eval_error_prob;
  }
  if (!roll(kEvalError, prob)) return false;
  eval_errors_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_COUNTER_INC("serve.chaos.eval_errors");
  return true;
}

bool ChaosInjector::should_fail_snapshot() {
  double prob;
  {
    const std::scoped_lock lock(mutex_);
    prob = plan_.snapshot_fail_prob;
  }
  if (!roll(kSnapshot, prob)) return false;
  snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_COUNTER_INC("serve.chaos.snapshot_failures");
  return true;
}

ChaosInjector::Counters ChaosInjector::counters() const {
  Counters counters;
  counters.forced_sheds = forced_sheds_.load(std::memory_order_relaxed);
  counters.eval_delays = eval_delays_.load(std::memory_order_relaxed);
  counters.eval_errors = eval_errors_.load(std::memory_order_relaxed);
  counters.snapshot_failures =
      snapshot_failures_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace hmcs::serve
