// Golden pins of the discrete-event simulator's full output surface.
// EngineDeterminism pins two default-option runs by a few fields; these
// cases pin every SimResult field, every measured latency, the latency
// histogram and (where attached) the sampler series and the lifecycle
// trace, for each feature of the simulator: open loop, traffic
// patterns, deterministic service, precision stopping, heterogeneous
// clusters, heavy-traffic scenarios, observability hooks and
// independent replications — plus one nested tree, which pins the
// engine's random-draw order beyond depth 2.
//
// Each case stores a 64-bit FNV-1a digest over the bit patterns of its
// outputs plus the mean latency as a readable value. The contract is the
// one in docs/PERFORMANCE.md: fixed-seed runs are bit-for-bit
// reproducible, so a changed constant is a behavioural break, not a
// value to re-record casually.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/network_tech.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/runner/replication.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/sim/trace.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/workload/traffic_pattern.hpp"

namespace {

using namespace hmcs;
using analytic::HeterogeneityCase;
using analytic::NetworkArchitecture;
using analytic::paper_scenario;

/// 64-bit FNV-1a over little-endian words and raw bytes.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::string_view text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void add_center(Digest& digest, const sim::CenterStats& stats) {
  digest.add(stats.mean_wait_us);
  digest.add(stats.mean_service_us);
  digest.add(stats.mean_response_us);
  digest.add(stats.utilization);
  digest.add(stats.avg_queue_length);
  digest.add(stats.departures);
}

void add_result(Digest& digest, const sim::SimResult& r) {
  digest.add(r.messages_measured);
  digest.add(r.mean_latency_us);
  digest.add(r.latency_ci.lower);
  digest.add(r.latency_ci.upper);
  digest.add(r.latency_ci.half_width);
  digest.add(r.min_latency_us);
  digest.add(r.max_latency_us);
  digest.add(r.p50_latency_us);
  digest.add(r.p95_latency_us);
  digest.add(r.p99_latency_us);
  digest.add(r.mean_local_latency_us);
  digest.add(r.mean_remote_latency_us);
  digest.add(r.remote_fraction);
  digest.add(r.effective_rate_per_us);
  digest.add(r.total_avg_queue_length);
  digest.add(r.window_duration_us);
  digest.add(r.events_executed);
  add_center(digest, r.icn1);
  add_center(digest, r.ecn1);
  add_center(digest, r.icn2);
  digest.add(r.obs.warmup_end_us);
  digest.add(r.obs.batch_count);
  digest.add(r.obs.batch_lag1_autocorrelation);
  digest.add(r.obs.trace_dropped);
  digest.add(r.obs.samples_taken);
  digest.add(r.obs.events_pushed);
  digest.add(r.obs.calendar_resizes);
  // The pinned digests were recorded with a tombstone-purge counter in
  // this position; it read 0 in every run, and hashing the 0 keeps them.
  digest.add(std::uint64_t{0});
  digest.add(r.obs.sweep_fallbacks);
  digest.add(static_cast<std::uint64_t>(r.obs.peak_slot_capacity));
}

struct Pin {
  std::uint64_t digest = 0;
  double mean_latency_us = 0.0;
};

/// Runs the simulator and digests its result, its measured latencies,
/// its histogram and, when a sampler ran, every sampled series.
/// `per_centre` adds the per-centre stats and the busiest utilisation,
/// which the flat pins leave out.
Pin digest_run(sim::TreeSim& simulator, bool per_centre = false) {
  const sim::SimResult result = simulator.run();
  Digest digest;
  add_result(digest, result);
  if (per_centre) {
    digest.add(result.max_center_utilization);
    for (const sim::TreeCenterStats& center : result.centers) {
      digest.add(center.path);
      digest.add(static_cast<std::uint64_t>(center.egress));
      digest.add(center.utilization);
      digest.add(center.avg_queue_length);
      digest.add(center.mean_response_us);
      digest.add(center.departures);
    }
  }
  for (const double latency : simulator.measured_latencies()) {
    digest.add(latency);
  }
  const simcore::Histogram& histogram = simulator.latency_histogram();
  digest.add(histogram.count());
  digest.add(histogram.overflow());
  for (std::size_t i = 0; i < histogram.num_bins(); ++i) {
    digest.add(histogram.bin_upper(i));
    digest.add(histogram.bin_count(i));
  }
  if (const obs::TimeSeriesSampler* sampler = simulator.sampler()) {
    for (const obs::TimeSeriesSampler::Series& series : sampler->series()) {
      digest.add(series.name);
      for (const double t : series.times_us) digest.add(t);
      for (const double v : series.values) digest.add(v);
      digest.add(series.dropped);
    }
  }
  return Pin{digest.value(), result.mean_latency_us};
}

Pin run_pinned(const analytic::SystemConfig& config,
               const sim::SimOptions& options) {
  sim::MultiClusterSim simulator(config, options);
  return digest_run(simulator);
}

std::string describe(const Pin& pin) {
  std::ostringstream os;
  os << "{0x" << std::hex << pin.digest << "ull, " << std::dec
     << std::setprecision(17) << pin.mean_latency_us << "}";
  return os.str();
}

void expect_pin(const Pin& actual, const Pin& expected) {
  EXPECT_EQ(actual.digest, expected.digest) << "actual " << describe(actual);
  EXPECT_EQ(actual.mean_latency_us, expected.mean_latency_us)
      << "actual " << describe(actual);
}

sim::SimOptions short_run(std::uint64_t seed) {
  sim::SimOptions options;
  options.measured_messages = 2000;
  options.warmup_messages = 400;
  options.seed = seed;
  return options;
}

/// C = 4 clusters of 8 nodes at 100 msg/s: every centre is stable even
/// without source blocking, so open-loop runs reach a steady state.
analytic::SystemConfig light_config() {
  return paper_scenario(HeterogeneityCase::kCase1, 4,
                        NetworkArchitecture::kNonBlocking, 1024.0, 32, 1e-4);
}

TEST(SimGolden, PaperScenarioGrid) {
  struct Case {
    HeterogeneityCase hetero;
    NetworkArchitecture architecture;
    std::uint32_t clusters;
    Pin expected;
  };
  const std::vector<Case> cases = {
      {HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 1,
       {0xc17d8c8289649782ull, 28417.591454152451}},
      {HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 8,
       {0xa019eaa9e9c65c2aull, 32486.598928238109}},
      {HeterogeneityCase::kCase1, NetworkArchitecture::kNonBlocking, 64,
       {0x5996f9887a5c881bull, 41583.771906641043}},
      {HeterogeneityCase::kCase1, NetworkArchitecture::kBlocking, 1,
       {0xd75e8c18559c1079ull, 383353.1319429705}},
      {HeterogeneityCase::kCase1, NetworkArchitecture::kBlocking, 8,
       {0xdb3cee3dcb62264eull, 96719.599137527388}},
      {HeterogeneityCase::kCase1, NetworkArchitecture::kBlocking, 64,
       {0xc34455e16ed4e186ull, 825327.16227486299}},
      {HeterogeneityCase::kCase2, NetworkArchitecture::kNonBlocking, 1,
       {0x8655918ba180fe2aull, 40131.868873640429}},
      {HeterogeneityCase::kCase2, NetworkArchitecture::kNonBlocking, 8,
       {0x307530e7e6e8dddeull, 19291.008580389844}},
      {HeterogeneityCase::kCase2, NetworkArchitecture::kNonBlocking, 64,
       {0xda10780f33162595ull, 27026.560703860468}},
      {HeterogeneityCase::kCase2, NetworkArchitecture::kBlocking, 1,
       {0x78fa6f4d0d13ed88ull, 3159392.4797339053}},
      {HeterogeneityCase::kCase2, NetworkArchitecture::kBlocking, 8,
       {0x36e6e284cf31c14eull, 25444.068720416086}},
      {HeterogeneityCase::kCase2, NetworkArchitecture::kBlocking, 64,
       {0x99b7cb8ebca6a594ull, 105956.49431631369}},
  };
  std::uint64_t seed = 101;
  for (const Case& c : cases) {
    SCOPED_TRACE("case " +
                 std::to_string(c.hetero == HeterogeneityCase::kCase1 ? 1 : 2) +
                 (c.architecture == NetworkArchitecture::kBlocking
                      ? " blocking"
                      : " non-blocking") +
                 " C=" + std::to_string(c.clusters));
    const analytic::SystemConfig config =
        paper_scenario(c.hetero, c.clusters, c.architecture, 1024.0);
    expect_pin(run_pinned(config, short_run(seed++)), c.expected);
  }
}

TEST(SimGolden, OpenLoopAtAStableRate) {
  sim::SimOptions options = short_run(202);
  options.closed_loop = false;
  expect_pin(run_pinned(light_config(), options),
             {0xfdac65988d8fd5full, 519.30725288702695});
}

TEST(SimGolden, LocalizedTraffic) {
  sim::SimOptions options = short_run(203);
  options.traffic = std::make_shared<workload::LocalizedTraffic>(
      workload::NodeSpace::uniform(4, 8), 0.7);
  expect_pin(run_pinned(light_config(), options),
             {0x6d97f5287a828d78ull, 234.41975051488606});
}

TEST(SimGolden, HotspotTraffic) {
  sim::SimOptions options = short_run(204);
  options.traffic = std::make_shared<workload::HotspotTraffic>(
      workload::NodeSpace::uniform(4, 8), 5, 0.2);
  expect_pin(run_pinned(light_config(), options),
             {0x76d9b274e35108e1ull, 511.66265824782761});
}

/// Deterministic service: cv^2 = 0 draws no service variates at all.
TEST(SimGolden, ZeroServiceCv2) {
  analytic::SystemConfig config = light_config();
  config.scenario.service_cv2 = 0.0;
  expect_pin(run_pinned(config, short_run(207)),
             {0xe1644d1447f643baull, 448.0652299400486});
}

TEST(SimGolden, PrecisionStopping) {
  sim::SimOptions options = short_run(208);
  options.measured_messages = 1000;
  options.target_relative_ci = 0.02;
  options.message_cap = 50000;
  expect_pin(run_pinned(light_config(), options),
             {0xe3bcff84780c55cfull, 503.9872719179001});
}

/// Three unequal clusters (sizes, technologies, rates) as a hand-built
/// depth-2 tree: the Cluster-of-Clusters shape, which does not lower to
/// a SystemConfig.
TEST(SimGolden, HeterogeneousClusterOfClusters) {
  using analytic::ModelNode;
  const ModelNode big = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(12, 1e-4)});
  const ModelNode small = ModelNode::internal(
      analytic::fast_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(4, 2e-4)});
  const ModelNode mid = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::gigabit_ethernet(),
      {ModelNode::leaf(7, 1.5e-4)});
  analytic::ModelTree tree;
  tree.root = ModelNode::internal(analytic::fast_ethernet(), {big, small, mid});
  tree.switch_params = {24, 10.0};
  tree.architecture = NetworkArchitecture::kBlocking;
  tree.message_bytes = 512.0;
  sim::TreeSim simulator(tree, short_run(209));
  expect_pin(digest_run(simulator),
             {0x24c3645c2ccbb93eull, 640.06598073664497});
}

TEST(SimGolden, HeavyTrafficScenario) {
  analytic::SystemConfig config =
      paper_scenario(HeterogeneityCase::kCase2, 8,
                     NetworkArchitecture::kNonBlocking, 1024.0, 64, 2e-4);
  config.scenario.service_cv2 = 4.0;
  config.scenario.mmpp = analytic::MmppArrivals{4.0, 0.1, 1000.0};
  config.scenario.failure = analytic::FailureRepair{2e5, 500.0};
  expect_pin(run_pinned(config, short_run(210)),
             {0x78d978813a99e0e8ull, 1252.1121065786788});
}

TEST(SimGolden, QueueDepthSampler) {
  sim::SimOptions options = short_run(211);
  options.obs.sample_interval_us = 500.0;
  options.obs.sample_capacity = 64;
  expect_pin(run_pinned(light_config(), options),
             {0xd3713cd9dc6ed3b7ull, 521.91852980033934});
}

TEST(SimGolden, LifecycleTrace) {
  sim::SimOptions options = short_run(212);
  options.measured_messages = 300;
  options.warmup_messages = 50;
  options.trace = std::make_shared<sim::TraceRecorder>(2000);
  const Pin run = run_pinned(light_config(), options);
  Digest digest;
  digest.add(run.digest);
  digest.add(options.trace->to_csv());
  digest.add(options.trace->dropped_count());
  expect_pin(Pin{digest.value(), run.mean_latency_us},
             {0xeb79988e2f7d21b7ull, 490.15824140906318});
}

TEST(SimGolden, Replications) {
  const runner::ReplicationResult result =
      runner::run_replications(analytic::ModelTree::from_system(light_config()),
                               short_run(213), 3);
  Digest digest;
  digest.add(result.mean_latency_us);
  digest.add(result.latency_ci.lower);
  digest.add(result.latency_ci.upper);
  digest.add(result.latency_ci.half_width);
  digest.add(result.effective_rate_per_us);
  for (const sim::SimResult& replication : result.replications) {
    add_result(digest, replication);
  }
  expect_pin(Pin{digest.value(), result.mean_latency_us},
             {0x75565441a771fe3bull, 496.25296838225432});
}

/// The shape of configs/trees/heterogeneous_campuses.json: a depth-3
/// tree whose first campus has two leaf groups. Sampler and lifecycle
/// trace attached, so the role-rule probe names and centre labels
/// (ICN1[k], ECN1[k], ICN2) are pinned too.
TEST(SimGolden, NestedTree) {
  using analytic::ModelNode;
  ModelNode campus_a = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(16, 1e-4), ModelNode::leaf(8, 0.5e-4)}, "campus-a");
  ModelNode campus_b = ModelNode::internal(
      analytic::gigabit_ethernet(), analytic::fast_ethernet(),
      {ModelNode::leaf(32, 0.75e-4)}, "campus-b");
  analytic::ModelTree tree;
  tree.root =
      ModelNode::internal(analytic::fast_ethernet(), {campus_a, campus_b});
  tree.switch_params = {24, 10.0};
  tree.message_bytes = 1024.0;

  sim::SimOptions options = short_run(214);
  options.obs.sample_interval_us = 500.0;
  options.obs.sample_capacity = 64;
  options.trace = std::make_shared<sim::TraceRecorder>(2000);
  sim::TreeSim simulator(tree, options);
  const Pin run = digest_run(simulator, true);
  Digest digest;
  digest.add(run.digest);
  digest.add(options.trace->to_csv());
  expect_pin(Pin{digest.value(), run.mean_latency_us},
             {0x26888f7013b70eafull, 419.95625031625013});
}

/// The switch-level backend through the sweep front end: a JSON config
/// with a fabric backend, loaded and run like hmcs_run does. Pins the
/// five PointResult fields FabricBackend fills, per cell, so the
/// backend's fixed rendering (store-and-forward switching, closed-loop
/// sources) cannot drift.
TEST(SimGolden, FabricSweep) {
  const runner::SweepRunConfig run = runner::sweep_config_from_json(R"({
    "id": "fabric_pin",
    "total_nodes": 64,
    "seed": 5,
    "axes": {"clusters": [2, 4], "lambda_per_s": [250]},
    "backends": [{"type": "fabric", "messages": 2000, "warmup": 400}]
  })");
  runner::RunnerOptions options;
  options.threads = 2;
  const runner::SweepResult result =
      runner::run_sweep(run.spec, run.backends, options);
  // C = 4 saturates its busiest switch, which the guardrail flags.
  const std::vector<std::pair<Pin, runner::CellStatus>> expected = {
      {{0xd1a622a18aef8f26ull, 640.65842010654046}, runner::CellStatus::kOk},
      {{0x36602e0dceb5d92eull, 1381.9330351718456},
       runner::CellStatus::kDegraded},
  };
  ASSERT_EQ(result.cells.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const runner::PointResult& cell = result.cells[i];
    EXPECT_EQ(cell.status, expected[i].second) << i << ": " << cell.error;
    Digest digest;
    digest.add(cell.mean_latency_us);
    digest.add(cell.ci_half_us);
    digest.add(cell.messages_measured);
    digest.add(cell.mean_switch_hops);
    digest.add(cell.max_switch_utilization);
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_pin(Pin{digest.value(), cell.mean_latency_us}, expected[i].first);
  }
}

}  // namespace
