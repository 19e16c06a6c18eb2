// Switch-level fabric simulator: no-load timing laws, emergent bisection
// bottleneck on the chain, pattern-insensitivity of the fat-tree, and
// agreement with the Section 5 closed forms in the regime they assume.

#include <gtest/gtest.h>

#include <string>

#include "hmcs/analytic/network_tech.hpp"
#include "hmcs/analytic/service_time.hpp"
#include "hmcs/netsim/switch_fabric_sim.hpp"
#include "hmcs/topology/fat_tree.hpp"
#include "hmcs/topology/linear_array.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/math_util.hpp"

namespace {

using namespace hmcs;
using netsim::FabricSimOptions;
using netsim::FabricSimResult;
using netsim::SwitchFabricSim;
using netsim::SwitchingMode;

FabricSimOptions light_options() {
  FabricSimOptions options;
  options.technology = analytic::fast_ethernet();
  options.rate_per_us = 1e-6;  // essentially no contention
  options.measured_messages = 3000;
  options.warmup_messages = 200;
  options.seed = 5;
  return options;
}

TEST(SwitchFabricSim, NoLoadCutThroughMatchesEq11PerPath) {
  // Cut-through at no load: latency = alpha + hops*alpha_sw + M*beta,
  // with hops the *actual* per-pair traversals; eq. (11) uses the worst
  // case 2d-1 for every message, so it upper-bounds the mean.
  const topology::FatTree tree(32, 8);
  FabricSimOptions options = light_options();
  options.mode = SwitchingMode::kCutThrough;
  SwitchFabricSim sim(tree.build_graph(), options);
  const FabricSimResult result = sim.run();

  const double expected =
      options.technology.latency_us +
      tree.average_traversals() * options.switch_latency_us +
      options.message_bytes * options.technology.byte_time_us();
  EXPECT_NEAR(result.mean_latency_us, expected, 0.01 * expected);
  EXPECT_NEAR(result.mean_switch_hops, tree.average_traversals(), 0.05);

  const analytic::ServiceTimeBreakdown eq11 = analytic::network_service_time(
      options.technology, 32, {8, options.switch_latency_us},
      analytic::NetworkArchitecture::kNonBlocking, options.message_bytes);
  EXPECT_LE(result.mean_latency_us, eq11.total_us() * 1.001);
}

TEST(SwitchFabricSim, NoLoadStoreAndForwardSerialisesPerHop) {
  const topology::FatTree tree(32, 8);
  FabricSimOptions options = light_options();
  options.mode = SwitchingMode::kStoreAndForward;
  SwitchFabricSim sim(tree.build_graph(), options);
  const FabricSimResult result = sim.run();

  const double per_hop = options.switch_latency_us +
                         options.message_bytes *
                             options.technology.byte_time_us();
  const double expected =
      options.technology.latency_us + tree.average_traversals() * per_hop;
  EXPECT_NEAR(result.mean_latency_us, expected, 0.01 * expected);

  // S&F must beat cut-through by roughly (avg_hops-1) serialisations.
  FabricSimOptions ct = options;
  ct.mode = SwitchingMode::kCutThrough;
  SwitchFabricSim ct_sim(tree.build_graph(), ct);
  EXPECT_GT(result.mean_latency_us, ct_sim.run().mean_latency_us);
}

TEST(SwitchFabricSim, ChainBottleneckEmergesAtTheMiddleSwitch) {
  // Uniform traffic on a chain: the centre switch carries roughly half
  // of all traffic — the bisection bottleneck of Section 5.3, measured
  // rather than assumed.
  const topology::LinearArray chain(96, 24);  // 4 switches
  FabricSimOptions options = light_options();
  options.rate_per_us = 2e-5;
  options.measured_messages = 8000;
  SwitchFabricSim sim(chain.build_graph(), options);
  const FabricSimResult result = sim.run();
  ASSERT_EQ(result.switch_utilization.size(), 4u);
  // The two inner switches dominate the two outer ones.
  const double outer = std::max(result.switch_utilization[0],
                                result.switch_utilization[3]);
  const double inner = std::min(result.switch_utilization[1],
                                result.switch_utilization[2]);
  EXPECT_GT(inner, outer);
  EXPECT_TRUE(result.busiest_switch == 1 || result.busiest_switch == 2);
}

TEST(SwitchFabricSim, ChainWinsOnHopsAtLowLoad) {
  // With no contention the chain's shorter average path (k/3+1 switches
  // vs the 3-stage tree's ~4.4) actually makes it *faster* — blocking is
  // a throughput phenomenon, not a latency-at-idle one.
  const std::uint64_t n = 48;
  FabricSimOptions options = light_options();
  SwitchFabricSim tree_sim(topology::FatTree(n, 8).build_graph(), options);
  SwitchFabricSim chain_sim(topology::LinearArray(n, 8).build_graph(),
                            options);
  const FabricSimResult tree_result = tree_sim.run();
  const FabricSimResult chain_result = chain_sim.run();
  EXPECT_LT(chain_result.mean_switch_hops, tree_result.mean_switch_hops);
  EXPECT_LT(chain_result.mean_latency_us, tree_result.mean_latency_us);
}

TEST(SwitchFabricSim, FatTreeSustainsHigherThroughputThanChain) {
  // Same endpoints, same technology, offered load well above the chain's
  // bisection capacity (~3.9e-4/endpoint for 48 nodes on 8-port
  // switches): the fat-tree keeps delivering, the chain saturates at its
  // middle switch — Section 5.3's blocking penalty, emergent.
  const std::uint64_t n = 48;
  FabricSimOptions options = light_options();
  options.rate_per_us = 1e-3;
  options.measured_messages = 6000;
  options.warmup_messages = 2000;

  SwitchFabricSim tree_sim(topology::FatTree(n, 8).build_graph(), options);
  SwitchFabricSim chain_sim(topology::LinearArray(n, 8).build_graph(),
                            options);
  const FabricSimResult tree_result = tree_sim.run();
  const FabricSimResult chain_result = chain_sim.run();

  EXPECT_GT(tree_result.delivered_rate_per_us,
            1.5 * chain_result.delivered_rate_per_us);
  EXPECT_LT(tree_result.mean_latency_us, chain_result.mean_latency_us);
  // The chain's bottleneck switch is pinned near 100% busy.
  EXPECT_GT(chain_result.max_switch_utilization, 0.95);
}

TEST(SwitchFabricSim, EcmpUnlocksFatTreeBandwidth) {
  // Deterministic lowest-id routing funnels each switch's flows through
  // one up-link; random minimal (ECMP) routing spreads them. Theorem 1
  // is only realised with the latter.
  const topology::FatTree tree(48, 8);
  FabricSimOptions options = light_options();
  options.rate_per_us = 1e-3;
  options.measured_messages = 6000;
  options.warmup_messages = 2000;

  FabricSimOptions deterministic = options;
  deterministic.routing = netsim::RoutingPolicy::kDeterministic;
  SwitchFabricSim ecmp_sim(tree.build_graph(), options);
  SwitchFabricSim det_sim(tree.build_graph(), deterministic);
  const FabricSimResult ecmp = ecmp_sim.run();
  const FabricSimResult det = det_sim.run();
  EXPECT_GT(ecmp.delivered_rate_per_us, 1.3 * det.delivered_rate_per_us);
  EXPECT_LT(ecmp.mean_latency_us, det.mean_latency_us);
}

TEST(SwitchFabricSim, ClosedLoopThrottlesOpenLoopQueues) {
  const topology::LinearArray chain(48, 24);
  FabricSimOptions closed = light_options();
  closed.rate_per_us = 1e-4;  // far beyond chain capacity
  closed.closed_loop = true;
  closed.measured_messages = 4000;
  FabricSimOptions open = closed;
  open.closed_loop = false;
  SwitchFabricSim closed_sim(chain.build_graph(), closed);
  SwitchFabricSim open_sim(chain.build_graph(), open);
  const double closed_latency = closed_sim.run().mean_latency_us;
  const double open_latency = open_sim.run().mean_latency_us;
  // Open-loop queues grow without bound, so its measured latency blows
  // past the closed loop's (which is capped by one message per source).
  EXPECT_GT(open_latency, closed_latency);
}

TEST(SwitchFabricSim, FasterUplinksRelieveUpperStages) {
  // The paper's future-work "technology heterogeneity": a fat-tree with
  // 4x upper-stage bandwidth serves saturating traffic with lower
  // latency and higher delivered throughput than a uniform one.
  const topology::FatTree tree(48, 8);
  FabricSimOptions uniform = light_options();
  uniform.rate_per_us = 1e-3;
  uniform.measured_messages = 6000;
  uniform.warmup_messages = 2000;
  FabricSimOptions fast_up = uniform;
  fast_up.stage_bandwidth_scale = {1.0, 4.0, 4.0};

  SwitchFabricSim uniform_sim(tree.build_graph(), uniform);
  SwitchFabricSim fast_sim(tree.build_graph(), fast_up);
  const FabricSimResult base = uniform_sim.run();
  const FabricSimResult upgraded = fast_sim.run();
  EXPECT_GT(upgraded.delivered_rate_per_us, base.delivered_rate_per_us);
  EXPECT_LT(upgraded.mean_latency_us, base.mean_latency_us);
}

TEST(SwitchFabricSim, StageScaleValidation) {
  const topology::FatTree tree(16, 8);
  FabricSimOptions bad = light_options();
  bad.stage_bandwidth_scale = {1.0, 0.0};
  EXPECT_THROW(SwitchFabricSim(tree.build_graph(), bad), hmcs::ConfigError);
}

TEST(SwitchFabricSim, Reproducible) {
  const topology::FatTree tree(16, 8);
  SwitchFabricSim a(tree.build_graph(), light_options());
  SwitchFabricSim b(tree.build_graph(), light_options());
  EXPECT_DOUBLE_EQ(a.run().mean_latency_us, b.run().mean_latency_us);
}

TEST(SwitchFabricSim, ReportsPercentilesAndCi) {
  const topology::FatTree tree(32, 8);
  FabricSimOptions options = light_options();
  options.rate_per_us = 3e-5;
  SwitchFabricSim sim(tree.build_graph(), options);
  const FabricSimResult result = sim.run();
  EXPECT_GE(result.p95_latency_us, result.mean_latency_us);
  EXPECT_GT(result.latency_ci.half_width, 0.0);
  EXPECT_LE(result.latency_ci.lower, result.mean_latency_us);
  EXPECT_GE(result.latency_ci.upper, result.mean_latency_us);
}

TEST(SwitchFabricSim, Validation) {
  const topology::FatTree tree(16, 8);
  FabricSimOptions bad = light_options();
  bad.rate_per_us = 0.0;
  EXPECT_THROW(SwitchFabricSim(tree.build_graph(), bad), hmcs::ConfigError);
  bad = light_options();
  bad.message_bytes = -5.0;
  EXPECT_THROW(SwitchFabricSim(tree.build_graph(), bad), hmcs::ConfigError);

  SwitchFabricSim once(tree.build_graph(), light_options());
  once.run();
  EXPECT_THROW(once.run(), hmcs::ConfigError);
}

TEST(SwitchFabricSim, MaxEventsGuardTrips) {
  const topology::FatTree tree(16, 8);
  FabricSimOptions options = light_options();
  options.max_events = 100;  // far too few to finish
  SwitchFabricSim sim(tree.build_graph(), options);
  try {
    sim.run();
    FAIL() << "a run of 3,200 messages finished within 100 events";
  } catch (const hmcs::ConfigError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("SwitchFabricSim: exceeded max_events"),
              std::string::npos)
        << error.what();
  }
}

TEST(SwitchFabricSim, CancelledTokenUnwindsTheRun) {
  const topology::FatTree tree(16, 8);
  util::CancelToken token;
  token.cancel();
  FabricSimOptions options = light_options();
  options.cancel = &token;
  SwitchFabricSim sim(tree.build_graph(), options);
  try {
    sim.run();
    FAIL() << "a cancelled run finished";
  } catch (const hmcs::Cancelled& error) {
    EXPECT_NE(std::string(error.what()).find("SwitchFabricSim: cancelled"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
