// The config vocabularies (technology and architecture strings) and the
// shipped single-point sample configs, read through the sweep-config
// loader like every other JSON config.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hmcs/analytic/config_io.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/util/error.hpp"

namespace {

using namespace hmcs;
using namespace hmcs::analytic;

const std::string kSamples = std::string(HMCS_SOURCE_DIR) + "/examples/configs";

/// The one SystemConfig a single-point sweep config expands to.
SystemConfig single_point(const runner::SweepRunConfig& run) {
  const std::vector<runner::SweepPoint> points = runner::expand_sweep(run.spec);
  EXPECT_EQ(points.size(), 1u);
  return points.front().config;
}

std::string read_sample(const std::string& name) {
  std::ifstream in(kSamples + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ConfigIo, LoadsValidConfig) {
  const SystemConfig config = single_point(
      runner::sweep_config_from_json(read_sample("case1_c8.json")));
  EXPECT_EQ(config.clusters, 8u);
  EXPECT_EQ(config.nodes_per_cluster, 32u);
  EXPECT_EQ(config.architecture, NetworkArchitecture::kNonBlocking);
  EXPECT_EQ(config.icn1.name, "Gigabit Ethernet");
  EXPECT_EQ(config.ecn1.name, "Fast Ethernet");
  EXPECT_EQ(config.icn2.name, "Fast Ethernet");
  EXPECT_DOUBLE_EQ(config.message_bytes, 1024.0);
  EXPECT_DOUBLE_EQ(config.generation_rate_per_us, 2.5e-4);
  EXPECT_EQ(config.switch_params.ports, 24u);
  EXPECT_DOUBLE_EQ(config.switch_params.latency_us, 10.0);
}

TEST(ConfigIo, ParsesTechnologySpecs) {
  EXPECT_EQ(parse_technology("myrinet").name, "Myrinet");
  EXPECT_EQ(parse_technology("infiniband").name, "Infiniband");
  const NetworkTechnology custom =
      parse_technology("custom:LabNet, 25, 120.5");
  EXPECT_EQ(custom.name, "LabNet");
  EXPECT_DOUBLE_EQ(custom.latency_us, 25.0);
  EXPECT_DOUBLE_EQ(custom.bandwidth_bytes_per_us, 120.5);
  EXPECT_THROW(parse_technology("token-ring"), ConfigError);
  EXPECT_THROW(parse_technology("custom:OnlyName"), ConfigError);
  EXPECT_THROW(parse_technology("custom:X,-1,10"), ConfigError);
}

TEST(ConfigIo, BlockingAliasAccepted) {
  EXPECT_EQ(parse_architecture("chain"), NetworkArchitecture::kBlocking);
  EXPECT_EQ(parse_architecture("blocking"), NetworkArchitecture::kBlocking);
  EXPECT_EQ(parse_architecture("fat-tree"),
            NetworkArchitecture::kNonBlocking);
}

TEST(ConfigIo, RejectsUnknownKeysAndBadValues) {
  const std::string sample = read_sample("case1_c8.json");

  std::string with_typo = sample;
  with_typo.replace(with_typo.find("\"total_nodes\""), 13, "\"total_nodez\"");
  EXPECT_THROW(runner::sweep_config_from_json(with_typo), ConfigError);

  std::string bad_arch = sample;
  bad_arch.replace(bad_arch.find("non-blocking"), 12, "mesh");
  EXPECT_THROW(runner::sweep_config_from_json(bad_arch), ConfigError);
  EXPECT_THROW(parse_architecture("mesh"), ConfigError);

  // Eight clusters do not divide 12 nodes (assumption 5).
  std::string uneven = sample;
  uneven.replace(uneven.find("256"), 3, "12");
  EXPECT_THROW(
      runner::expand_sweep(runner::sweep_config_from_json(uneven).spec),
      ConfigError);
}

TEST(ConfigIo, ShippedSampleConfigsLoad) {
  // The example configs in the repo must stay valid single-point sweeps.
  const SystemConfig case1 =
      single_point(runner::load_sweep_config(kSamples + "/case1_c8.json"));
  EXPECT_EQ(case1.total_nodes(), 256u);
  const SystemConfig myri = single_point(
      runner::load_sweep_config(kSamples + "/myrinet_backbone.json"));
  EXPECT_EQ(myri.ecn1.name, "Myrinet");
  EXPECT_EQ(myri.icn2.name, "Myrinet");
  EXPECT_EQ(myri.icn1.name, "Gigabit Ethernet");
}

}  // namespace
