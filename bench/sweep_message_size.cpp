// Extension sweep: the paper evaluates only M in {512, 1024}. This
// harness sweeps the message size across three decades for both
// architectures, locating where the blocking network's (N/2)M*beta
// penalty starts to dominate (small messages are latency-bound and the
// two architectures nearly tie; large ones are bandwidth-bound and the
// chain collapses).

#include <cstdio>
#include <iostream>
#include <memory>

#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/string_util.hpp"
#include "hmcs/util/table.hpp"
#include "hmcs/util/units.hpp"

int main(int argc, char** argv) {
  using namespace hmcs;
  using namespace hmcs::analytic;

  CliParser cli("sweep_message_size",
                "latency vs message size for both architectures");
  cli.add_option("clusters", "cluster count (divides 256)", "8");
  cli.add_option("lambda", "per-node rate in msg/s", "50");
  cli.add_option("messages", "measured deliveries per point", "8000");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const auto clusters = static_cast<std::uint32_t>(cli.get_uint("clusters"));
    const std::uint64_t messages = cli.get_uint("messages");

    // Message size × architecture grid (bytes-major — the cartesian
    // nesting order puts the architecture axis innermost); both
    // architectures of one size share its default_point_seed.
    runner::SweepSpec spec;
    spec.id = "sweep_message_size";
    spec.axes.clusters = {clusters};
    spec.axes.lambda_per_us = {units::per_s_to_per_us(cli.get_double("lambda"))};
    spec.axes.message_bytes = {64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0};
    spec.axes.architectures = {NetworkArchitecture::kNonBlocking,
                               NetworkArchitecture::kBlocking};

    ModelOptions mva;
    mva.fixed_point.method = SourceThrottling::kExactMva;
    runner::DesBackend::Options des;
    des.sim.measured_messages = messages;
    des.sim.warmup_messages = messages / 4;
    const runner::SweepResult result = runner::run_sweep(
        spec, {std::make_shared<runner::AnalyticBackend>(mva, "model"),
               std::make_shared<runner::DesBackend>(des, "sim")});

    std::cout << "== Message-size sweep (Case 1, C=" << clusters
              << ", lambda=" << cli.get_string("lambda") << " msg/s) ==\n";
    Table table({"M (bytes)", "fat-tree: model (ms)", "sim (ms)",
                 "chain: model (ms)", "sim (ms)", "chain/tree"});
    // Points come out (bytes, fat-tree), (bytes, chain), ...: two points
    // per table row.
    for (std::size_t i = 0; i + 1 < result.points.size(); i += 2) {
      const double tree_model_ms =
          units::us_to_ms(result.at(i, 0).mean_latency_us);
      const double tree_sim_ms =
          units::us_to_ms(result.at(i, 1).mean_latency_us);
      const double chain_model_ms =
          units::us_to_ms(result.at(i + 1, 0).mean_latency_us);
      const double chain_sim_ms =
          units::us_to_ms(result.at(i + 1, 1).mean_latency_us);
      table.add_row({format_compact(result.points[i].message_bytes, 6),
                     format_fixed(tree_model_ms, 3),
                     format_fixed(tree_sim_ms, 3),
                     format_fixed(chain_model_ms, 3),
                     format_fixed(chain_sim_ms, 3),
                     format_fixed(chain_model_ms / tree_model_ms, 1) + "x"});
    }
    std::cout << table;
    std::cout << "(the blocking penalty scales with M: latency-bound small\n"
                 " messages barely notice the chain; bandwidth-bound large\n"
                 " ones pay the full (N/2) factor)\n";
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
