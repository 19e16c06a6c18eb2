// End-to-end throughput of the discrete-event engine, reported as a
// machine-readable JSON record (BENCH_engine.json) so CI and the
// performance docs can track events/sec across engine changes.
//
// steady_churn runs the hold model on a real Simulator: `sources`
// self-rescheduling event chains with exponential spacing. Each step
// takes the next event and schedules its source again, so the
// population stays at `sources` pending events — the simulator hot path
// (Simulator::next, then Simulator::schedule) with no model around it.
// Peak pending events is read from sim.pending_events(), so the number
// reflects what the engine actually held.
//
// The `tree_sim` block times the simulator layer on the same executive:
// TreeSim runs (construction included, median of a few repeats) at the
// paper's protocol of 10,000 measured + 2,000 warm-up messages, on the
// flat Case-1 configs at N = 256, M = 1,024, C in {2, 16, 64}, both
// architectures, and on configs/trees/heterogeneous_campuses.json. Each
// run's mean latency is printed with 17 significant digits, so a change
// to the engine shows bit identity next to its speed; repeats of a run
// must agree exactly.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "hmcs/analytic/model_tree.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/sim/tree_sim.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/simcore/simulation.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

struct RunRecord {
  std::string name;
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;
  std::size_t peak_pending = 0;

  double events_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(events_executed) / wall_seconds
               : 0.0;
  }
  double ns_per_event() const {
    return events_executed > 0
               ? wall_seconds * 1e9 / static_cast<double>(events_executed)
               : 0.0;
  }
};

/// The hold model: `sources` chains, each event rescheduling its own
/// source after an exponential delay, for `target_events` events.
RunRecord run_steady_churn(std::uint64_t sources, std::uint64_t target_events,
                           std::uint64_t seed) {
  simcore::Simulator sim;
  simcore::Rng rng(seed);
  RunRecord record;
  record.name = "steady_churn";
  for (std::uint64_t s = 0; s < sources; ++s) {
    sim.schedule(rng.exponential(1.0), s);
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < target_events; ++i) {
    record.peak_pending = std::max(record.peak_pending, sim.pending_events());
    const std::uint64_t source = sim.next();
    sim.schedule(rng.exponential(1.0), source);
  }
  const auto finish = std::chrono::steady_clock::now();
  record.events_executed = sim.executed_events();
  record.wall_seconds = std::chrono::duration<double>(finish - start).count();
  return record;
}

constexpr std::uint64_t kTreeMeasured = 10000;
constexpr std::uint64_t kTreeWarmup = 2000;
constexpr int kTreeRepeats = 5;

struct TreeRunRecord {
  std::string name;
  std::uint64_t messages = 0;  ///< measured + warm-up deliveries
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;   ///< median over the repeats
  double mean_latency_us = 0.0;

  double ns_per_message() const {
    return wall_seconds * 1e9 / static_cast<double>(messages);
  }
  double ns_per_event() const {
    return wall_seconds * 1e9 / static_cast<double>(events_executed);
  }
};

TreeRunRecord run_tree(const std::string& name,
                       const analytic::ModelTree& tree, std::uint64_t seed) {
  TreeRunRecord record;
  record.name = name;
  std::vector<double> seconds;
  for (int repeat = 0; repeat < kTreeRepeats; ++repeat) {
    sim::SimOptions options;
    options.measured_messages = kTreeMeasured;
    options.warmup_messages = kTreeWarmup;
    options.seed = seed;
    const auto start = std::chrono::steady_clock::now();
    sim::TreeSim simulator(tree, options);
    const sim::SimResult result = simulator.run();
    const auto finish = std::chrono::steady_clock::now();
    seconds.push_back(std::chrono::duration<double>(finish - start).count());
    if (repeat == 0) {
      record.messages = result.messages_measured + kTreeWarmup;
      record.events_executed = result.events_executed;
      record.mean_latency_us = result.mean_latency_us;
    }
    require(result.mean_latency_us == record.mean_latency_us &&
                result.events_executed == record.events_executed,
            [&] { return "engine_throughput: repeats of " + name + " differ"; });
  }
  std::nth_element(seconds.begin(), seconds.begin() + kTreeRepeats / 2,
                   seconds.end());
  record.wall_seconds = seconds[kTreeRepeats / 2];
  return record;
}

std::vector<TreeRunRecord> run_tree_sims(std::uint64_t seed) {
  std::vector<TreeRunRecord> runs;
  const struct {
    analytic::NetworkArchitecture architecture;
    const char* name;
  } architectures[] = {
      {analytic::NetworkArchitecture::kNonBlocking, "nonblocking"},
      {analytic::NetworkArchitecture::kBlocking, "blocking"},
  };
  for (const auto& arch : architectures) {
    for (const std::uint32_t clusters : {2u, 16u, 64u}) {
      const analytic::SystemConfig config = analytic::paper_scenario(
          analytic::HeterogeneityCase::kCase1, clusters, arch.architecture,
          1024.0);
      runs.push_back(run_tree("flat_case1_" + std::string(arch.name) + "_C" +
                                  std::to_string(clusters),
                              analytic::ModelTree::from_system(config), seed));
    }
  }
  const std::string path =
      HMCS_SOURCE_DIR "/configs/trees/heterogeneous_campuses.json";
  std::ifstream in(path);
  require(in.good(), [&] { return "engine_throughput: cannot read " + path; });
  std::stringstream text;
  text << in.rdbuf();
  runs.push_back(run_tree("heterogeneous_campuses",
                          analytic::load_model_tree(text.str()), seed));
  return runs;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("engine_throughput",
                "Event-engine throughput benchmark; writes a JSON record.");
  cli.add_option("sources", "number of concurrent event chains", "16384");
  cli.add_option("events", "events to execute per driver", "2000000");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("out", "output JSON path", "BENCH_engine.json");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.help_text().c_str());
    return 0;
  }
  const auto sources = static_cast<std::uint64_t>(cli.get_int("sources"));
  const auto events = static_cast<std::uint64_t>(cli.get_int("events"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string out_path = cli.get_string("out");

  const std::vector<RunRecord> runs{run_steady_churn(sources, events, seed)};
  const std::vector<TreeRunRecord> tree_runs = run_tree_sims(seed);

  JsonWriter json;
  json.begin_object();
  json.key("benchmark").value("engine_throughput");
  json.key("sources").value(sources);
  json.key("events_target").value(events);
  json.key("seed").value(seed);
  json.key("cpu").value(bench::cpu_model());
  json.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("runs").begin_array();
  for (const RunRecord& run : runs) {
    json.begin_object();
    json.key("name").value(run.name);
    json.key("events_executed").value(run.events_executed);
    json.key("wall_seconds").value(run.wall_seconds);
    json.key("events_per_second").value(run.events_per_second());
    json.key("ns_per_event").value(run.ns_per_event());
    json.key("peak_pending_events")
        .value(static_cast<std::uint64_t>(run.peak_pending));
    json.end_object();
  }
  json.end_array();
  json.key("tree_sim").begin_object();
  json.key("measured_messages").value(kTreeMeasured);
  json.key("warmup_messages").value(kTreeWarmup);
  json.key("repeats").value(static_cast<std::uint64_t>(kTreeRepeats));
  json.key("runs").begin_array();
  for (const TreeRunRecord& run : tree_runs) {
    json.begin_object();
    json.key("name").value(run.name);
    json.key("messages").value(run.messages);
    json.key("events_executed").value(run.events_executed);
    json.key("wall_seconds").value(run.wall_seconds);
    json.key("ns_per_message").value(run.ns_per_message());
    json.key("ns_per_event").value(run.ns_per_event());
    json.key("mean_latency_us").value(run.mean_latency_us);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  require(out.good(), "engine_throughput: cannot write '" + out_path + "'");
  out << json.str() << "\n";

  for (const RunRecord& run : runs) {
    std::printf("%-12s %9.1f ns/event  %12.0f events/s  peak pending %zu\n",
                run.name.c_str(), run.ns_per_event(), run.events_per_second(),
                run.peak_pending);
  }
  for (const TreeRunRecord& run : tree_runs) {
    std::printf("%-30s %7.1f ns/message %6.1f ns/event  mean %.17g us\n",
                run.name.c_str(), run.ns_per_message(), run.ns_per_event(),
                run.mean_latency_us);
  }
  std::printf("record written to %s\n", out_path.c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
