// google-benchmark microbenchmarks for the engine-level substrates:
// event-queue throughput, RNG sampling, M/M/1 maths, MVA solve cost,
// full analytical prediction, max-flow bisection measurement, and
// end-to-end simulator throughput. These quantify the claim that the
// analytical model is orders of magnitude cheaper than simulation —
// the paper's core motivation for analytical modelling.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/mva.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/sim/multicluster_sim.hpp"
#include "hmcs/simcore/event_queue.hpp"
#include "hmcs/simcore/rng.hpp"
#include "hmcs/topology/bisection.hpp"
#include "hmcs/topology/fat_tree.hpp"

namespace {

using namespace hmcs;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto horizon = static_cast<std::size_t>(state.range(0));
  simcore::EventQueue queue;
  simcore::Rng rng(1);
  // Steady-state churn at `horizon` pending 8-byte events.
  for (std::size_t i = 0; i < horizon; ++i) {
    queue.push(rng.uniform(0.0, 1000.0), i);
  }
  for (auto _ : state) {
    const auto event = queue.pop_next();
    queue.push(event->time + rng.uniform(0.0, 1000.0), event->payload);
    benchmark::DoNotOptimize(event->payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_RngExponential(benchmark::State& state) {
  simcore::Rng rng(7);
  double sink = 0.0;
  for (auto _ : state) {
    sink += rng.exponential(4000.0);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void BM_RngUniformBelow(benchmark::State& state) {
  simcore::Rng rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += rng.uniform_below(255);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniformBelow);

void BM_MvaSolve(benchmark::State& state) {
  const auto clusters = static_cast<std::uint32_t>(state.range(0));
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, clusters,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0);
  const analytic::CenterServiceTimes service =
      analytic::center_service_times(config);
  const analytic::HmcsMvaLayout layout =
      analytic::build_hmcs_mva_layout(config, service);
  for (auto _ : state) {
    const auto result = analytic::solve_closed_mva(
        layout.stations, 1.0 / config.generation_rate_per_us,
        config.total_nodes());
    benchmark::DoNotOptimize(result.throughput);
  }
}
BENCHMARK(BM_MvaSolve)->Arg(4)->Arg(64)->Arg(256);

void BM_PredictLatency(benchmark::State& state) {
  const bool mva = state.range(0) != 0;
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, 16,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0);
  analytic::ModelOptions options;
  if (mva) options.fixed_point.method = analytic::SourceThrottling::kExactMva;
  for (auto _ : state) {
    const auto prediction = analytic::predict_latency(config, options);
    benchmark::DoNotOptimize(prediction.mean_latency_us);
  }
  state.SetLabel(mva ? "exact-mva" : "paper-bisection");
}
BENCHMARK(BM_PredictLatency)->Arg(0)->Arg(1);

void BM_FatTreeBisectionMaxflow(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const topology::FatTree tree(n, 24);
  for (auto _ : state) {
    const auto graph = tree.build_graph();
    benchmark::DoNotOptimize(topology::measured_bisection_cables(graph));
  }
}
BENCHMARK(BM_FatTreeBisectionMaxflow)->Arg(48)->Arg(288);

void BM_SimulatorRun(benchmark::State& state) {
  const auto clusters = static_cast<std::uint32_t>(state.range(0));
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, clusters,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0);
  std::uint64_t seed = 1;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    sim::SimOptions options;
    options.measured_messages = 2000;
    options.warmup_messages = 200;
    options.seed = seed++;
    sim::MultiClusterSim simulator(config, options);
    const auto result = simulator.run();
    messages += result.messages_measured;
    benchmark::DoNotOptimize(result.mean_latency_us);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_SimulatorRun)->Arg(4)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // End-to-end engine throughput: items/sec here is *events executed*
  // per second across a full simulator run, the figure the engine
  // rewrite is meant to move.
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase2, 8,
      analytic::NetworkArchitecture::kBlocking, 4096.0);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::SimOptions options;
    options.measured_messages = 2000;
    options.warmup_messages = 200;
    options.seed = seed++;
    sim::MultiClusterSim simulator(config, options);
    const auto result = simulator.run();
    events += result.events_executed;
    benchmark::DoNotOptimize(result.mean_latency_us);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
