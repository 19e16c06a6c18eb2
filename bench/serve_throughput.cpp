// In-process benchmark of the hmcs_serve service layer (no sockets):
// measures cold evaluation latency, warm cache-hit latency, the
// warm/cold speedup, multi-threaded warm throughput, and single-flight
// coalescing under concurrent duplicate keys. Writes BENCH_serve.json
// so CI and the performance docs can track the serving path.
//
// The workload mirrors hmcs_loadgen's default: exact MVA over a large
// closed network, so a cold evaluation costs real milliseconds and the
// cache's value is visible.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hmcs/serve/service.hpp"
#include "hmcs/util/cli.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

std::string make_request(std::size_t key, std::uint64_t total_nodes,
                         const std::string& model) {
  JsonWriter json;
  json.begin_object();
  std::string id = "k";
  id += std::to_string(key);
  json.key("id").value(id);
  json.key("backend").begin_object();
  json.key("type").value("analytic");
  json.key("model").value(model);
  json.end_object();
  json.key("config").begin_object();
  json.key("clusters").value(16u);
  json.key("total_nodes").value(total_nodes);
  json.key("message_bytes").value(1024.0 + 16.0 * static_cast<double>(key));
  json.key("lambda_per_s").value(250.0);
  json.end_object();
  json.end_object();
  return json.str();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("serve_throughput",
                "In-process serve-layer benchmark; writes a JSON record.");
  cli.add_option("keys", "distinct request configurations", "16");
  cli.add_option("warm-iterations", "hit-path repeats per key", "64");
  cli.add_option("threads", "threads for the warm throughput phase", "8");
  cli.add_option("total-nodes", "nodes per generated config", "1048576");
  cli.add_option("model", "analytic throttling model", "mva");
  cli.add_option("out", "output JSON path", "BENCH_serve.json");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.help_text().c_str());
    return 0;
  }
  const std::size_t keys = std::max<std::size_t>(1, cli.get_uint("keys"));
  const std::size_t warm_iterations =
      std::max<std::size_t>(1, cli.get_uint("warm-iterations"));
  const std::size_t threads = std::max<std::size_t>(1, cli.get_uint("threads"));
  const std::uint64_t total_nodes = cli.get_uint("total-nodes");
  const std::string model = cli.get_string("model");
  const std::string out_path = cli.get_string("out");

  std::vector<std::string> requests;
  for (std::size_t key = 0; key < keys; ++key) {
    requests.push_back(make_request(key, total_nodes, model));
  }

  serve::ServeService service({});

  // Phase 1: cold — every key evaluated once, cache empty.
  std::vector<std::string> cold_replies(keys);
  std::vector<double> cold_us;
  for (std::size_t key = 0; key < keys; ++key) {
    const double start = now_us();
    cold_replies[key] = service.handle_line(requests[key]);
    cold_us.push_back(now_us() - start);
    require(cold_replies[key].find("\"status\":\"ok\"") != std::string::npos,
            "serve_throughput: cold reply not ok: " + cold_replies[key]);
  }

  // Phase 2: warm — every key repeated, single thread, must hit the
  // cache and reproduce the cold bytes.
  std::vector<double> warm_us;
  for (std::size_t round = 0; round < warm_iterations; ++round) {
    for (std::size_t key = 0; key < keys; ++key) {
      const double start = now_us();
      const std::string reply = service.handle_line(requests[key]);
      warm_us.push_back(now_us() - start);
      require(reply == cold_replies[key],
              "serve_throughput: warm reply differs from cold");
    }
  }

  // Phase 3: warm throughput — all threads hammer the cached keys.
  std::atomic<std::uint64_t> warm_requests{0};
  const double throughput_start = now_us();
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t round = 0; round < warm_iterations; ++round) {
          for (std::size_t key = t; key < keys; key += threads) {
            service.handle_line(requests[key]);
            warm_requests.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double throughput_seconds = (now_us() - throughput_start) / 1e6;
  const double warm_per_second =
      throughput_seconds > 0.0
          ? static_cast<double>(warm_requests.load()) / throughput_seconds
          : 0.0;

  // Phase 4: coalescing — a fresh service, all threads ask for the SAME
  // new key at once; single-flight must run exactly one evaluation.
  serve::ServeService coalesce_service({});
  const std::string shared = make_request(keys + 1, total_nodes, model);
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] { coalesce_service.handle_line(shared); });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const serve::ServeService::Counters coalesce =
      coalesce_service.counters();

  const double cold_p50 = percentile(cold_us, 0.50);
  const double warm_p50 = percentile(warm_us, 0.50);
  const double speedup = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;
  const serve::ShardedResultCache::Stats cache = service.cache_stats();

  JsonWriter json;
  json.begin_object();
  json.key("benchmark").value("serve_throughput");
  json.key("keys").value(static_cast<std::uint64_t>(keys));
  json.key("warm_iterations").value(static_cast<std::uint64_t>(warm_iterations));
  json.key("threads").value(static_cast<std::uint64_t>(threads));
  json.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("total_nodes").value(total_nodes);
  json.key("model").value(model);
  json.key("cold_p50_us").value(cold_p50);
  json.key("cold_p95_us").value(percentile(cold_us, 0.95));
  json.key("cold_p99_us").value(percentile(cold_us, 0.99));
  json.key("cold_max_us").value(percentile(cold_us, 1.0));
  json.key("warm_p50_us").value(warm_p50);
  json.key("warm_p95_us").value(percentile(warm_us, 0.95));
  json.key("warm_p99_us").value(percentile(warm_us, 0.99));
  json.key("warm_max_us").value(percentile(warm_us, 1.0));
  json.key("warm_speedup_p50").value(speedup);
  json.key("warm_requests_per_second").value(warm_per_second);
  json.key("cache_hits").value(cache.hits);
  json.key("cache_misses").value(cache.misses);
  json.key("coalesce_threads").value(static_cast<std::uint64_t>(threads));
  json.key("coalesce_evaluations").value(coalesce.evaluations);
  json.key("coalesce_joined").value(coalesce.coalesced);
  json.end_object();

  std::ofstream out(out_path);
  require(out.good(), "serve_throughput: cannot write '" + out_path + "'");
  out << json.str() << "\n";

  std::printf("cold p50 %.1f us, warm p50 %.2f us, speedup %.0fx\n", cold_p50,
              warm_p50, speedup);
  std::printf("warm throughput %.0f requests/s over %zu threads\n",
              warm_per_second, threads);
  std::printf("coalescing: %llu evaluations for %zu concurrent duplicates\n",
              static_cast<unsigned long long>(coalesce.evaluations), threads);
  std::printf("record written to %s\n", out_path.c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
