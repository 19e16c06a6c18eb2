// hmcs_serve — the model-as-a-service daemon: accepts JSON-lines
// queries over TCP (one SystemConfig + backend per line, the sweep
// vocabulary), evaluates them on a bounded worker pool, and answers from
// a sharded LRU result cache with single-flight coalescing of duplicate
// in-flight keys. See docs/SERVING.md for the protocol.
//
//   $ ./hmcs_serve --port 7777
//   $ ./hmcs_serve --port 0            # ephemeral; port printed on stdout
//   $ echo '{"config":{"clusters":8}}' | nc 127.0.0.1 <port>
//
// The first stdout line is "hmcs_serve listening on <host>:<port>" so
// scripts can scrape the bound port. SIGINT drains gracefully: the
// accept loop stops, every accepted request is answered, and the
// process exits 130. Exit codes: 0 clean shutdown request, 1
// configuration errors, 130 SIGINT drain.

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>

#include "hmcs/obs/export.hpp"
#include "hmcs/obs/metrics.hpp"
#include "hmcs/obs/trace.hpp"
#include "hmcs/serve/chaos.hpp"
#include "hmcs/serve/server.hpp"
#include "hmcs/serve/snapshot.hpp"
#include "hmcs/util/cancel.hpp"
#include "hmcs/util/cli.hpp"

namespace {

hmcs::util::CancelToken g_interrupt;

extern "C" void handle_sigint(int) { g_interrupt.cancel(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hmcs;

  CliParser cli("hmcs_serve", "model-as-a-service query daemon");
  cli.add_option("host", "bind address", "127.0.0.1");
  cli.add_option("port", "TCP port (0 = ephemeral, printed on stdout)", "0");
  cli.add_option("threads", "worker threads (0 = hardware concurrency)", "0");
  cli.add_option("queue-limit",
                 "max queued requests before shedding (backpressure)",
                 "1024");
  cli.add_option("cache-capacity", "result cache entries", "4096");
  cli.add_option("cache-shards", "result cache shards", "8");
  cli.add_option("default-deadline-ms",
                 "per-request deadline when the request has none (0 = "
                 "none)", "0");
  cli.add_option("obs-out", "directory for observability artifacts "
                            "written at shutdown", "");
  cli.add_option("access-log",
                 "structured JSON-lines access log path (one line per "
                 "request; off-thread, shed-not-block)", "");
  cli.add_option("red-window",
                 "rolling RED window width in seconds (stats op)", "60");
  cli.add_option("cache-snapshot",
                 "durable cache snapshot path: reloaded (tolerantly) at "
                 "startup, written atomically on drain", "");
  cli.add_option("snapshot-interval-ms",
                 "also snapshot the cache every N ms (0 = only on drain)",
                 "0");
  cli.add_option("idle-timeout-ms",
                 "evict a connection with no traffic for this long "
                 "(0 = never)", "0");
  cli.add_option("read-timeout-ms",
                 "evict a connection whose partial request stalls this "
                 "long (0 = never)", "0");
  cli.add_option("max-connections",
                 "concurrent connection cap; beyond it the oldest-idle "
                 "connection is evicted (0 = unlimited)", "0");
  cli.add_option("max-line-bytes",
                 "request lines beyond this get a structured error and "
                 "the connection is dropped", "1048576");
  cli.add_option("chaos-seed", "fault-injection stream seed", "1");
  cli.add_option("chaos-shed-prob",
                 "probability a request is answered 'shed' by fault "
                 "injection", "0");
  cli.add_option("chaos-eval-delay-prob",
                 "probability an evaluation is delayed by fault injection",
                 "0");
  cli.add_option("chaos-eval-delay-ms",
                 "injected evaluation delay in milliseconds", "0");
  cli.add_option("chaos-eval-error-prob",
                 "probability an evaluation fails by fault injection", "0");
  cli.add_option("chaos-snapshot-fail-prob",
                 "probability a snapshot save fails by fault injection",
                 "0");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }

    serve::ServeServer::Options options;
    options.host = cli.get_string("host");
    options.port = static_cast<std::uint16_t>(cli.get_uint("port"));
    options.threads = static_cast<std::uint32_t>(cli.get_uint("threads"));
    options.queue_limit = static_cast<std::size_t>(
        cli.get_uint("queue-limit"));
    options.service.cache.capacity = static_cast<std::size_t>(
        cli.get_uint("cache-capacity"));
    options.service.cache.shards = static_cast<std::size_t>(
        cli.get_uint("cache-shards"));
    options.service.default_deadline_ms =
        cli.get_double("default-deadline-ms");
    require(options.service.default_deadline_ms >= 0.0,
            "hmcs_serve: --default-deadline-ms must be >= 0");
    options.stop = &g_interrupt;

    options.service.red_window_seconds =
        static_cast<unsigned>(cli.get_uint("red-window"));
    require(options.service.red_window_seconds >= 1,
            "hmcs_serve: --red-window must be >= 1");

    options.idle_timeout_ms =
        static_cast<unsigned>(cli.get_uint("idle-timeout-ms"));
    options.read_timeout_ms =
        static_cast<unsigned>(cli.get_uint("read-timeout-ms"));
    options.max_connections =
        static_cast<std::size_t>(cli.get_uint("max-connections"));
    options.max_line_bytes =
        static_cast<std::size_t>(cli.get_uint("max-line-bytes"));
    require(options.max_line_bytes >= 1,
            "hmcs_serve: --max-line-bytes must be >= 1");

    serve::FaultPlan plan;
    plan.seed = cli.get_uint("chaos-seed");
    plan.shed_prob = cli.get_double("chaos-shed-prob");
    plan.eval_delay_prob = cli.get_double("chaos-eval-delay-prob");
    plan.eval_delay_ms = cli.get_double("chaos-eval-delay-ms");
    plan.eval_error_prob = cli.get_double("chaos-eval-error-prob");
    plan.snapshot_fail_prob = cli.get_double("chaos-snapshot-fail-prob");
    for (const double prob :
         {plan.shed_prob, plan.eval_delay_prob, plan.eval_error_prob,
          plan.snapshot_fail_prob}) {
      require(prob >= 0.0 && prob <= 1.0,
              "hmcs_serve: --chaos-*-prob values must be in [0, 1]");
    }
    require(plan.eval_delay_ms >= 0.0,
            "hmcs_serve: --chaos-eval-delay-ms must be >= 0");
    auto chaos = std::make_shared<serve::ChaosInjector>(plan);
    options.service.chaos = chaos;

    const std::string obs_dir = cli.get_string("obs-out");
    std::shared_ptr<obs::TraceSession> trace;
    if (!obs_dir.empty()) {
      trace = std::make_shared<obs::TraceSession>();
      options.service.trace = trace;
    }

    const std::string access_log_path = cli.get_string("access-log");
    if (!access_log_path.empty()) {
      serve::AccessLog::Options log_options;
      log_options.path = access_log_path;
      options.service.access_log =
          std::make_shared<serve::AccessLog>(log_options);
    }

    serve::ServeServer server(options);

    // Warm restart: replay the previous process's snapshot before the
    // socket opens, so the very first request can hit. A corrupt or
    // stale snapshot degrades to a (partially) cold start — skipped
    // lines are counted and reported, never fatal.
    const std::string snapshot_path = cli.get_string("cache-snapshot");
    const auto snapshot_interval_ms =
        static_cast<unsigned>(cli.get_uint("snapshot-interval-ms"));
    require(snapshot_interval_ms == 0 || !snapshot_path.empty(),
            "hmcs_serve: --snapshot-interval-ms needs --cache-snapshot");
    std::unique_ptr<serve::SnapshotWriter> snapshots;
    if (!snapshot_path.empty()) {
      const serve::SnapshotLoadReport loaded = serve::load_cache_snapshot(
          server.service().cache(), snapshot_path,
          {.max_line_bytes = options.max_line_bytes});
      if (loaded.found) {
        std::cerr << "hmcs_serve: cache snapshot loaded from "
                  << snapshot_path << ": " << loaded.loaded << " entries, "
                  << loaded.skipped << " lines skipped";
        if (!loaded.warning.empty()) {
          std::cerr << " (first: " << loaded.warning << ")";
        }
        std::cerr << "\n";
      } else {
        std::cerr << "hmcs_serve: no cache snapshot at " << snapshot_path
                  << "; starting cold\n";
      }
      serve::SnapshotWriter::Options writer_options;
      writer_options.path = snapshot_path;
      writer_options.interval_ms = snapshot_interval_ms;
      writer_options.chaos = chaos.get();
      snapshots = std::make_unique<serve::SnapshotWriter>(
          server.service().cache(), writer_options);
    }

    const std::uint16_t port = server.start();
    std::cout << "hmcs_serve listening on " << options.host << ":" << port
              << "\n";
    std::cout.flush();

    std::signal(SIGINT, handle_sigint);
    server.serve();

    if (snapshots != nullptr) {
      snapshots->stop();
      const serve::SnapshotSaveReport saved = snapshots->save_now();
      if (saved.ok) {
        std::cerr << "hmcs_serve: cache snapshot written to "
                  << snapshot_path << ": " << saved.entries << " entries, "
                  << saved.bytes << " bytes\n";
      } else {
        std::cerr << "hmcs_serve: cache snapshot save failed: "
                  << saved.error << "\n";
      }
    }

    const serve::ServeService::Counters counters =
        server.service().counters();
    const serve::ShardedResultCache::Stats cache =
        server.service().cache_stats();
    std::cerr << "hmcs_serve: drained; " << counters.requests
              << " requests (" << counters.ok << " ok, " << counters.errors
              << " errors, " << counters.timed_out << " timed out, "
              << counters.shed << " shed), cache " << cache.hits << " hits / "
              << cache.misses << " misses, " << counters.coalesced
              << " coalesced\n";

    if (options.service.access_log) {
      options.service.access_log->flush();
      const serve::AccessLog::Stats log = options.service.access_log->stats();
      std::cerr << "access log: " << log.written << " lines written, "
                << log.shed << " shed\n";
    }

    if (!obs_dir.empty()) {
      obs::write_run_artifacts(obs_dir, obs::Registry::global().snapshot(),
                               trace.get());
      std::cerr << "observability artifacts written to " << obs_dir << "\n";
    }
    return g_interrupt.cancelled() ? 130 : 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
