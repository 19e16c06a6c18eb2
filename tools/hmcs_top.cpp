// hmcs_top — a polling terminal dashboard over a running hmcs_serve
// daemon. Each tick issues the `stats` admin op (JSON) and renders live
// qps, hit rate, tail latency (rolling RED window), pool saturation,
// and shard occupancy; `--metrics` instead fetches one Prometheus text
// exposition via the `metrics` op and prints it (scrape-debug mode).
//
//   $ ./hmcs_top --port 7777                 # refresh every second
//   $ ./hmcs_top --port 7777 --interval-ms 250
//   $ ./hmcs_top --port 7777 --iterations 1  # one snapshot, no clear
//   $ ./hmcs_top --port 7777 --metrics       # Prometheus text, then exit
//   $ ./hmcs_top --port 7777 --json          # raw stats reply, then exit
//
// Exit codes: 0 success (including Ctrl-C between polls), 1 usage or
// connection errors.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "hmcs/util/cli.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

/// One blocking JSON-lines client connection (same shape as loadgen's).
class Client {
 public:
  Client(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(fd_ >= 0, "hmcs_top: socket() failed");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    require(::inet_pton(AF_INET, host.c_str(), &address.sin_addr) == 1,
            "hmcs_top: bad host '" + host + "'");
    require(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                      sizeof address) == 0,
            "hmcs_top: connect to " + host + ":" + std::to_string(port) +
                " failed: " + std::strerror(errno));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string round_trip(const std::string& line) {
    std::string frame = line;
    frame.push_back('\n');
    std::size_t written = 0;
    while (written < frame.size()) {
      const ssize_t sent = ::send(fd_, frame.data() + written,
                                  frame.size() - written, MSG_NOSIGNAL);
      require(sent > 0, "hmcs_top: send failed");
      written += static_cast<std::size_t>(sent);
    }
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string reply = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return reply;
      }
      char chunk[4096];
      const ssize_t received = ::recv(fd_, chunk, sizeof chunk, 0);
      require(received > 0, "hmcs_top: server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(received));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A stats counter, 0 when the daemon does not report it.
double number_at(const JsonValue& object, const char* key) {
  return number_member(object, key, 0.0, "hmcs_top");
}

void render(const JsonValue& stats, double client_qps) {
  const JsonValue& serve = stats.at("serve");
  const JsonValue& cache = stats.at("cache");
  const JsonValue& red = stats.at("red");
  const JsonValue& latency = stats.at("latency");
  const JsonValue& pool = stats.at("pool");

  const double hits = number_at(cache, "hits");
  const double misses = number_at(cache, "misses");
  const double hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const double queued = number_at(pool, "queued");
  const double limit = number_at(pool, "queue_limit");

  std::printf("hmcs_serve · up %.0f s\n", number_at(stats, "uptime_s"));
  std::printf(
      "requests  %10.0f total   ok %.0f  errors %.0f  timed_out %.0f  "
      "bad %.0f  shed %.0f\n",
      number_at(serve, "requests"), number_at(serve, "ok"),
      number_at(serve, "errors"), number_at(serve, "timed_out"),
      number_at(serve, "bad_requests"), number_at(serve, "shed"));
  std::printf(
      "rate      %10.1f qps (window %.1fs)   client-side %.1f qps   "
      "error rate %.4f\n",
      number_at(red, "rate_per_s"), number_at(red, "window_s"), client_qps,
      number_at(red, "error_rate"));
  std::printf(
      "latency   p50 %8.1f us   p90 %8.1f us   p99 %8.1f us   p99.9 "
      "%8.1f us   max %8.1f us\n",
      number_at(red, "p50_us"), number_at(red, "p90_us"),
      number_at(red, "p99_us"), number_at(red, "p999_us"),
      number_at(red, "max_us"));
  std::printf(
      "lifetime  p50 %8.1f us   p90 %8.1f us   p99 %8.1f us   over %.0f "
      "requests\n",
      number_at(latency, "p50_us"), number_at(latency, "p90_us"),
      number_at(latency, "p99_us"), number_at(latency, "count"));
  std::printf(
      "cache     %10.0f entries   hit rate %.3f   %0.f insertions  %.0f "
      "evictions\n",
      number_at(cache, "entries"), hit_rate, number_at(cache, "insertions"),
      number_at(cache, "evictions"));
  if (const JsonValue* shards = cache.find("shard_entries")) {
    std::printf("shards   ");
    for (const JsonValue& entry : shards->items) {
      std::printf(" %4.0f", entry.as_number());
    }
    std::printf("\n");
  }
  std::printf(
      "pool      %10.0f queued / %.0f limit (%.0f%%)   %.0f threads   "
      "inflight keys %.0f\n",
      queued, limit, limit > 0.0 ? 100.0 * queued / limit : 0.0,
      number_at(pool, "threads"), number_at(stats, "inflight_keys"));
  if (const JsonValue* log = stats.find("access_log")) {
    std::printf("accesslog %10.0f written   %.0f shed\n",
                number_at(*log, "written"), number_at(*log, "shed"));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("hmcs_top", "live terminal dashboard for hmcs_serve");
  cli.add_option("host", "server address", "127.0.0.1");
  cli.add_option("port", "server port", "0");
  cli.add_option("interval-ms", "poll interval", "1000");
  cli.add_option("iterations", "polls before exiting (0 = until Ctrl-C)",
                 "0");
  cli.add_flag("metrics", "print one Prometheus exposition (the `metrics` "
                          "op body) and exit");
  cli.add_flag("json", "print one raw stats reply and exit");
  try {
    if (!cli.parse(argc, argv)) {
      std::cout << cli.help_text();
      return 0;
    }
    const std::string host = cli.get_string("host");
    const auto port = static_cast<std::uint16_t>(cli.get_uint("port"));
    require(port != 0, "hmcs_top: --port is required");
    const auto interval_ms = cli.get_uint("interval-ms");
    const std::size_t iterations = cli.get_uint("iterations");

    Client client(host, port);

    if (cli.get_flag("metrics")) {
      const JsonValue reply =
          parse_json(client.round_trip(R"({"op":"metrics"})"));
      require(reply.at("status").as_string() == "ok",
              "hmcs_top: metrics op failed");
      std::cout << reply.at("body").as_string();
      return 0;
    }
    if (cli.get_flag("json")) {
      std::cout << client.round_trip(R"({"op":"stats"})") << "\n";
      return 0;
    }

    double last_requests = -1.0;
    auto last_tick = std::chrono::steady_clock::now();
    for (std::size_t tick = 0; iterations == 0 || tick < iterations; ++tick) {
      const JsonValue stats =
          parse_json(client.round_trip(R"({"op":"stats"})"));
      const auto now = std::chrono::steady_clock::now();
      const double dt =
          std::chrono::duration<double>(now - last_tick).count();
      const double requests = number_at(stats.at("serve"), "requests");
      // Client-side qps from the counter delta between our own polls —
      // a cross-check on the server's windowed rate.
      const double client_qps =
          last_requests >= 0.0 && dt > 0.0
              ? (requests - last_requests) / dt
              : 0.0;
      last_requests = requests;
      last_tick = now;

      const bool looping = iterations != 1;
      if (looping && tick > 0) std::printf("\x1b[2J\x1b[H");
      render(stats, client_qps);
      if (iterations == 0 || tick + 1 < iterations) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
