#pragma once

/// \file server.hpp
/// The TCP front-end of hmcs_serve: JSON-lines over a plain socket.
/// One reader thread per connection splits the byte stream into lines
/// and submits each to the worker pool; replies are written back
/// on the same socket under a per-connection write mutex (replies may
/// be reordered relative to requests — correlate with "id").
///
/// Graceful drain (SIGINT): the accept loop stops, every reader
/// performs one final non-blocking slurp of bytes the client already
/// sent and submits the remaining complete lines, the pool runs every
/// accepted request to completion, and only then do sockets close — so
/// a drain loses zero accepted-but-unanswered requests. Requests the
/// bounded queue refuses are answered immediately with a "shed" reply
/// instead of being silently dropped.
///
/// Connection hardening (docs/SERVING.md "Connection limits &
/// timeouts"): a connection that sends nothing for idle_timeout_ms —
/// or stalls mid-line for read_timeout_ms — is answered with a
/// structured error and evicted, so a slow or hostile client cannot
/// hold a reader forever; a line longer than max_line_bytes gets an
/// error reply instead of unbounded buffering; and when
/// max_connections is reached the oldest-idle connection is evicted to
/// make room. All socket I/O is EINTR- and partial-transfer-safe
/// (util::send_all / util::recv_some).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hmcs/serve/service.hpp"
#include "hmcs/serve/thread_pool.hpp"
#include "hmcs/util/cancel.hpp"

namespace hmcs::serve {

class ServeServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;     ///< 0 = ephemeral (read back via port())
    std::uint32_t threads = 0;  ///< pool size; 0 = hardware concurrency
    std::size_t queue_limit = 1024;
    /// A connection whose current line exceeds this is answered with a
    /// structured error and dropped (it can never complete, and an
    /// unbounded buffer is a memory DoS).
    std::size_t max_line_bytes = 1u << 20;
    /// Evict a connection that has sent no bytes for this long
    /// (0 = never). The eviction is announced with an error reply.
    unsigned idle_timeout_ms = 0;
    /// Evict a connection whose started-but-incomplete line has
    /// stalled for this long (0 = never). Separate from the idle
    /// deadline because a half-sent request is a stronger signal of a
    /// broken client than silence between requests.
    unsigned read_timeout_ms = 0;
    /// Concurrent-connection cap (0 = unlimited). An accept beyond the
    /// cap evicts the connection that has been idle longest.
    std::size_t max_connections = 0;
    ServeService::Options service;
    /// External stop signal (the SIGINT token): when it cancels, the
    /// accept loop initiates the same graceful drain as shutdown().
    const util::CancelToken* stop = nullptr;
  };

  explicit ServeServer(const Options& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds and listens; returns the bound port (resolves port 0).
  std::uint16_t start();
  std::uint16_t port() const { return port_; }

  /// Accepts and serves until shutdown() or the stop token fires;
  /// returns only after the graceful drain completes.
  void serve();

  /// Initiates the graceful drain from any thread. serve() returns
  /// once every accepted request has been answered.
  void shutdown() { stopping_.store(true, std::memory_order_relaxed); }

  ServeService& service() { return service_; }

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t lines = 0;  ///< request lines read off sockets
    std::uint64_t shed = 0;
    std::uint64_t timeout_evicted = 0;  ///< idle/read deadline hits
    std::uint64_t limit_evicted = 0;    ///< oldest-idle cap evictions
    std::uint64_t oversized = 0;        ///< over-long request lines
  };
  Stats stats() const;

 private:
  struct Connection {
    explicit Connection(int descriptor) : fd(descriptor) {}
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
    int fd = -1;
    std::mutex write_mutex;
    /// Steady-clock ms of the last byte received; the oldest-idle
    /// eviction key.
    std::atomic<std::uint64_t> last_activity_ms{0};
    /// Set by the accept loop when this connection loses the
    /// oldest-idle eviction; its reader notices within one poll tick.
    std::atomic<bool> evict{false};
  };

  /// One reader thread plus its completion flag, so the accept loop
  /// can reap finished readers instead of accumulating joinable
  /// threads for the daemon's lifetime.
  struct Reader {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void connection_loop(const std::shared_ptr<Connection>& connection);
  /// Reaps finished readers and prunes dead connection slots; then, if
  /// the live count is at the cap, flags the oldest-idle connection
  /// for eviction. Caller holds connections_mutex_.
  void enforce_connection_limit_locked();
  /// Consumes every complete line in `buffer`, dispatching each.
  void dispatch_lines(const std::shared_ptr<Connection>& connection,
                      std::string& buffer);
  void dispatch_line(const std::shared_ptr<Connection>& connection,
                     std::string line);
  void write_line(Connection& connection, std::string_view reply);

  Options options_;
  ServeService service_;
  ThreadPool pool_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex connections_mutex_;
  std::vector<Reader> readers_;
  std::vector<std::weak_ptr<Connection>> live_connections_;
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> lines_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timeout_evicted_{0};
  std::atomic<std::uint64_t> limit_evicted_{0};
  std::atomic<std::uint64_t> oversized_{0};
};

}  // namespace hmcs::serve
