#include "hmcs/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/net.hpp"

namespace hmcs::serve {

namespace {

/// Poll interval for the accept/read loops: how quickly a drain, a
/// stop token, an eviction flag, or a timeout is noticed. The sockets
/// stay blocking; poll() just makes every blocking point interruptible.
constexpr int kPollMs = 50;

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A structured single-line error reply for connection-level
/// rejections (timeouts, eviction, oversized lines): the client hears
/// why it is being dropped instead of seeing a bare FIN.
std::string error_line(const std::string& message) {
  JsonWriter json;
  json.begin_object();
  json.key("status").value("error");
  json.key("error").value(message);
  json.end_object();
  return std::move(json).str();
}

}  // namespace

ServeServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

ServeServer::ServeServer(const Options& options)
    : options_(options),
      service_(options.service),
      pool_(options.threads, options.queue_limit) {
  service_.set_pool_status_fn([this] {
    ServeService::PoolStatus status;
    status.queued = pool_.queued();
    status.queue_limit = options_.queue_limit;
    status.threads = pool_.thread_count();
    return status;
  });
}

ServeServer::~ServeServer() {
  shutdown();
  // serve() normally performs the drain; cover construction-only or
  // start()-only lifetimes.
  {
    const std::scoped_lock lock(connections_mutex_);
    for (Reader& reader : readers_) {
      if (reader.thread.joinable()) reader.thread.join();
    }
  }
  pool_.drain();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::uint16_t ServeServer::start() {
  ensure(listen_fd_ < 0, "serve server: start() called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "serve server: socket() failed");

  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  require(::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) == 1,
          "serve server: bad bind address '" + options_.host + "'");
  require(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                 sizeof address) == 0,
          "serve server: bind to " + options_.host + ":" +
              std::to_string(options_.port) + " failed: " +
              std::strerror(errno));
  require(::listen(listen_fd_, 128) == 0, "serve server: listen() failed");

  sockaddr_in bound{};
  socklen_t bound_size = sizeof bound;
  require(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                        &bound_size) == 0,
          "serve server: getsockname() failed");
  port_ = ntohs(bound.sin_port);
  return port_;
}

void ServeServer::serve() {
  ensure(listen_fd_ >= 0, "serve server: serve() before start()");
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (options_.stop != nullptr && options_.stop->cancelled()) break;
    pollfd entry{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&entry, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.connections.accepted");
    auto connection = std::make_shared<Connection>(fd);
    connection->last_activity_ms.store(steady_now_ms(),
                                       std::memory_order_relaxed);
    auto done = std::make_shared<std::atomic<bool>>(false);
    const std::scoped_lock lock(connections_mutex_);
    enforce_connection_limit_locked();
    live_connections_.push_back(connection);
    readers_.push_back(Reader{
        std::thread([this, connection, done] {
          connection_loop(connection);
          done->store(true, std::memory_order_release);
        }),
        done});
  }

  // Graceful drain: stop accepting, let every reader flush the lines
  // it already holds, run every accepted request, then close sockets
  // (readers and queued tasks share Connection ownership, so each fd
  // closes when its last pending reply is written).
  stopping_.store(true, std::memory_order_relaxed);
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    const std::scoped_lock lock(connections_mutex_);
    for (Reader& reader : readers_) {
      if (reader.thread.joinable()) reader.thread.join();
    }
    readers_.clear();
    live_connections_.clear();
  }
  pool_.drain();
}

void ServeServer::enforce_connection_limit_locked() {
  // Reap readers whose loops have exited so a long-lived daemon does
  // not accumulate one joinable thread per connection ever served.
  for (std::size_t i = 0; i < readers_.size();) {
    if (readers_[i].done->load(std::memory_order_acquire)) {
      readers_[i].thread.join();
      readers_[i] = std::move(readers_.back());
      readers_.pop_back();
    } else {
      ++i;
    }
  }
  std::vector<std::shared_ptr<Connection>> live;
  live.reserve(live_connections_.size());
  for (std::size_t i = 0; i < live_connections_.size();) {
    if (auto connection = live_connections_[i].lock()) {
      live.push_back(std::move(connection));
      ++i;
    } else {
      live_connections_[i] = std::move(live_connections_.back());
      live_connections_.pop_back();
    }
  }
  if (options_.max_connections == 0 ||
      live.size() < options_.max_connections) {
    return;
  }
  // Over the cap: flag the connection idle longest (skipping ones
  // already being evicted) and let its reader announce the eviction.
  std::shared_ptr<Connection> oldest;
  std::uint64_t oldest_ms = ~0ull;
  for (const auto& connection : live) {
    if (connection->evict.load(std::memory_order_relaxed)) continue;
    const std::uint64_t last =
        connection->last_activity_ms.load(std::memory_order_relaxed);
    if (last < oldest_ms) {
      oldest_ms = last;
      oldest = connection;
    }
  }
  if (oldest != nullptr) {
    oldest->evict.store(true, std::memory_order_relaxed);
  }
}

void ServeServer::connection_loop(
    const std::shared_ptr<Connection>& connection) {
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (connection->evict.load(std::memory_order_relaxed)) {
      limit_evicted_.fetch_add(1, std::memory_order_relaxed);
      HMCS_OBS_COUNTER_INC("serve.connections.limit_evicted");
      write_line(*connection,
                 error_line("evicted: connection limit reached and this "
                            "connection was idle longest"));
      return;
    }
    // Read/idle deadlines: silence between requests is policed by
    // idle_timeout_ms, a stalled half-sent line by read_timeout_ms.
    const unsigned timeout_ms =
        buffer.empty() ? options_.idle_timeout_ms : options_.read_timeout_ms;
    if (timeout_ms > 0) {
      const std::uint64_t last =
          connection->last_activity_ms.load(std::memory_order_relaxed);
      if (steady_now_ms() - last >= timeout_ms) {
        timeout_evicted_.fetch_add(1, std::memory_order_relaxed);
        HMCS_OBS_COUNTER_INC("serve.connections.timeout_evicted");
        write_line(*connection,
                   error_line(buffer.empty()
                                  ? "idle timeout: no request received"
                                  : "read timeout: request incomplete"));
        return;
      }
    }
    pollfd entry{connection->fd, POLLIN, 0};
    const int ready = ::poll(&entry, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) continue;
    const ssize_t received =
        util::recv_some(connection->fd, chunk, sizeof chunk);
    if (received == 0) break;  // client EOF
    if (received < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(received));
    connection->last_activity_ms.store(steady_now_ms(),
                                       std::memory_order_relaxed);
    dispatch_lines(connection, buffer);
    if (buffer.size() > options_.max_line_bytes) {
      // An over-long line can never complete; answer with a structured
      // error (not a silent close, not a misleading "shed") and drop
      // the link.
      oversized_.fetch_add(1, std::memory_order_relaxed);
      HMCS_OBS_COUNTER_INC("serve.requests.oversized");
      write_line(*connection,
                 error_line("request line exceeds " +
                            std::to_string(options_.max_line_bytes) +
                            " bytes"));
      return;
    }
  }
  if (stopping_.load(std::memory_order_relaxed)) {
    // Drain: slurp whatever the client had already sent before the
    // stop (it is in the kernel buffer), so those requests count as
    // accepted and get answered.
    for (;;) {
      const ssize_t received =
          ::recv(connection->fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (received < 0 && errno == EINTR) continue;
      if (received <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(received));
    }
    dispatch_lines(connection, buffer);
  }
}

void ServeServer::dispatch_lines(
    const std::shared_ptr<Connection>& connection, std::string& buffer) {
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) return;
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    dispatch_line(connection, std::move(line));
  }
}

void ServeServer::dispatch_line(const std::shared_ptr<Connection>& connection,
                                std::string line) {
  lines_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_GAUGE_SET("serve.queue.depth", pool_.queued());
  auto task = [this, connection, line = std::move(line)] {
    const std::string reply = service_.handle_line(line);
    write_line(*connection, reply);
  };
  if (!pool_.try_submit(std::move(task))) {
    // Explicit backpressure: the client hears "shed" immediately
    // instead of waiting on an unbounded queue.
    shed_.fetch_add(1, std::memory_order_relaxed);
    service_.note_shed();
    write_line(*connection, ServeService::shed_reply());
  }
}

void ServeServer::write_line(Connection& connection, std::string_view reply) {
  const std::scoped_lock lock(connection.write_mutex);
  std::string frame(reply);
  frame.push_back('\n');
  if (!util::send_all(connection.fd, frame)) {
    // The client hung up; the request was still fully served.
    HMCS_OBS_COUNTER_INC("serve.replies.write_failed");
  }
}

ServeServer::Stats ServeServer::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.lines = lines_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.timeout_evicted = timeout_evicted_.load(std::memory_order_relaxed);
  stats.limit_evicted = limit_evicted_.load(std::memory_order_relaxed);
  stats.oversized = oversized_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace hmcs::serve
