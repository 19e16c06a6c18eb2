#pragma once

/// \file thread_pool.hpp
/// The daemon's execution pool: N worker threads popping tasks from one
/// bounded FIFO queue (bounded_queue.hpp). The queue is bounded:
/// try_submit() refuses work beyond the limit instead of buffering
/// without bound, and the server turns that refusal into an explicit
/// "shed" reply — backpressure the client can see (docs/SERVING.md).

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "hmcs/serve/bounded_queue.hpp"

namespace hmcs::serve {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `threads` 0 means hardware concurrency; `queue_limit` bounds the
  /// number of accepted-but-unstarted tasks.
  ThreadPool(std::uint32_t threads, std::size_t queue_limit);

  /// Drains (runs every accepted task) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` unless the queue is at its limit or the pool is
  /// draining; returns false (and drops the task) in that case.
  bool try_submit(Task task);

  /// Stops accepting work, runs everything already accepted to
  /// completion, and joins the workers. Idempotent.
  void drain();

  std::size_t queued() const { return tasks_.size(); }
  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

 private:
  BoundedQueue<Task> tasks_;
  std::vector<std::thread> workers_;
};

}  // namespace hmcs::serve
