#pragma once

/// \file thread_pool.hpp
/// The daemon's work-stealing execution pool. Submissions round-robin
/// across per-worker lanes; an idle worker drains its own lane FIFO and
/// steals from the tails of the others, so one connection issuing many
/// slow requests cannot starve the rest. The total queue is bounded:
/// try_submit() refuses work beyond the limit instead of buffering
/// without bound, and the server turns that refusal into an explicit
/// "shed" reply — backpressure the client can see (docs/SERVING.md).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hmcs::serve {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;
  /// Called by a worker that found every lane empty, just before it
  /// waits for a submission. A test seam: it opens the window between
  /// the empty search and the wait, where a submission must not be lost.
  using IdleHook = std::function<void(std::uint32_t worker)>;

  /// `threads` 0 means hardware concurrency; `queue_limit` bounds the
  /// number of accepted-but-unstarted tasks across all lanes.
  WorkStealingPool(std::uint32_t threads, std::size_t queue_limit,
                   IdleHook on_idle = {});

  /// Drains (runs every accepted task) and joins the workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueues `task` unless the queue is at its limit or the pool is
  /// draining; returns false (and does not take the task) in that case.
  bool try_submit(Task task);

  /// Stops accepting work, runs everything already accepted to
  /// completion, and joins the workers. Idempotent.
  void drain();

  std::size_t queued() const {
    return queued_.load(std::memory_order_relaxed);
  }
  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

 private:
  struct Lane {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::uint32_t self);
  Task take(std::uint32_t self);

  std::size_t queue_limit_;
  IdleHook on_idle_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<bool> accepting_{true};
  bool drained_ = false;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  /// What an idle worker's wait predicate reads; both change only under
  /// wake_mutex_, so no submission or drain slips past a worker between
  /// its empty search and its wait.
  std::uint64_t submissions_ = 0;
  bool draining_ = false;
};

}  // namespace hmcs::serve
