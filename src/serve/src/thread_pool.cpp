#include "hmcs/serve/thread_pool.hpp"

#include <utility>

#include "hmcs/util/error.hpp"

namespace hmcs::serve {

WorkStealingPool::WorkStealingPool(std::uint32_t threads,
                                   std::size_t queue_limit, IdleHook on_idle)
    : queue_limit_(queue_limit), on_idle_(std::move(on_idle)) {
  require(queue_limit >= 1, "serve pool: queue limit must be >= 1");
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  lanes_.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  workers_.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() { drain(); }

bool WorkStealingPool::try_submit(Task task) {
  if (!accepting_.load(std::memory_order_relaxed)) return false;
  // Reserve a queue slot first so concurrent submitters cannot
  // collectively overshoot the limit.
  if (queued_.fetch_add(1, std::memory_order_relaxed) >= queue_limit_) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  const std::size_t lane_index =
      round_robin_.fetch_add(1, std::memory_order_relaxed) % lanes_.size();
  {
    Lane& lane = *lanes_[lane_index];
    const std::scoped_lock lock(lane.mutex);
    lane.tasks.push_back(std::move(task));
  }
  {
    const std::scoped_lock lock(wake_mutex_);
    ++submissions_;
  }
  wake_cv_.notify_one();
  return true;
}

WorkStealingPool::Task WorkStealingPool::take(std::uint32_t self) {
  // Own lane first (FIFO), then steal from the tails of the others.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = *lanes_[(self + i) % lanes_.size()];
    const std::scoped_lock lock(lane.mutex);
    if (lane.tasks.empty()) continue;
    Task task;
    if (i == 0) {
      task = std::move(lane.tasks.front());
      lane.tasks.pop_front();
    } else {
      task = std::move(lane.tasks.back());
      lane.tasks.pop_back();
    }
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return task;
  }
  return {};
}

void WorkStealingPool::worker_loop(std::uint32_t self) {
  for (;;) {
    // Read the submission count before searching the lanes: a task the
    // search misses was counted after this read, so the wait below
    // returns at once instead of sleeping through that task's notify.
    std::uint64_t seen = 0;
    {
      const std::scoped_lock lock(wake_mutex_);
      seen = submissions_;
    }
    if (Task task = take(self)) {
      task();
      continue;
    }
    if (on_idle_) on_idle_(self);
    std::unique_lock lock(wake_mutex_);
    wake_cv_.wait(lock, [&] { return submissions_ != seen || draining_; });
    if (draining_ && queued_.load(std::memory_order_relaxed) == 0) return;
  }
}

void WorkStealingPool::drain() {
  if (drained_) return;
  drained_ = true;
  accepting_.store(false, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(wake_mutex_);
    draining_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace hmcs::serve
