#pragma once

/// \file bounded_queue.hpp
/// The serving tier's one hand-off between threads: a mutex-guarded
/// FIFO with a length limit and a closed flag. The worker pool
/// (thread_pool.hpp) pops tasks from it one at a time; the access log
/// (access_log.hpp) takes its lines in batches. Producers never wait:
/// try_push refuses when the queue is full or closed, and the caller
/// turns the refusal into a shed. Every state change and every wait
/// predicate runs under the one mutex, so no wake-up can be lost
/// between a consumer's check and its wait.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace hmcs::serve {

template <typename T>
class BoundedQueue {
 public:
  /// `limit` is the most items the queue holds at once.
  explicit BoundedQueue(std::size_t limit) : limit_(limit) {}

  /// Appends `item` unless the queue is at its limit or closed; returns
  /// false (dropping `item`) in that case.
  bool try_push(T item) {
    {
      const std::scoped_lock lock(mutex_);
      if (closed_ || items_.size() >= limit_) return false;
      items_.push_back(std::move(item));
    }
    item_or_close_.notify_one();
    return true;
  }

  /// Blocks until an item is queued and returns the oldest; returns
  /// nullopt once the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    item_or_close_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Waits until `timeout` passes or the queue closes, then swaps every
  /// queued item, oldest first, into `out` (cleared first). A push does
  /// not cut the wait short. Returns false once the queue is closed:
  /// `out` then holds the last items.
  bool pop_all_after(std::chrono::milliseconds timeout, std::deque<T>& out) {
    out.clear();
    std::unique_lock lock(mutex_);
    close_.wait_for(lock, timeout, [this] { return closed_; });
    out.swap(items_);
    return !closed_;
  }

  /// Refuses further pushes and wakes every waiting consumer; items
  /// already queued are still handed out. Idempotent.
  void close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    item_or_close_.notify_all();
    close_.notify_all();
  }

  std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t limit_;
  mutable std::mutex mutex_;
  std::deque<T> items_;  ///< guarded by mutex_
  bool closed_ = false;  ///< guarded by mutex_
  std::condition_variable item_or_close_;  ///< pop() waits here
  std::condition_variable close_;          ///< pop_all_after() waits here
};

}  // namespace hmcs::serve
