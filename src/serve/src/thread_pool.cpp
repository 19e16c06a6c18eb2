#include "hmcs/serve/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "hmcs/util/error.hpp"

namespace hmcs::serve {

ThreadPool::ThreadPool(std::uint32_t threads, std::size_t queue_limit)
    : tasks_(queue_limit) {
  require(queue_limit >= 1, "serve pool: queue limit must be >= 1");
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] {
      while (std::optional<Task> task = tasks_.pop()) (*task)();
    });
  }
}

ThreadPool::~ThreadPool() { drain(); }

bool ThreadPool::try_submit(Task task) {
  return tasks_.try_push(std::move(task));
}

void ThreadPool::drain() {
  tasks_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace hmcs::serve
