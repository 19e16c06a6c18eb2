#include "hmcs/serve/access_log.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <utility>

#include "hmcs/util/error.hpp"

namespace hmcs::serve {

AccessLog::AccessLog(const Options& options)
    : lines_(std::max<std::size_t>(options.capacity, 8)) {
  out_.open(options.path, std::ios::out | std::ios::app);
  require(out_.is_open(),
          "serve access log: cannot open '" + options.path + "'");

  const std::chrono::milliseconds interval(
      std::max(options.flush_interval_ms, 1u));
  writer_ = std::thread([this, interval] {
    std::deque<std::string> batch;
    for (bool open = true; open;) {
      // Take the lines under the queue's lock, write them outside it.
      open = lines_.pop_all_after(interval, batch);
      if (batch.empty()) continue;
      for (const std::string& line : batch) out_ << line << '\n';
      out_.flush();
      written_.fetch_add(batch.size(), std::memory_order_release);
    }
  });
}

AccessLog::~AccessLog() {
  lines_.close();
  if (writer_.joinable()) writer_.join();
}

bool AccessLog::try_append(std::string line) {
  if (!lines_.try_push(std::move(line))) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  appended_.fetch_add(1, std::memory_order_release);
  return true;
}

void AccessLog::flush() {
  const std::uint64_t target = appended_.load(std::memory_order_acquire);
  while (written_.load(std::memory_order_acquire) < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

AccessLog::Stats AccessLog::stats() const {
  Stats s;
  s.appended = appended_.load(std::memory_order_relaxed);
  s.written = written_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hmcs::serve
