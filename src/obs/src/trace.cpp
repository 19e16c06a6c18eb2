#include "hmcs/obs/trace.hpp"

#include <fstream>
#include <utility>

#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/output_file.hpp"

namespace hmcs::obs {

TraceSession::TraceSession(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  require(capacity >= 1, "TraceSession: capacity must be >= 1");
}

void TraceSession::record(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  // Ring full: overwrite the oldest event and account for the loss.
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceSession::complete(std::string name, std::string category,
                            double timestamp_us, double duration_us,
                            std::uint32_t pid, std::uint32_t tid) {
  SpanEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'X';
  event.timestamp_us = timestamp_us;
  event.duration_us = duration_us;
  event.pid = pid;
  event.tid = tid;
  record(std::move(event));
}

void TraceSession::instant(std::string name, std::string category,
                           double timestamp_us, std::uint32_t pid,
                           std::uint32_t tid) {
  SpanEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'i';
  event.timestamp_us = timestamp_us;
  event.pid = pid;
  event.tid = tid;
  record(std::move(event));
}

void TraceSession::counter(std::string name, double timestamp_us, double value,
                           std::uint32_t pid) {
  SpanEvent event;
  event.name = std::move(name);
  event.phase = 'C';
  event.timestamp_us = timestamp_us;
  event.pid = pid;
  event.counter_value = value;
  record(std::move(event));
}

void TraceSession::set_process_name(std::uint32_t pid, std::string name) {
  SpanEvent event;
  event.name = std::move(name);
  event.phase = 'M';
  event.pid = pid;
  std::lock_guard<std::mutex> lock(mutex_);
  metadata_.push_back(std::move(event));
}

void TraceSession::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                   std::string name) {
  SpanEvent event;
  event.name = std::move(name);
  event.phase = 'M';
  event.pid = pid;
  event.tid = tid;
  event.counter_value = 1.0;  // marks a thread_name (vs process_name) record
  std::lock_guard<std::mutex> lock(mutex_);
  metadata_.push_back(std::move(event));
}

std::size_t TraceSession::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t TraceSession::dropped_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SpanEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  // Oldest retained first: [head_, end) then [0, head_).
  for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

double TraceSession::wall_now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

std::string TraceSession::to_chrome_json() const {
  const std::vector<SpanEvent> ordered = events();
  std::vector<SpanEvent> meta;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    meta = metadata_;
  }

  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  for (const SpanEvent& event : meta) {
    const bool thread = event.counter_value != 0.0;
    json.begin_object();
    json.key("name").value(thread ? "thread_name" : "process_name");
    json.key("ph").value("M");
    json.key("ts").value(0.0);
    json.key("pid").value(event.pid);
    if (thread) json.key("tid").value(event.tid);
    json.key("args").begin_object();
    json.key("name").value(event.name);
    json.end_object();
    json.end_object();
  }
  for (const SpanEvent& event : ordered) {
    json.begin_object();
    json.key("name").value(event.name);
    if (!event.category.empty()) json.key("cat").value(event.category);
    json.key("ph").value(std::string_view(&event.phase, 1));
    json.key("ts").value(event.timestamp_us);
    if (event.phase == 'X') json.key("dur").value(event.duration_us);
    json.key("pid").value(event.pid);
    if (event.phase == 'C') {
      json.key("args").begin_object();
      json.key("value").value(event.counter_value);
      json.end_object();
    } else {
      json.key("tid").value(event.tid);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

void TraceSession::write_file(const std::string& path) const {
  std::ofstream out = open_output_file(path);
  require(out.good(), "TraceSession: cannot write '" + path + "'");
  out << to_chrome_json() << "\n";
  require(out.good(), "TraceSession: write failed for '" + path + "'");
}

}  // namespace hmcs::obs
