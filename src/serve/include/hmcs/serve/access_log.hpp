#pragma once

/// \file access_log.hpp
/// Structured JSON-lines access log for hmcs_serve: one line per
/// finished request, written by a dedicated writer thread behind a
/// bounded FIFO queue (bounded_queue.hpp). When the queue is full the
/// line is *shed* and counted, never blocking the request path: the
/// log is an observability aid, and an observability aid that can
/// stall the service under load would be worse than none.
///
/// Line schema (docs/SERVING.md):
///
///   {"ts_ms":<unix epoch ms>,"trace":"r<seq>","id":...,
///    "outcome":"hit|miss|coalesced|shed|error|deadline",
///    "key":"<16-hex>","backend":"analytic",
///    "parse_ns":...,"cache_probe_ns":...,"coalesce_wait_ns":...,
///    "evaluate_ns":...,"serialize_ns":...,"total_ns":...}
///
/// The service composes the line; this class only moves bytes.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "hmcs/serve/bounded_queue.hpp"

namespace hmcs::serve {

class AccessLog {
 public:
  struct Options {
    std::string path;
    /// Queue capacity in lines, min 8.
    std::size_t capacity = 4096;
    /// How often the writer takes the queued lines and writes them.
    unsigned flush_interval_ms = 50;
  };

  struct Stats {
    std::uint64_t appended = 0;  ///< lines accepted into the queue
    std::uint64_t written = 0;   ///< lines flushed to the file
    std::uint64_t shed = 0;      ///< lines dropped on a full queue
  };

  /// Opens `path` for append and starts the writer thread. Throws
  /// hmcs::ConfigError when the file cannot be opened.
  explicit AccessLog(const Options& options);

  /// Writes every queued line, flushes, and joins the writer.
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// From any thread: enqueues one line (no trailing newline). Returns
  /// false — and counts a shed — when the queue is full. Never waits
  /// for the writer.
  bool try_append(std::string line);

  /// Blocks until every line appended before the call is on disk.
  /// Test/shutdown aid, not for the request path.
  void flush();

  Stats stats() const;

 private:
  BoundedQueue<std::string> lines_;
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::ofstream out_;  ///< touched only by writer_
  std::thread writer_;
};

}  // namespace hmcs::serve
