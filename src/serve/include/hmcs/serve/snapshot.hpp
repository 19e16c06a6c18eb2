#pragma once

/// \file snapshot.hpp
/// Durable warm restarts for the serve tier: the ShardedResultCache is
/// spilled to a versioned JSON-lines snapshot (canonical key → cached
/// reply body) on graceful drain and, optionally, on a periodic
/// interval; a restarted daemon started with `--cache-snapshot <path>`
/// reloads it and answers previously-seen requests warm. Canonical
/// keys are process-independent (they are rendered from the built
/// config, not from pointers or hashes of transient state), which is
/// what makes the spill meaningful across processes.
///
/// File format — one JSON object per line:
///
///   {"hmcs_cache_snapshot":1,"ts_ms":...}          // header, version 1
///   {"key":"<canonical key>","value":"<reply body>","check":"<16-hex>"}
///
/// `check` is an FNV-1a 64 digest over key + NUL + value, so a torn or
/// bit-flipped line is detected per entry. Writes are atomic: the full
/// file is written to `<path>.tmp` and rename()d over `path`, so a
/// crash mid-save leaves the previous snapshot intact — a kill -9 can
/// lose at most the entries cached since the last completed save.
///
/// Loading is tolerant by design (docs/ROBUSTNESS.md): corrupt,
/// oversized, or schema-violating lines are *skipped and counted*,
/// never fatal — a damaged snapshot degrades a warm restart into a
/// (partially) cold one instead of preventing startup. A header with
/// an unknown version skips the whole file the same way.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "hmcs/serve/cache.hpp"
#include "hmcs/serve/chaos.hpp"

namespace hmcs::serve {

struct SnapshotSaveReport {
  bool ok = false;
  std::size_t entries = 0;  ///< cache entries written
  std::size_t bytes = 0;    ///< file size on success
  std::string error;        ///< why ok == false
};

struct SnapshotLoadReport {
  /// False when `path` does not exist — a clean cold start, not an
  /// error (the first run of a daemon has no snapshot yet).
  bool found = false;
  std::size_t loaded = 0;   ///< entries inserted into the cache
  std::size_t skipped = 0;  ///< corrupt/oversized/stale lines dropped
  std::string warning;      ///< first skip reason, for the startup log
};

struct SnapshotLoadOptions {
  /// Lines longer than this are skipped (a snapshot is re-read at
  /// startup; an absurd line is more likely corruption than data).
  std::size_t max_line_bytes = 1u << 20;
};

/// Writes every cache entry to `path` atomically (temp file + rename).
/// Never throws: filesystem failures come back as ok == false. When
/// `chaos` is set and its plan injects a snapshot failure, the save
/// aborts (temp file removed) exactly as if the disk had failed.
SnapshotSaveReport save_cache_snapshot(const ShardedResultCache& cache,
                                       const std::string& path,
                                       ChaosInjector* chaos = nullptr);

/// Replays `path` into `cache` (least- to most-recently-used order, so
/// the restored LRU discipline matches the saved one). Never throws;
/// see SnapshotLoadReport for the tolerant-skip accounting.
SnapshotLoadReport load_cache_snapshot(ShardedResultCache& cache,
                                       const std::string& path,
                                       const SnapshotLoadOptions& options = {});

/// The periodic spill thread: saves the cache to `path` every
/// `interval_ms` (0 = never; save_now() still works for the drain-time
/// final spill). Failed saves are counted and retried next interval —
/// a full disk must not take the daemon down.
class SnapshotWriter {
 public:
  struct Options {
    std::string path;
    unsigned interval_ms = 0;
    ChaosInjector* chaos = nullptr;
  };

  SnapshotWriter(const ShardedResultCache& cache, const Options& options);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Synchronous save on the caller's thread (the drain-time spill).
  SnapshotSaveReport save_now();

  /// Stops the periodic thread (idempotent; the destructor calls it).
  void stop();

  std::uint64_t saves() const {
    return saves_.load(std::memory_order_relaxed);
  }
  std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  void writer_loop();

  const ShardedResultCache& cache_;
  Options options_;
  std::atomic<std::uint64_t> saves_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::mutex wake_mutex_;
  bool stopping_ = false;  ///< guarded by wake_mutex_
  std::condition_variable wake_cv_;
  std::thread writer_;
};

}  // namespace hmcs::serve
