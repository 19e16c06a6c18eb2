#include "hmcs/serve/snapshot.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/serve/request.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/output_file.hpp"

namespace hmcs::serve {

namespace {

constexpr std::uint64_t kSnapshotVersion = 1;

/// FNV-1a over key + NUL + value without materialising the
/// concatenation (values are whole reply bodies).
std::uint64_t entry_check(std::string_view key, std::string_view value) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 1099511628211ull;
    }
  };
  mix(key);
  hash ^= 0u;
  hash *= 1099511628211ull;
  mix(value);
  return hash;
}

}  // namespace

SnapshotSaveReport save_cache_snapshot(const ShardedResultCache& cache,
                                       const std::string& path,
                                       ChaosInjector* chaos) {
  SnapshotSaveReport report;
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::trunc);
    if (!out.is_open()) {
      report.error = "cannot open '" + temp + "' for writing";
      HMCS_OBS_COUNTER_INC("serve.snapshot.save_failures");
      return report;
    }
    JsonWriter lines;
    lines.begin_object();
    lines.key("hmcs_cache_snapshot").value(kSnapshotVersion);
    lines.key("ts_ms").value(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count()));
    lines.end_object();
    lines.end_line();
    cache.for_each_lru_to_mru(
        [&out, &lines, &report](const std::string& key,
                                const std::string& value) {
          lines.begin_object();
          lines.key("key").value(key);
          lines.key("value").value(value);
          lines.key("check").value(key_hash_hex(entry_check(key, value)));
          lines.end_object();
          lines.end_line();
          if (lines.buffered() >= kOutputChunkBytes) lines.flush_to(out);
          ++report.entries;
        });
    out << std::move(lines).str();
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(temp.c_str());
      report.entries = 0;
      report.error = "write to '" + temp + "' failed";
      HMCS_OBS_COUNTER_INC("serve.snapshot.save_failures");
      return report;
    }
  }
  if (chaos != nullptr && chaos->should_fail_snapshot()) {
    std::remove(temp.c_str());
    report.entries = 0;
    report.error = "chaos: injected snapshot write failure";
    HMCS_OBS_COUNTER_INC("serve.snapshot.save_failures");
    return report;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    std::remove(temp.c_str());
    report.entries = 0;
    report.error = "rename '" + temp + "' -> '" + path + "' failed: " + reason;
    HMCS_OBS_COUNTER_INC("serve.snapshot.save_failures");
    return report;
  }
  {
    std::ifstream sized(path, std::ios::ate | std::ios::binary);
    if (sized.is_open()) {
      report.bytes = static_cast<std::size_t>(sized.tellg());
    }
  }
  report.ok = true;
  HMCS_OBS_COUNTER_INC("serve.snapshot.saves");
  HMCS_OBS_GAUGE_SET("serve.snapshot.entries",
                     static_cast<std::int64_t>(report.entries));
  return report;
}

SnapshotLoadReport load_cache_snapshot(ShardedResultCache& cache,
                                       const std::string& path,
                                       const SnapshotLoadOptions& options) {
  SnapshotLoadReport report;
  std::ifstream in(path);
  if (!in.is_open()) return report;  // no snapshot yet: clean cold start
  report.found = true;

  const auto skip = [&report](const std::string& why) {
    ++report.skipped;
    if (report.warning.empty()) report.warning = why;
    HMCS_OBS_COUNTER_INC("serve.snapshot.skipped_lines");
  };

  std::string line;
  bool header_ok = false;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.size() > options.max_line_bytes) {
      skip("line exceeds " + std::to_string(options.max_line_bytes) +
           " bytes");
      continue;
    }
    if (first) {
      first = false;
      // The header gates the whole file: an unknown version means the
      // format may have changed underneath us, and replaying entries
      // written by a different scheme risks serving wrong bytes.
      try {
        const JsonValue doc = parse_json(line);
        const JsonValue* version = doc.find("hmcs_cache_snapshot");
        if (version != nullptr &&
            version->as_number() ==
                static_cast<double>(kSnapshotVersion)) {
          header_ok = true;
          continue;
        }
        skip(version == nullptr
                 ? "missing snapshot header"
                 : "unsupported snapshot version " +
                       std::to_string(version->as_number()));
      } catch (const hmcs::Error&) {
        skip("unparseable snapshot header");
      }
      continue;
    }
    if (!header_ok) {
      // Stale/foreign file: count every line, load nothing.
      skip("entry after a rejected header");
      continue;
    }
    try {
      const JsonValue doc = parse_json(line);
      const JsonValue* key = doc.find("key");
      const JsonValue* value = doc.find("value");
      const JsonValue* check = doc.find("check");
      if (key == nullptr || value == nullptr || check == nullptr ||
          !key->is_string() || !value->is_string() ||
          !check->is_string()) {
        skip("entry missing key/value/check");
        continue;
      }
      if (key_hash_hex(entry_check(key->as_string(), value->as_string())) !=
          check->as_string()) {
        skip("entry checksum mismatch");
        continue;
      }
      cache.put(fnv1a64(key->as_string()), key->as_string(),
                value->as_string());
      ++report.loaded;
    } catch (const hmcs::Error&) {
      skip("unparseable entry line");
    }
  }
  HMCS_OBS_COUNTER_INC("serve.snapshot.loads");
  return report;
}

SnapshotWriter::SnapshotWriter(const ShardedResultCache& cache,
                               const Options& options)
    : cache_(cache), options_(options) {
  require(!options_.path.empty(), "snapshot writer: path must be set");
  if (options_.interval_ms > 0) {
    writer_ = std::thread([this] { writer_loop(); });
  }
}

SnapshotWriter::~SnapshotWriter() { stop(); }

SnapshotSaveReport SnapshotWriter::save_now() {
  const SnapshotSaveReport report =
      save_cache_snapshot(cache_, options_.path, options_.chaos);
  if (report.ok) {
    saves_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return report;
}

void SnapshotWriter::stop() {
  {
    const std::scoped_lock lock(wake_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void SnapshotWriter::writer_loop() {
  std::unique_lock lock(wake_mutex_);
  while (!stopping_) {
    wake_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                      [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    save_now();
    lock.lock();
  }
}

}  // namespace hmcs::serve
