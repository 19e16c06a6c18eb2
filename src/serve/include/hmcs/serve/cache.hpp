#pragma once

/// \file cache.hpp
/// The sharded LRU result cache behind hmcs_serve. Entries map a
/// canonical request key (the full key string, not just its hash — two
/// requests whose 64-bit hashes collide must never share a reply) to
/// the serialized reply body. Shards are independent mutex+LRU list+
/// index triples selected by the key hash, so concurrent lookups of
/// unrelated keys never contend on one lock.
///
/// Values are whole reply bodies: a hit is returned byte-for-byte as it
/// was stored, which is what makes the daemon's "cached replies are
/// bit-identical to cold evaluation" contract a memcmp rather than a
/// numeric tolerance (docs/SERVING.md).

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hmcs::serve {

class ShardedResultCache {
 public:
  struct Options {
    std::size_t shards = 8;
    /// Total entry budget across all shards (each shard holds
    /// ceil(capacity / shards) entries before evicting its LRU tail).
    std::size_t capacity = 4096;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    /// Per-shard entry counts, in shard order (occupancy skew shows a
    /// hot shard before eviction rates do).
    std::vector<std::size_t> shard_entries;
  };

  explicit ShardedResultCache(const Options& options);

  /// Looks up `key` (selecting the shard by `hash`), refreshing its LRU
  /// position on a hit. Returns a copy of the stored value.
  std::optional<std::string> get(std::uint64_t hash, std::string_view key);

  /// Looks up `key` as get() does, but counts neither a hit nor a miss
  /// and leaves the LRU order alone: a second look by a request whose
  /// get() already counted.
  std::optional<std::string> peek(std::uint64_t hash,
                                  std::string_view key) const;

  /// Inserts or refreshes `key`, evicting the shard's least recently
  /// used entries beyond its capacity. Idempotent on duplicate puts
  /// (single-flight races re-store the identical body).
  void put(std::uint64_t hash, std::string_view key, std::string value);

  /// Visits every entry, shard by shard, from least- to most-recently
  /// used — the order a snapshot reload should replay so the restored
  /// LRU discipline matches the saved one. Each shard's lock is held
  /// while its entries are visited; `fn` must not call back into the
  /// cache.
  void for_each_lru_to_mru(
      const std::function<void(const std::string& key,
                               const std::string& value)>& fn) const;

  Stats stats() const;
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    mutable std::mutex mutex;
    LruList lru;  ///< front = most recently used
    /// Views point at Entry::key in `lru`; list nodes are stable, and
    /// the index entry is erased before its list node.
    std::unordered_map<std::string_view, LruList::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(std::uint64_t hash) const {
    return *shards_[hash % shards_.size()];
  }

  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hmcs::serve
