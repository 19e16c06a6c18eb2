#include "hmcs/serve/cache.hpp"

#include "hmcs/util/error.hpp"

namespace hmcs::serve {

ShardedResultCache::ShardedResultCache(const Options& options) {
  require(options.shards >= 1, "serve cache: shards must be >= 1");
  require(options.capacity >= options.shards,
          "serve cache: capacity must be >= shards");
  per_shard_capacity_ =
      (options.capacity + options.shards - 1) / options.shards;
  shards_.reserve(options.shards);
  for (std::size_t i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::optional<std::string> ShardedResultCache::get(std::uint64_t hash,
                                                   std::string_view key) {
  Shard& shard = shard_for(hash);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

std::optional<std::string> ShardedResultCache::peek(
    std::uint64_t hash, std::string_view key) const {
  const Shard& shard = shard_for(hash);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  return it->second->value;
}

void ShardedResultCache::put(std::uint64_t hash, std::string_view key,
                             std::string value) {
  Shard& shard = shard_for(hash);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{std::string(key), std::move(value)});
  shard.index.emplace(std::string_view(shard.lru.front().key),
                      shard.lru.begin());
  ++shard.insertions;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(std::string_view(shard.lru.back().key));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ShardedResultCache::for_each_lru_to_mru(
    const std::function<void(const std::string& key,
                             const std::string& value)>& fn) const {
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      fn(it->key, it->value);
    }
  }
}

ShardedResultCache::Stats ShardedResultCache::stats() const {
  Stats total;
  total.shard_entries.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.entries += shard->lru.size();
    total.shard_entries.push_back(shard->lru.size());
  }
  return total;
}

}  // namespace hmcs::serve
