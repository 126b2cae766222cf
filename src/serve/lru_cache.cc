#include "serve/lru_cache.h"

#include <algorithm>

#include "util/fault_injector.h"

namespace yver::serve {

ShardedQueryCache::ShardedQueryCache(size_t capacity, size_t num_shards) {
  num_shards = std::bit_ceil(std::max<size_t>(1, num_shards));
  if (capacity > 0) {
    // Never let sharding round the budget down to zero entries per shard.
    num_shards = std::min(num_shards, std::bit_floor(capacity));
    per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  }
  shards_ = std::vector<Shard>(num_shards);
  shard_mask_ = num_shards - 1;
}

std::shared_ptr<const QueryResult> ShardedQueryCache::Get(
    const Query& query, uint64_t generation) {
  // Chaos seam: an injected fault degrades the cache to a miss (the service
  // recomputes), never to wrong data — a cache can only lose, not lie.
  switch (util::FaultInjector::Global().Evaluate(util::FaultPoint::kCacheGet)) {
    case util::FaultKind::kIoError:
    case util::FaultKind::kShortRead:
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    default:
      break;
  }
  if (disabled()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Key key = MakeKey(query, generation);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ShardedQueryCache::Put(const Query& query, uint64_t generation,
                            std::shared_ptr<const QueryResult> result) {
  if (disabled()) return;
  Key key = MakeKey(query, generation);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    it->second->second = std::move(result);
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    return;
  }
  if (shard.entries.size() >= per_shard_capacity_) {
    shard.by_key.erase(shard.entries.back().first);
    shard.entries.pop_back();
  }
  shard.entries.emplace_front(key, std::move(result));
  shard.by_key[key] = shard.entries.begin();
}

void ShardedQueryCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
    shard.by_key.clear();
  }
}

size_t ShardedQueryCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.entries.size();
  }
  return n;
}

}  // namespace yver::serve
