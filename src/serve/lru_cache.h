#ifndef YVER_SERVE_LRU_CACHE_H_
#define YVER_SERVE_LRU_CACHE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/query.h"

namespace yver::serve {

/// A thread-safe LRU cache of query results, sharded by key hash so
/// concurrent lookups on different shards never contend on one mutex.
/// Values are shared_ptr<const QueryResult>: hits hand out refcounted
/// pointers, so eviction never invalidates a result a reader still holds.
///
/// Keyed by the full (generation, record, certainty-bits, k, granularity)
/// tuple — certainty participates as its raw bit pattern, so 0.0 and -0.0
/// are distinct keys (harmless: both would cache correct results). The
/// generation is the index snapshot the result was computed against
/// (IndexManager); including it in the key is what prevents a post-swap
/// lookup from serving an answer computed on a retired generation as
/// fresh. Entries from older generations simply age out of the LRU.
class ShardedQueryCache {
 public:
  /// `capacity` is the total entry budget across all shards; 0 disables
  /// caching entirely (Get always misses, Put is a no-op). `num_shards`
  /// is rounded up to a power of two, minimum 1.
  explicit ShardedQueryCache(size_t capacity, size_t num_shards = 16);

  ShardedQueryCache(const ShardedQueryCache&) = delete;
  ShardedQueryCache& operator=(const ShardedQueryCache&) = delete;

  /// The result cached for `query` against index `generation`, or nullptr
  /// on miss. Promotes the entry to most-recently-used and bumps the
  /// hit/miss counters.
  std::shared_ptr<const QueryResult> Get(const Query& query,
                                         uint64_t generation);

  /// Inserts (or refreshes) the result for `query` under `generation`,
  /// evicting the shard's least-recently-used entry when the shard is at
  /// capacity.
  void Put(const Query& query, uint64_t generation,
           std::shared_ptr<const QueryResult> result);

  /// Drops all entries (counters are kept).
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Current number of cached entries across all shards.
  size_t size() const;

  /// True when caching is disabled (capacity 0).
  bool disabled() const { return per_shard_capacity_ == 0; }

 private:
  struct Key {
    uint64_t record_and_granularity = 0;  // record << 8 | granularity
    uint64_t certainty_bits = 0;
    uint64_t k = 0;
    uint64_t generation = 0;  // index snapshot identity

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (uint64_t v : {key.record_and_granularity, key.certainty_bits,
                         key.k, key.generation}) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
      }
      return static_cast<size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    // MRU at front; list nodes own the key so the map can reference it.
    std::list<std::pair<Key, std::shared_ptr<const QueryResult>>> entries;
    std::unordered_map<Key, decltype(entries)::iterator, KeyHash> by_key;
  };

  static Key MakeKey(const Query& query, uint64_t generation) {
    Key key;
    key.record_and_granularity =
        (static_cast<uint64_t>(query.record) << 8) |
        static_cast<uint64_t>(query.granularity);
    key.certainty_bits = std::bit_cast<uint64_t>(query.certainty);
    key.k = query.k;
    key.generation = generation;
    return key;
  }

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) & shard_mask_];
  }

  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace yver::serve

#endif  // YVER_SERVE_LRU_CACHE_H_
