#ifndef DTDEVOLVE_SIMILARITY_SHARDED_LRU_H_
#define DTDEVOLVE_SIMILARITY_SHARDED_LRU_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace dtdevolve::similarity {

/// Sharded, mutex-striped, byte-budgeted LRU map: the one structure
/// behind the subtree score cache (`SubtreeScoreCache`) and the
/// classification memo (`classify::ClassificationMemo`). A layer supplies
/// only what differs between them, as `Traits`:
///
///   static constexpr size_t kDefaultCapacityBytes;
///   static size_t Hash(const Key&);         // the shard's hash index
///   static uint64_t ShardHash(const Key&);  // top byte picks the shard
///   static size_t Cost(const Value&);       // approximate entry bytes
///
/// `Cost` must be a pure function of the value: it is evaluated again
/// when an entry is refreshed or evicted rather than stored with it.
///
/// Eviction: a shard evicts least-recently-used entries while its bytes
/// exceed `capacity_bytes / 16`, always keeping the newest entry.
///
/// Thread-safety: all entry points are safe for concurrent use; each of
/// the 16 shards has its own mutex, so batch workers rarely contend, and
/// the optional `obs` counters are bumped outside it.
template <typename K, typename V, typename Traits>
class ShardedLru {
 public:
  using Key = K;
  using Value = V;

  struct Config {
    /// Approximate capacity, split evenly over the shards.
    size_t capacity_bytes = Traits::kDefaultCapacityBytes;
  };

  /// Traffic totals since construction (or the last `Clear`), plus the
  /// live entries and the sum of their costs.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  ShardedLru() : ShardedLru(Config()) {}
  explicit ShardedLru(Config config)
      : config_(config),
        max_bytes_per_shard_(config.capacity_bytes / kNumShards) {}

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// The instance a component works through: nullptr when
  /// `capacity_bytes` is 0 (the layer is off), else `shared` when given,
  /// else a fresh instance of that capacity owned through `*owned`.
  static ShardedLru* OwnOrShare(size_t capacity_bytes, ShardedLru* shared,
                                std::unique_ptr<ShardedLru>* owned) {
    if (capacity_bytes == 0) return nullptr;
    if (shared != nullptr) return shared;
    Config config;
    config.capacity_bytes = capacity_bytes;
    *owned = std::make_unique<ShardedLru>(config);
    return owned->get();
  }

  /// True and `*out` filled on a hit; counts the hit/miss either way.
  bool Lookup(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        *out = it->second->second;
        ++shard.hits;
        hit = true;
      } else {
        ++shard.misses;
      }
    }
    obs::Counter* counter = hit ? hits_counter_ : misses_counter_;
    if (counter != nullptr) counter->Increment();
    return hit;
  }

  /// Inserts (or refreshes and re-costs) `key`, then evicts LRU entries
  /// beyond the shard's byte budget.
  void Insert(const Key& key, const Value& value) {
    Shard& shard = ShardFor(key);
    const size_t cost = Traits::Cost(value);
    uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.bytes -= Traits::Cost(it->second->second);
        it->second->second = value;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        shard.lru.emplace_front(key, value);
        shard.index.emplace(key, shard.lru.begin());
      }
      shard.bytes += cost;
      while (shard.bytes > max_bytes_per_shard_ && shard.lru.size() > 1) {
        const Entry& victim = shard.lru.back();
        shard.bytes -= Traits::Cost(victim.second);
        shard.index.erase(victim.first);
        shard.lru.pop_back();
        ++shard.evictions;
        ++evicted;
      }
    }
    if (evictions_counter_ != nullptr && evicted > 0) {
      evictions_counter_->Increment(evicted);
    }
  }

  /// Drops every entry and resets the statistics.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
      shard.hits = 0;
      shard.misses = 0;
      shard.evictions = 0;
    }
  }

  Stats GetStats() const {
    Stats stats;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      stats.hits += shard.hits;
      stats.misses += shard.misses;
      stats.evictions += shard.evictions;
      stats.entries += shard.index.size();
      stats.bytes += shard.bytes;
    }
    return stats;
  }

  const Config& config() const { return config_; }

  /// Optional `obs` counters bumped alongside the internal stats; any may
  /// be null. Install before concurrent use.
  void set_metrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions) {
    hits_counter_ = hits;
    misses_counter_ = misses;
    evictions_counter_ = evictions;
  }

 private:
  using Entry = std::pair<Key, Value>;
  struct KeyHash {
    size_t operator()(const Key& key) const { return Traits::Hash(key); }
  };
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash>
        index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(const Key& key) {
    return shards_[(Traits::ShardHash(key) >> 56) % kNumShards];
  }

  Config config_;
  size_t max_bytes_per_shard_;
  std::array<Shard, kNumShards> shards_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace dtdevolve::similarity

#endif  // DTDEVOLVE_SIMILARITY_SHARDED_LRU_H_
