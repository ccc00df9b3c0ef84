#ifndef DTDEVOLVE_SIMILARITY_SHARDED_LRU_H_
#define DTDEVOLVE_SIMILARITY_SHARDED_LRU_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dtdevolve::similarity {

/// Sharded, mutex-striped, byte-budgeted LRU map: the one structure
/// behind the subtree score cache (`SubtreeScoreCache`) and the
/// classification memo (`classify::ClassificationMemo`). A layer supplies
/// only what differs between them, as `Traits`:
///
///   static constexpr size_t kDefaultCapacityBytes;
///   static size_t Hash(const Key&);         // low 32 bits index a shard
///   static uint64_t ShardHash(const Key&);  // top byte picks the shard
///   static size_t Cost(const Value&);       // approximate entry bytes
///
/// `Cost` must be a pure function of the value: it is evaluated again
/// when an entry is refreshed or evicted rather than stored with it.
///
/// Eviction: a shard evicts least-recently-used entries while its bytes
/// exceed `capacity_bytes / 16`, always keeping the newest entry.
///
/// Layout: each shard keeps its entries in one slot vector, linked into
/// the LRU order by `uint32_t` indices, with freed slots on a free list,
/// and finds them through an open-addressing index (linear probing,
/// backward-shift deletion, a power-of-two table grown at half load).
/// Both grow on demand and never shrink until `Clear`, so once a shard
/// has reached its budget a lookup, insert, refresh or eviction
/// allocates no node: an insert reuses the slot the last eviction freed,
/// and assigning into it reuses the old value's buffers.
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
      const uint32_t slot = shard.Find(key, HashOf(key));
      if (slot != kNil) {
        shard.MoveToFront(slot);
        *out = shard.slots[slot].value;
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
    const uint32_t hash = HashOf(key);
    uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const uint32_t slot = shard.Find(key, hash);
      if (slot != kNil) {
        shard.bytes -= Traits::Cost(shard.slots[slot].value);
        shard.slots[slot].value = value;
        shard.MoveToFront(slot);
      } else {
        shard.Emplace(key, value, hash);
      }
      shard.bytes += cost;
      while (shard.bytes > max_bytes_per_shard_ && shard.size > 1) {
        shard.bytes -= Traits::Cost(shard.slots[shard.tail].value);
        shard.EvictTail();
        ++shard.evictions;
        ++evicted;
      }
    }
    if (evictions_counter_ != nullptr && evicted > 0) {
      evictions_counter_->Increment(evicted);
    }
  }

  /// Drops every entry, releases the shards' storage and resets the
  /// statistics.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      std::vector<Slot>().swap(shard.slots);
      std::vector<Bucket>().swap(shard.index);
      shard.head = shard.tail = shard.free = kNil;
      shard.size = 0;
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
      stats.entries += shard.size;
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
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kMinIndexBuckets = 16;

  /// One entry. A free slot keeps its last key and value (assigned over
  /// on reuse) and chains the free list through `next`.
  struct Slot {
    Key key;
    Value value;
    uint32_t prev = kNil;  // toward the most recently used
    uint32_t next = kNil;  // toward the least recently used
    uint32_t hash = 0;     // `HashOf(key)`, to find the slot's bucket
  };
  /// One index bucket: a slot and its hash, so a probe compares keys
  /// only on a full 32-bit hash match and a rehash reads no slot.
  struct Bucket {
    uint32_t slot = kNil;
    uint32_t hash = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    std::vector<Bucket> index;  // empty, or a power of two > 2 * size
    uint32_t head = kNil;       // most recently used
    uint32_t tail = kNil;       // least recently used
    uint32_t free = kNil;       // free-list head
    size_t size = 0;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

    uint32_t Find(const Key& key, uint32_t hash) const {
      if (index.empty()) return kNil;
      const size_t mask = index.size() - 1;
      for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Bucket& bucket = index[i];
        if (bucket.slot == kNil) return kNil;
        if (bucket.hash == hash && slots[bucket.slot].key == key) {
          return bucket.slot;
        }
      }
    }

    /// Adds an absent key as the most recent entry.
    void Emplace(const Key& key, const Value& value, uint32_t hash) {
      if ((size + 1) * 2 > index.size()) {
        GrowIndex();
      }
      uint32_t slot = free;
      if (slot != kNil) {
        free = slots[slot].next;
        slots[slot].key = key;
        slots[slot].value = value;
      } else {
        slot = static_cast<uint32_t>(slots.size());
        slots.push_back(Slot{key, value});
      }
      slots[slot].hash = hash;
      LinkFront(slot);
      PlaceInIndex({slot, hash});
      ++size;
    }

    /// Unlinks the least recently used entry, deletes its bucket by
    /// shifting the rest of its probe run back, and frees its slot.
    void EvictTail() {
      const uint32_t victim = tail;
      Unlink(victim);
      const size_t mask = index.size() - 1;
      size_t hole = slots[victim].hash & mask;
      while (index[hole].slot != victim) hole = (hole + 1) & mask;
      for (size_t i = (hole + 1) & mask; index[i].slot != kNil;
           i = (i + 1) & mask) {
        // The bucket at `i` may fill the hole only if its home bucket
        // does not lie cyclically after the hole.
        const size_t home = index[i].hash & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
          index[hole] = index[i];
          hole = i;
        }
      }
      index[hole] = Bucket();
      slots[victim].next = free;
      free = victim;
      --size;
    }

    void MoveToFront(uint32_t slot) {
      if (slot == head) return;
      Unlink(slot);
      LinkFront(slot);
    }

    void Unlink(uint32_t slot) {
      const Slot& s = slots[slot];
      (s.prev != kNil ? slots[s.prev].next : head) = s.next;
      (s.next != kNil ? slots[s.next].prev : tail) = s.prev;
    }

    void LinkFront(uint32_t slot) {
      slots[slot].prev = kNil;
      slots[slot].next = head;
      (head != kNil ? slots[head].prev : tail) = slot;
      head = slot;
    }

    void PlaceInIndex(Bucket bucket) {
      const size_t mask = index.size() - 1;
      size_t i = bucket.hash & mask;
      while (index[i].slot != kNil) i = (i + 1) & mask;
      index[i] = bucket;
    }

    void GrowIndex() {
      std::vector<Bucket> old = std::move(index);
      index.assign(std::max(kMinIndexBuckets, 2 * old.size()), Bucket());
      for (const Bucket& bucket : old) {
        if (bucket.slot != kNil) PlaceInIndex(bucket);
      }
    }
  };

  static constexpr size_t kNumShards = 16;

  static uint32_t HashOf(const Key& key) {
    return static_cast<uint32_t>(Traits::Hash(key));
  }

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
