#ifndef DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_
#define DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "similarity/triple.h"
#include "xml/document.h"

namespace dtdevolve::similarity {

/// Structural fingerprint of one element subtree: a 128-bit hash over the
/// tag and the recursive content-symbol structure, plus the subtree's
/// element count. Two subtrees with equal fingerprints evaluate to the
/// same `Triple` against any declaration label, because the similarity
/// measure reads exactly the structure the fingerprint covers (tags and
/// the collapsed content-symbol sequence — attribute and text *values*
/// never influence a triple).
struct SubtreeStats {
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;
  uint32_t element_count = 0;
};

/// Per-document fingerprint index: one `SubtreeStats` per element of the
/// subtree it was built from, computed in a single bottom-up pass. The
/// fingerprints are DTD-independent, so a classifier computes them once
/// per document and reuses them against every DTD in the set.
class SubtreeFingerprints {
 public:
  explicit SubtreeFingerprints(const xml::Element& root);

  /// Stats of `element`, or nullptr when it is not part of the indexed
  /// subtree.
  const SubtreeStats* Find(const xml::Element* element) const {
    auto it = map_.find(element);
    return it == map_.end() ? nullptr : &it->second;
  }

  size_t size() const { return map_.size(); }

 private:
  SubtreeStats Compute(const xml::Element& element);

  std::unordered_map<const xml::Element*, SubtreeStats> map_;
};

/// Sharded, mutex-striped LRU cache of `Triple` results keyed by
/// `(evaluator epoch, structural fingerprint, declaration label id)`. It
/// carries subtree evaluations *across documents* and across
/// `ClassifyBatch` workers: homogeneous streams repeat subtree structures
/// constantly, and a fingerprint hit replaces a full recursive alignment.
///
/// Epoch keying doubles as invalidation: every `SimilarityEvaluator`
/// draws a fresh epoch id at construction, so rebuilding an evaluator
/// (what `Classifier::Invalidate` does after evolution) orphans all its
/// old entries — they age out of the LRU naturally, no purge needed.
///
/// Thread-safety: all entry points are safe for concurrent use; each of
/// the 16 shards has its own mutex, so batch workers rarely contend.
class SubtreeScoreCache {
 public:
  struct Config {
    /// Approximate capacity; entries are evicted LRU per shard beyond it.
    size_t capacity_bytes = 64ull << 20;
    /// Subtrees with fewer elements are cheaper to recompute than to
    /// round-trip through a shard mutex; they are never cached.
    uint32_t min_subtree_elements = 4;
  };

  struct Key {
    uint64_t epoch = 0;
    uint64_t fp_hi = 0;
    uint64_t fp_lo = 0;
    int32_t label_id = -1;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Monotonic totals since construction (or the last `Clear`).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
  };

  SubtreeScoreCache();
  explicit SubtreeScoreCache(Config config);

  SubtreeScoreCache(const SubtreeScoreCache&) = delete;
  SubtreeScoreCache& operator=(const SubtreeScoreCache&) = delete;

  /// True and `*out` filled on a hit; counts the hit/miss either way.
  bool Lookup(const Key& key, Triple* out);
  /// Inserts (or refreshes) `key`, evicting LRU entries beyond capacity.
  void Insert(const Key& key, const Triple& value);
  /// Drops every entry and resets the statistics.
  void Clear();

  Stats GetStats() const;
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
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<std::pair<Key, Triple>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, Triple>>::iterator,
                       KeyHash>
        index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static constexpr size_t kNumShards = 16;
  /// Approximate footprint of one entry (key + triple + list node + hash
  /// node), used to translate the byte capacity into an entry budget.
  static constexpr size_t kApproxEntryBytes = 160;

  Shard& ShardFor(const Key& key);

  Config config_;
  size_t max_entries_per_shard_;
  std::array<Shard, kNumShards> shards_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace dtdevolve::similarity

#endif  // DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_
