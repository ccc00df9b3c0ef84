#ifndef DTDEVOLVE_CLASSIFY_CLASSIFICATION_MEMO_H_
#define DTDEVOLVE_CLASSIFY_CLASSIFICATION_MEMO_H_

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "classify/outcome.h"
#include "obs/metrics.h"

namespace dtdevolve::classify {

/// Draws the next process-globally-unique classifier set-epoch. A
/// `Classifier` holds one and re-draws on every mutation that could
/// change any outcome — DTD added/removed/invalidated, σ changed — so a
/// memo entry keyed by an old epoch is unreachable the moment the set
/// evolves, with no purge: exactly the score cache's epoch discipline,
/// lifted from one evaluator to the whole classifier set. Global
/// uniqueness also makes one memo safe to share across any number of
/// classifiers (the multi-tenant `SourceManager` shares one budget).
uint64_t NextClassifierSetEpoch();

/// Sharded, mutex-striped, bounded LRU memo of whole classification
/// outcomes keyed by `(classifier set-epoch, 128-bit root structural
/// fingerprint)`. The fingerprint covers exactly the structure every
/// similarity triple reads (tags + collapsed content-symbol sequence;
/// attribute and text *values* never influence a score), so within one
/// epoch two documents with equal root fingerprints classify
/// identically against every DTD of the set — a hit replays the cached
/// `ClassificationOutcome` and skips scoring entirely. This is the
/// structural-dedup layer: on repetitive corpora (the paper's dynamic
/// streams are highly structurally homogeneous) most documents after
/// the first of each shape cost one hash lookup.
///
/// Thread-safety: all entry points are safe for concurrent use; each of
/// the 16 shards has its own mutex, so batch workers rarely contend.
class ClassificationMemo {
 public:
  struct Config {
    /// Approximate capacity; entries are evicted LRU per shard beyond
    /// it. Outcomes carry a per-DTD score vector, so entry cost is
    /// accounted per entry from the actual vector length.
    size_t capacity_bytes = 32ull << 20;
  };

  struct Key {
    uint64_t epoch = 0;
    uint64_t fp_hi = 0;
    uint64_t fp_lo = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Monotonic totals since construction (or the last `Clear`).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
  };

  ClassificationMemo();
  explicit ClassificationMemo(Config config);

  ClassificationMemo(const ClassificationMemo&) = delete;
  ClassificationMemo& operator=(const ClassificationMemo&) = delete;

  /// True and `*out` filled on a hit; counts the hit/miss either way.
  bool Lookup(const Key& key, ClassificationOutcome* out);
  /// Inserts (or refreshes) `key`, evicting LRU entries beyond the
  /// shard's byte budget.
  void Insert(const Key& key, const ClassificationOutcome& value);
  /// Drops every entry and resets the statistics.
  void Clear();

  Stats GetStats() const;
  const Config& config() const { return config_; }

  /// Optional `obs` counters bumped alongside the internal stats; any
  /// may be null. Install before concurrent use.
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
  struct Entry {
    Key key;
    ClassificationOutcome outcome;
    size_t cost = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static constexpr size_t kNumShards = 16;

  /// Approximate footprint of one entry: fixed node overhead plus the
  /// outcome's per-DTD score entries.
  static size_t EntryCost(const ClassificationOutcome& outcome);

  Shard& ShardFor(const Key& key);

  Config config_;
  size_t max_bytes_per_shard_;
  std::array<Shard, kNumShards> shards_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace dtdevolve::classify

#endif  // DTDEVOLVE_CLASSIFY_CLASSIFICATION_MEMO_H_
