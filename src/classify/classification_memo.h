#ifndef DTDEVOLVE_CLASSIFY_CLASSIFICATION_MEMO_H_
#define DTDEVOLVE_CLASSIFY_CLASSIFICATION_MEMO_H_

#include <cstddef>
#include <cstdint>

#include "classify/outcome.h"
#include "similarity/sharded_lru.h"
#include "xml/fingerprint.h"

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

/// Key of one memoized outcome: the classifier set-epoch and the 128-bit
/// root structural fingerprint.
struct ClassificationMemoKey {
  uint64_t epoch = 0;
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;

  friend bool operator==(const ClassificationMemoKey&,
                         const ClassificationMemoKey&) = default;
};

struct ClassificationMemoTraits {
  static constexpr size_t kDefaultCapacityBytes = 32ull << 20;

  static size_t Hash(const ClassificationMemoKey& key) {
    uint64_t h = xml::FingerprintMix64(key.fp_hi, key.fp_lo);
    h = xml::FingerprintMix64(h, key.epoch);
    return static_cast<size_t>(h);
  }

  /// fp_lo is already well mixed; the epoch keeps successive set states
  /// of one hot structure from pinning a single shard.
  static uint64_t ShardHash(const ClassificationMemoKey& key) {
    return key.fp_lo ^ (key.epoch * 0xC2B2AE3D27D4EB4Full);
  }

  /// Approximate footprint of one entry: fixed slot and index overhead
  /// plus the outcome's per-DTD score entries, from the actual vector
  /// length.
  static size_t Cost(const ClassificationOutcome& outcome);
};

/// Bounded LRU memo of whole classification outcomes keyed by
/// `(classifier set-epoch, 128-bit root structural fingerprint)`. The
/// fingerprint covers exactly the structure every similarity triple
/// reads (tags + collapsed content-symbol sequence; attribute and text
/// *values* never influence a score), so within one epoch two documents
/// with equal root fingerprints classify identically against every DTD
/// of the set — a hit replays the cached `ClassificationOutcome` and
/// skips scoring entirely. This is the structural-dedup layer: on
/// repetitive corpora (the paper's dynamic streams are highly
/// structurally homogeneous) most documents after the first of each
/// shape cost one hash lookup.
using ClassificationMemo =
    similarity::ShardedLru<ClassificationMemoKey, ClassificationOutcome,
                           ClassificationMemoTraits>;

}  // namespace dtdevolve::classify

#endif  // DTDEVOLVE_CLASSIFY_CLASSIFICATION_MEMO_H_
