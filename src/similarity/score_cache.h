#ifndef DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_
#define DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "similarity/sharded_lru.h"
#include "similarity/triple.h"
#include "xml/document.h"
#include "xml/fingerprint.h"

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

/// Key of one cached subtree evaluation: the evaluator epoch, the
/// subtree's structural fingerprint and the declaration label it was
/// scored against.
struct SubtreeScoreKey {
  uint64_t epoch = 0;
  uint64_t fp_hi = 0;
  uint64_t fp_lo = 0;
  int32_t label_id = -1;

  friend bool operator==(const SubtreeScoreKey&,
                         const SubtreeScoreKey&) = default;
};

struct SubtreeScoreTraits {
  static constexpr size_t kDefaultCapacityBytes = 64ull << 20;

  static size_t Hash(const SubtreeScoreKey& key) {
    uint64_t h = xml::FingerprintMix64(key.fp_hi, key.fp_lo);
    h = xml::FingerprintMix64(h, key.epoch);
    h = xml::FingerprintMix64(
        h, static_cast<uint64_t>(static_cast<uint32_t>(key.label_id)));
    return static_cast<size_t>(h);
  }

  /// fp_lo is already well mixed; fold in the label so one hot structure
  /// scored against many DTDs spreads over shards.
  static uint64_t ShardHash(const SubtreeScoreKey& key) {
    return key.fp_lo ^
           (static_cast<uint64_t>(static_cast<uint32_t>(key.label_id)) *
            0xC2B2AE3D27D4EB4Full);
  }

  /// The unit of the byte budget and of `dtdevolve_score_cache_bytes`:
  /// a fixed 160 B per entry, above what one entry occupies (a 72-byte
  /// slot holding key, triple and LRU links, plus two to four 8-byte
  /// index buckets), so a shard holds `capacity_bytes / 2560` entries
  /// (at least one).
  static size_t Cost(const Triple&) { return 160; }
};

/// LRU cache of `Triple` results keyed by `(evaluator epoch, structural
/// fingerprint, declaration label id)`. It carries subtree evaluations
/// *across documents* and across `ClassifyBatch` workers: homogeneous
/// streams repeat subtree structures constantly, and a fingerprint hit
/// replaces a full recursive alignment.
///
/// Epoch keying doubles as invalidation: every `SimilarityEvaluator`
/// draws a fresh epoch id at construction, so rebuilding an evaluator
/// (what `Classifier::Invalidate` does after evolution) orphans all its
/// old entries — they age out of the LRU naturally, no purge needed.
using SubtreeScoreCache =
    ShardedLru<SubtreeScoreKey, Triple, SubtreeScoreTraits>;

}  // namespace dtdevolve::similarity

#endif  // DTDEVOLVE_SIMILARITY_SCORE_CACHE_H_
