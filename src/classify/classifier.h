#ifndef DTDEVOLVE_CLASSIFY_CLASSIFIER_H_
#define DTDEVOLVE_CLASSIFY_CLASSIFIER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "classify/classification_memo.h"
#include "classify/outcome.h"
#include "dtd/dtd.h"
#include "obs/metrics.h"
#include "similarity/score_cache.h"
#include "similarity/similarity.h"
#include "util/thread_pool.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::classify {

/// Optional instrumentation of the scoring hot path. All pointers may be
/// null (the corresponding signal is skipped); the pointees must outlive
/// the classifier. Counters and histograms are internally atomic, so the
/// hooks fire safely from `ClassifyBatch` worker threads.
struct ClassifierMetrics {
  /// One increment per document scored (any entry point).
  obs::Counter* documents_scored = nullptr;
  /// One increment per document × DTD similarity evaluation.
  obs::Counter* similarity_evaluations = nullptr;
  /// One increment per document × DTD evaluation skipped because its
  /// score bound could not beat the best score already found.
  obs::Counter* evaluations_pruned = nullptr;
  /// Shared subtree score cache traffic (see SubtreeScoreCache).
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_evictions = nullptr;
  /// Classification memo traffic (see ClassificationMemo). A memo hit
  /// counts on `documents_scored` but performs zero similarity
  /// evaluations.
  obs::Counter* memo_hits = nullptr;
  obs::Counter* memo_misses = nullptr;
  obs::Counter* memo_evictions = nullptr;
  /// Wall-clock seconds spent scoring one document against the full set,
  /// observed once per scored document on every entry point; a memo
  /// replay scores nothing and observes nothing.
  obs::Histogram* score_seconds = nullptr;
};

/// Fast-path knobs of the classifier. All three layers — score-bound
/// pruning, the subtree score cache and the classification memo — are
/// score-equivalent: enabling or disabling them never changes
/// `classified` / `dtd_name` / `similarity` (only how much work is spent
/// computing them), which the differential oracle's batch-divergence
/// invariant enforces end to end.
struct ClassifierOptions {
  /// Score-bound pruning: sort DTDs by a conservative per-document upper
  /// bound and skip evaluations that cannot beat the best score so far.
  bool enable_pruning = true;
  /// Approximate capacity of the shared cross-document subtree score
  /// cache; 0 turns the cache off.
  size_t score_cache_bytes = 64ull << 20;
  /// Optional process-wide cache to use instead of an owned one. Non-
  /// owning: the pointee must outlive the classifier. Epoch keying makes
  /// one cache safe to share across any number of classifiers (each
  /// evaluator draws a globally unique epoch), which the multi-tenant
  /// `SourceManager` relies on to share a single budget across shards.
  /// Ignored when `score_cache_bytes` is 0. A classifier using a shared
  /// cache never installs its own metrics on it (the cache owner wires
  /// aggregate counters once), and the cache's capacity is the owner's.
  similarity::SubtreeScoreCache* shared_cache = nullptr;
  /// Approximate capacity of the classified-structure dedup; 0 turns it
  /// off. The memo keys whole outcomes by `(set-epoch, root
  /// fingerprint)` so a document whose root fingerprint matches an
  /// already-classified structure skips scoring entirely.
  /// Score-equivalent like the other two layers — a hit replays
  /// byte-identical `classified` / `dtd_name` / `similarity` / `scores`,
  /// because the fingerprint determines every triple and the epoch pins
  /// the DTD set and σ.
  size_t classification_memo_bytes = 32ull << 20;
  /// Optional process-wide memo (same sharing contract as
  /// `shared_cache`: non-owning, epoch keying makes it safe across
  /// classifiers, ignored when `classification_memo_bytes` is 0, the
  /// owner wires metrics and sizes it).
  ClassificationMemo* shared_memo = nullptr;
};

/// Classifies documents against a *set of DTDs* (§2): each document is
/// matched against every DTD with the structural-similarity measure; it
/// becomes an instance of the best-scoring DTD when that score is ≥ σ,
/// and is otherwise left to the repository of unclassified documents.
///
/// Tie-break: the best-scoring DTD wins; among equal best scores the
/// lexicographically smallest name wins, independently of registration or
/// container order. `ClassifyBatch` follows the same rule.
///
/// Fast path: the document's root content symbols and subtree
/// fingerprints are derived once (an arena tree from the streaming
/// parser carries its fingerprints and is scored as is, with no DOM
/// built), every DTD gets a conservative score
/// upper bound (root-tag gate + label-vocabulary overlap — see
/// `SimilarityEvaluator::ScoreUpperBound`), DTDs are visited in
/// bound-descending order, and an evaluation is skipped when its bound
/// cannot beat the best score already found. Pruning never consults σ:
/// folding σ into the cutoff would leave the best score unknown for
/// sub-σ documents and break byte-identical outcomes. Subtree triples
/// are additionally shared across documents and batch workers through a
/// `SubtreeScoreCache` keyed by evaluator epoch, which `Invalidate` /
/// `InvalidateAll` bump implicitly by rebuilding evaluators.
///
/// The classifier holds non-owning pointers to the DTDs; call
/// `Invalidate` after a DTD object changes (e.g. after evolution) so the
/// cached evaluator is rebuilt.
///
/// Thread-safety: evaluators are built eagerly by the mutating entry
/// points (`AddDtd`, `Invalidate`, …), so the const entry points
/// (`Classify`, `ClassifyBatch`, `Similarity`, `DtdNames`) mutate nothing
/// (the shared cache is internally synchronized) and may be called
/// concurrently from any number of threads, as long as no thread is
/// mutating the DTD set at the same time. The mutating entry points
/// themselves require external serialization (`XmlSource` calls them
/// only between batches).
class Classifier {
 public:
  explicit Classifier(double sigma, similarity::SimilarityOptions options = {},
                      ClassifierOptions classifier_options = {});

  Classifier(const Classifier&) = delete;
  Classifier& operator=(const Classifier&) = delete;

  double sigma() const { return sigma_; }
  void set_sigma(double sigma) {
    sigma_ = sigma;
    // σ participates in `classified`, so memoized outcomes under the old
    // threshold must become unreachable.
    set_epoch_ = NextClassifierSetEpoch();
  }

  const ClassifierOptions& classifier_options() const {
    return classifier_options_;
  }

  /// Installs (or clears, with a default-constructed value) the scoring
  /// instrumentation. Mutating entry point: do not call concurrently
  /// with scoring.
  void set_metrics(const ClassifierMetrics& metrics);

  /// Registers (or re-registers) a DTD under `name` and builds its
  /// evaluator. The pointee must outlive the classifier or its next
  /// `Invalidate(name)`.
  void AddDtd(const std::string& name, const dtd::Dtd* dtd);
  /// Removes a DTD from the set; returns false when unknown.
  bool RemoveDtd(const std::string& name);
  /// Rebuilds the cached evaluator of `name` (the DTD object changed).
  /// The fresh evaluator draws a new epoch, orphaning the stale shared-
  /// cache entries of the old one.
  void Invalidate(const std::string& name);
  void InvalidateAll();

  std::vector<std::string> DtdNames() const;
  size_t size() const { return dtds_.size(); }

  /// Classifies `doc` against every registered DTD.
  ClassificationOutcome Classify(const xml::Document& doc) const;

  /// Classifies a streaming-parsed document, memo-first: the arena
  /// carries the root fingerprint from the parse, so a hit replays the
  /// cached outcome. On a miss (or with the memo off) the arena tree is
  /// scored directly — bit-identical to `Classify` on its `ToDocument()`
  /// — and the outcome is inserted under the same key `Classify` would
  /// use, because arena and DOM fingerprints are bit-identical by
  /// construction. No DOM is built unless `materialized` is non-null:
  /// then it receives `doc.ToDocument()` on a miss and stays empty on a
  /// memo hit.
  ClassificationOutcome ClassifyArena(
      const xml::ArenaDocument& doc,
      std::optional<xml::Document>* materialized) const;

  /// Memo-probe half of `ClassifyArena`: replays the cached outcome for
  /// the arena root's fingerprint under the current set-epoch, or
  /// returns nullopt (memo off, rootless document, or a miss) without
  /// scoring anything. A replay counts on `documents_scored`.
  std::optional<ClassificationOutcome> MemoProbe(
      const xml::ArenaDocument& doc) const;

  /// Classifies every document on `pool`'s workers (`pool == nullptr`,
  /// or a pool of one worker, scores inline). Scoring is read-only, so
  /// the result is identical — entry by entry — to calling `Classify` on
  /// each document in order. Entries must be non-null.
  std::vector<ClassificationOutcome> ClassifyBatch(
      const std::vector<const xml::Document*>& docs,
      util::ThreadPool* pool) const;
  /// Arena twin: entry by entry identical to `ClassifyArena(doc, nullptr)`
  /// on each document in order. Each worker scores on its own per-thread
  /// scratch.
  std::vector<ClassificationOutcome> ClassifyBatch(
      const std::vector<const xml::ArenaDocument*>& docs,
      util::ThreadPool* pool) const;

  /// Similarity of `doc` against one registered DTD; nullopt when `name`
  /// is unknown (distinguishable from a genuine zero score).
  std::optional<double> Similarity(const xml::Document& doc,
                                   const std::string& name) const;

  /// The conservative score upper bound the pruning layer would use for
  /// `doc` against DTD `name`; nullopt when `name` is unknown. Exposed
  /// for analysis and for the bound-admissibility property tests.
  std::optional<double> ScoreBound(const xml::Document& doc,
                                   const std::string& name) const;

  /// The subtree score cache in use (owned or shared), or nullptr when
  /// disabled.
  const similarity::SubtreeScoreCache* score_cache() const { return cache_; }

  /// The classification memo in use (owned or shared), or nullptr when
  /// disabled.
  const ClassificationMemo* classification_memo() const { return memo_; }

  /// The current set-epoch (changes on every outcome-relevant mutation);
  /// exposed for the memo-discipline tests.
  uint64_t set_epoch() const { return set_epoch_; }

 private:
  const similarity::SimilarityEvaluator& EvaluatorFor(
      const std::string& name) const;

  /// Now, when a score histogram is installed; otherwise a zero time.
  std::chrono::steady_clock::time_point StartClock() const;
  /// Counts a memo replay on `documents_scored`.
  void CountReplay() const;
  /// Scores `doc` (an `xml::Document` or `xml::ArenaDocument`) against
  /// every DTD: bound-ordered visit, pruning, tie-break, memo insert
  /// under `memo_key` (when non-null) and the scoring metrics.
  /// `fingerprints` indexes a DOM for the score cache; null for an
  /// arena tree, or when the cache is off.
  template <typename DocT>
  ClassificationOutcome Score(
      const DocT& doc, const similarity::SubtreeFingerprints* fingerprints,
      const ClassificationMemo::Key* memo_key,
      std::chrono::steady_clock::time_point start) const;

  double sigma_;
  similarity::SimilarityOptions options_;
  ClassifierOptions classifier_options_;
  ClassifierMetrics metrics_;
  std::map<std::string, const dtd::Dtd*> dtds_;
  /// Always holds exactly one (eagerly built) evaluator per entry of
  /// `dtds_` — maintained by the mutating entry points, never from const
  /// methods.
  std::map<std::string, std::unique_ptr<similarity::SimilarityEvaluator>>
      evaluators_;
  /// The cache evaluators score through and the memo outcomes replay
  /// through: the shared ones from `ClassifierOptions` when given, else
  /// owned ones; null when the layer is off. The cache is shared across
  /// every evaluator, every document and every batch worker.
  similarity::SubtreeScoreCache* cache_ = nullptr;
  ClassificationMemo* memo_ = nullptr;
  /// Set only when the classifier owns its cache / memo; `set_metrics`
  /// installs counters on these alone.
  std::unique_ptr<similarity::SubtreeScoreCache> owned_cache_;
  std::unique_ptr<ClassificationMemo> owned_memo_;
  /// Epoch of the current DTD-set + σ state, re-drawn (globally unique)
  /// by every mutating entry point; the memo key's first component.
  uint64_t set_epoch_ = 0;
};

}  // namespace dtdevolve::classify

#endif  // DTDEVOLVE_CLASSIFY_CLASSIFIER_H_
