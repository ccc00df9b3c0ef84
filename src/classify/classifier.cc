#include "classify/classifier.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>

#include "util/thread_pool.h"
#include "validate/validator.h"

namespace dtdevolve::classify {

namespace {

/// Float slack of the pruning cutoff: an evaluation is skipped only when
/// its bound is strictly below `best − kPruneSlack`, so bound-vs-exact
/// rounding can never prune the true winner — a pruned DTD's exact score
/// is strictly below the best, which also keeps it out of the
/// equal-score tie-break entirely.
constexpr double kPruneSlack = 1e-9;

using Clock = std::chrono::steady_clock;

/// One DTD's exact score of a document, per representation: a DOM
/// carries its fingerprint index beside it, an arena tree in its nodes.
double ScoreOf(const similarity::SimilarityEvaluator& evaluator,
               const xml::Document& doc,
               const similarity::SubtreeFingerprints* fingerprints) {
  return evaluator.DocumentSimilarity(doc, fingerprints);
}
double ScoreOf(const similarity::SimilarityEvaluator& evaluator,
               const xml::ArenaDocument& doc,
               const similarity::SubtreeFingerprints*) {
  return evaluator.DocumentSimilarity(doc);
}

/// Runs `classify_one` over `docs` on `pool`'s workers, or inline.
template <typename DocT, typename ClassifyOne>
std::vector<ClassificationOutcome> ClassifyEach(
    const std::vector<const DocT*>& docs, util::ThreadPool* pool,
    const ClassifyOne& classify_one) {
  std::vector<ClassificationOutcome> outcomes(docs.size());
  auto score = [&](size_t i) { outcomes[i] = classify_one(*docs[i]); };
  if (pool == nullptr || pool->size() <= 1) {
    for (size_t i = 0; i < docs.size(); ++i) score(i);
  } else {
    pool->ParallelFor(docs.size(), score);
  }
  return outcomes;
}

}  // namespace

Classifier::Classifier(double sigma, similarity::SimilarityOptions options,
                       ClassifierOptions classifier_options)
    : sigma_(sigma),
      options_(options),
      classifier_options_(classifier_options),
      set_epoch_(NextClassifierSetEpoch()) {
  cache_ = similarity::SubtreeScoreCache::OwnOrShare(
      classifier_options_.score_cache_bytes, classifier_options_.shared_cache,
      &owned_cache_);
  memo_ = ClassificationMemo::OwnOrShare(
      classifier_options_.classification_memo_bytes,
      classifier_options_.shared_memo, &owned_memo_);
}

void Classifier::set_metrics(const ClassifierMetrics& metrics) {
  metrics_ = metrics;
  // Traffic counters are installed only on an owned cache or memo: a
  // shared one is wired once by its owner, and letting every sharing
  // classifier re-install its own counters would clobber the others'.
  if (owned_cache_ != nullptr) {
    owned_cache_->set_metrics(metrics.cache_hits, metrics.cache_misses,
                              metrics.cache_evictions);
  }
  if (owned_memo_ != nullptr) {
    owned_memo_->set_metrics(metrics.memo_hits, metrics.memo_misses,
                             metrics.memo_evictions);
  }
}

void Classifier::AddDtd(const std::string& name, const dtd::Dtd* dtd) {
  assert(dtd != nullptr);
  set_epoch_ = NextClassifierSetEpoch();
  dtds_[name] = dtd;
  auto evaluator =
      std::make_unique<similarity::SimilarityEvaluator>(*dtd, options_);
  evaluator->set_shared_cache(cache_);
  evaluators_[name] = std::move(evaluator);
}

bool Classifier::RemoveDtd(const std::string& name) {
  set_epoch_ = NextClassifierSetEpoch();
  evaluators_.erase(name);
  return dtds_.erase(name) > 0;
}

void Classifier::Invalidate(const std::string& name) {
  auto it = dtds_.find(name);
  if (it == dtds_.end()) return;
  // Like the per-evaluator epoch, the set-epoch re-draw is the memo
  // invalidation: outcomes scored against the old declarations are
  // unreachable from here on.
  set_epoch_ = NextClassifierSetEpoch();
  // The fresh evaluator draws a fresh epoch, so every shared-cache entry
  // of the old evaluator is unreachable from here on — epoch keying is
  // the invalidation.
  auto evaluator = std::make_unique<similarity::SimilarityEvaluator>(
      *it->second, options_);
  evaluator->set_shared_cache(cache_);
  evaluators_[name] = std::move(evaluator);
}

void Classifier::InvalidateAll() {
  set_epoch_ = NextClassifierSetEpoch();
  for (const auto& [name, dtd] : dtds_) {
    auto evaluator =
        std::make_unique<similarity::SimilarityEvaluator>(*dtd, options_);
    evaluator->set_shared_cache(cache_);
    evaluators_[name] = std::move(evaluator);
  }
}

std::vector<std::string> Classifier::DtdNames() const {
  std::vector<std::string> names;
  names.reserve(dtds_.size());
  for (const auto& [name, dtd] : dtds_) names.push_back(name);
  return names;
}

const similarity::SimilarityEvaluator& Classifier::EvaluatorFor(
    const std::string& name) const {
  auto it = evaluators_.find(name);
  assert(it != evaluators_.end());
  return *it->second;
}

Clock::time_point Classifier::StartClock() const {
  // The clock is read only when someone actually installed a histogram,
  // so the uninstrumented hot path pays nothing.
  return metrics_.score_seconds != nullptr ? Clock::now()
                                           : Clock::time_point();
}

void Classifier::CountReplay() const {
  if (metrics_.documents_scored != nullptr) {
    metrics_.documents_scored->Increment();
  }
}

template <typename DocT>
ClassificationOutcome Classifier::Score(
    const DocT& doc, const similarity::SubtreeFingerprints* fingerprints,
    const ClassificationMemo::Key* memo_key, Clock::time_point start) const {
  ClassificationOutcome outcome;
  outcome.scores.resize(dtds_.size());

  // The root content symbols feed the score bounds.
  const bool prune = classifier_options_.enable_pruning && dtds_.size() > 1;
  std::vector<int32_t> root_symbol_ids;
  if (prune && doc.has_root()) {
    root_symbol_ids = validate::ContentSymbolIds(doc.root());
  }

  struct Candidate {
    size_t index = 0;  // position in name order == outcome.scores slot
    const std::string* name = nullptr;
    const similarity::SimilarityEvaluator* evaluator = nullptr;
    double bound = 0.0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(dtds_.size());
  {
    size_t index = 0;
    for (const auto& [name, dtd] : dtds_) {
      Candidate c;
      c.index = index++;
      c.name = &name;
      c.evaluator = &EvaluatorFor(name);
      c.bound = prune ? c.evaluator->ScoreUpperBound(doc, root_symbol_ids)
                      : 0.0;
      candidates.push_back(c);
    }
  }
  if (prune) {
    // Highest bound first; names break ties so the visit order (and with
    // it which equal-bound DTD seeds `best`) is deterministic.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.bound != b.bound) return a.bound > b.bound;
                       return *a.name < *b.name;
                     });
  }

  const std::string* best_name = nullptr;
  double best_score = 0.0;
  for (const Candidate& c : candidates) {
    // Never prune before a first exact score exists; afterwards skip any
    // DTD whose bound cannot beat it. σ is deliberately not part of the
    // cutoff: the best sub-σ score must still be reported exactly. With
    // pruning disabled every bound is a meaningless 0.0, so the cutoff
    // must not fire at all — every DTD gets an exact evaluation.
    if (prune && best_name != nullptr && c.bound < best_score - kPruneSlack) {
      outcome.scores[c.index] = {*c.name, c.bound, /*pruned=*/true};
      if (metrics_.evaluations_pruned != nullptr) {
        metrics_.evaluations_pruned->Increment();
      }
      continue;
    }
    double score = ScoreOf(*c.evaluator, doc, fingerprints);
    if (metrics_.similarity_evaluations != nullptr) {
      metrics_.similarity_evaluations->Increment();
    }
    outcome.scores[c.index] = {*c.name, score, /*pruned=*/false};
    // Highest score wins; among equal best scores the lexicographically
    // smallest name wins. Spelled out so the rule holds whatever order
    // the DTDs are visited in.
    if (best_name == nullptr || score > best_score ||
        (score == best_score && *c.name < *best_name)) {
      best_score = score;
      best_name = c.name;
    }
  }
  if (best_name != nullptr) {
    outcome.dtd_name = *best_name;
    outcome.similarity = best_score;
  }
  outcome.classified =
      !outcome.dtd_name.empty() && outcome.similarity >= sigma_;
  if (memo_key != nullptr) memo_->Insert(*memo_key, outcome);
  if (metrics_.documents_scored != nullptr) {
    metrics_.documents_scored->Increment();
  }
  if (metrics_.score_seconds != nullptr) {
    metrics_.score_seconds->Observe(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return outcome;
}

ClassificationOutcome Classifier::Classify(const xml::Document& doc) const {
  const Clock::time_point start = StartClock();
  // The subtree fingerprints feed the shared cache and the
  // classification memo.
  std::optional<similarity::SubtreeFingerprints> fingerprints;
  if ((cache_ != nullptr || memo_ != nullptr) && doc.has_root()) {
    fingerprints.emplace(doc.root());
  }

  // Memo probe: within one set-epoch, equal root fingerprints imply an
  // identical outcome against every DTD — replay it and skip scoring.
  std::optional<ClassificationMemo::Key> memo_key;
  if (memo_ != nullptr && fingerprints) {
    const similarity::SubtreeStats* root_stats =
        fingerprints->Find(&doc.root());
    if (root_stats != nullptr) {
      memo_key.emplace(set_epoch_, root_stats->fp_hi, root_stats->fp_lo);
      ClassificationOutcome outcome;
      if (memo_->Lookup(*memo_key, &outcome)) {
        CountReplay();
        return outcome;
      }
    }
  }
  return Score(doc, cache_ != nullptr && fingerprints ? &*fingerprints : nullptr,
               memo_key ? &*memo_key : nullptr, start);
}

std::optional<ClassificationOutcome> Classifier::MemoProbe(
    const xml::ArenaDocument& doc) const {
  if (memo_ == nullptr || !doc.has_root()) return std::nullopt;
  const xml::ArenaElement& root = doc.root();
  ClassificationMemo::Key key{set_epoch_, root.fp_hi, root.fp_lo};
  ClassificationOutcome outcome;
  if (!memo_->Lookup(key, &outcome)) return std::nullopt;
  CountReplay();
  return outcome;
}

ClassificationOutcome Classifier::ClassifyArena(
    const xml::ArenaDocument& doc,
    std::optional<xml::Document>* materialized) const {
  const Clock::time_point start = StartClock();
  if (std::optional<ClassificationOutcome> replayed = MemoProbe(doc)) {
    return *std::move(replayed);
  }
  // Miss (or memo off): score the arena tree itself and insert under the
  // key the probe used — the root fingerprint from the parse.
  std::optional<ClassificationMemo::Key> memo_key;
  if (memo_ != nullptr && doc.has_root()) {
    memo_key.emplace(set_epoch_, doc.root().fp_hi, doc.root().fp_lo);
  }
  ClassificationOutcome outcome =
      Score(doc, nullptr, memo_key ? &*memo_key : nullptr, start);
  if (materialized != nullptr) materialized->emplace(doc.ToDocument());
  return outcome;
}

std::vector<ClassificationOutcome> Classifier::ClassifyBatch(
    const std::vector<const xml::Document*>& docs,
    util::ThreadPool* pool) const {
  return ClassifyEach(docs, pool,
                      [this](const xml::Document& doc) { return Classify(doc); });
}

std::vector<ClassificationOutcome> Classifier::ClassifyBatch(
    const std::vector<const xml::ArenaDocument*>& docs,
    util::ThreadPool* pool) const {
  return ClassifyEach(docs, pool, [this](const xml::ArenaDocument& doc) {
    return ClassifyArena(doc, nullptr);
  });
}

std::optional<double> Classifier::Similarity(const xml::Document& doc,
                                             const std::string& name) const {
  if (dtds_.find(name) == dtds_.end()) return std::nullopt;
  return EvaluatorFor(name).DocumentSimilarity(doc);
}

std::optional<double> Classifier::ScoreBound(const xml::Document& doc,
                                             const std::string& name) const {
  if (dtds_.find(name) == dtds_.end()) return std::nullopt;
  std::vector<int32_t> root_symbol_ids;
  if (doc.has_root()) {
    root_symbol_ids = validate::ContentSymbolIds(doc.root());
  }
  return EvaluatorFor(name).ScoreUpperBound(doc, root_symbol_ids);
}

}  // namespace dtdevolve::classify
