#ifndef DTDEVOLVE_SIMILARITY_SIMILARITY_H_
#define DTDEVOLVE_SIMILARITY_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dtd/dtd.h"
#include "dtd/glushkov.h"
#include "similarity/matcher.h"
#include "similarity/score_cache.h"
#include "similarity/thesaurus.h"
#include "similarity/triple.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::similarity {

/// Knobs of the similarity measure.
struct SimilarityOptions {
  EvalWeights weights;
  MatchOptions match;
  /// Optional tag-similarity oracle (§6 extension). Null ⇒ tag equality.
  const Thesaurus* thesaurus = nullptr;
  /// Share of a matched child's unit mass earned by the tag match itself;
  /// the rest is distributed by the child's own (recursive) triple. This
  /// makes deviations deep in the tree discount similarity less than the
  /// same deviation near the root — the level-sensitivity of [2].
  double tag_weight = 0.5;
};

/// Per-element outcome of evaluating a document subtree against the DTD,
/// each element matched against the declaration of its own tag.
struct ElementReport {
  const xml::Element* element = nullptr;
  bool declared = false;
  Triple local_triple;
  double local_similarity = 0.0;
  Triple global_triple;
  double global_similarity = 0.0;
};

/// Call-scoped memo of the recursive global evaluation: an insert-only
/// open-addressing flat hash table keyed by (element address, interned
/// declaration label id). The element may be an `xml::Element` or an
/// `xml::ArenaElement`; one evaluation only ever sees one tree. Slots
/// are generation-stamped, so `clear()` is O(1) and a per-thread memo
/// is reused across documents without rewriting its table.
class TripleMemo {
 public:
  TripleMemo() { slots_.resize(kInitialCapacity); }

  const Triple* Find(const void* element, int32_t label) const {
    size_t mask = slots_.size() - 1;
    for (size_t i = HashKey(element, label) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_) return nullptr;
      if (slot.element == element && slot.label == label) return &slot.value;
    }
  }

  void Insert(const void* element, int32_t label, const Triple& value) {
    if ((size_ + 1) * 3 > slots_.size() * 2) Grow();
    InsertNoGrow(element, label, value);
    ++size_;
  }

  /// Empties the memo. A table grown past `kMaxRetainedCapacity` by a
  /// large document shrinks back, so a long-lived memo stays small.
  void clear() {
    size_ = 0;
    if (slots_.size() > kMaxRetainedCapacity) {
      slots_.assign(kInitialCapacity, Slot{});
      generation_ = 1;
    } else if (++generation_ == 0) {
      slots_.assign(slots_.size(), Slot{});
      generation_ = 1;
    }
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    const void* element = nullptr;
    int32_t label = 0;
    /// The slot is live iff this equals the memo's `generation_`.
    uint32_t generation = 0;
    Triple value;
  };

  static constexpr size_t kInitialCapacity = 64;  // power of two
  static constexpr size_t kMaxRetainedCapacity = 1 << 14;

  static size_t HashKey(const void* element, int32_t label) {
    // Element addresses are ≥ 8-byte aligned; drop the dead bits and mix
    // with the label by a 64-bit odd multiplier.
    uint64_t h = (reinterpret_cast<uintptr_t>(element) >> 3) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(label)) << 32);
    h *= 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }

  void InsertNoGrow(const void* element, int32_t label,
                    const Triple& value) {
    size_t mask = slots_.size() - 1;
    for (size_t i = HashKey(element, label) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot.element = element;
        slot.label = label;
        slot.generation = generation_;
        slot.value = value;
        return;
      }
      if (slot.element == element && slot.label == label) {
        slot.value = value;
        return;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const uint32_t live = generation_;
    generation_ = 1;
    for (const Slot& slot : old) {
      if (slot.generation == live) {
        InsertNoGrow(slot.element, slot.label, slot.value);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

/// Child nodes aligned 1:1 with the content-symbol ids of `element`
/// (nullptr entries stand for text runs). `symbol_ids` must come from
/// `validate::ContentSymbolIds(element)`; a mismatched sequence (more
/// element symbols than child elements, or leftovers) is tolerated
/// defensively — surplus symbols map to nullptr, surplus children are
/// ignored — instead of indexing out of bounds.
std::vector<const xml::Element*> AlignSymbolElements(
    const xml::Element& element, const std::vector<int32_t>& symbol_ids);

/// Per-thread buffers of the global recursion (defined in similarity.cc).
struct EvalScratch;

/// The structural-similarity measure of the companion paper [2], extended
/// with the *local similarity* variant this paper introduces (§3.1):
///
///  * **local** similarity of element e_d vs declaration e evaluates only
///    how the direct children of e_d meet the constraints of e's content
///    model — declarations of subelements are ignored;
///  * **global** similarity recursively evaluates matched children against
///    their own declarations, so it is the numeric counterpart of validity
///    (a valid subtree has global similarity 1).
///
/// Both visit document and DTD trees simultaneously, associate a
/// `(plus, minus, common)` triple with each node, and evaluate it with E.
/// A matched child contributes one unit of mass to its parent's triple,
/// distributed according to the child's own (normalized) triple — so
/// deviations deep in the tree discount global similarity proportionally.
///
/// Hot-path layout: tags and declaration labels are interned
/// (`util::GlobalSymbols()`), so all comparisons and memo probes are over
/// `int32` ids; an optional shared `SubtreeScoreCache` carries triples
/// across documents keyed by structural fingerprint and this evaluator's
/// `epoch()` (drawn fresh at construction, which is what invalidates the
/// cache when a DTD evolves and its evaluator is rebuilt). The global
/// recursion is one template over the element type: a document scores
/// the same, bit for bit, as an `xml::Document` and as the
/// `xml::ArenaDocument` the streaming parser built, whose nodes already
/// carry their subtree fingerprints. The recursion allocates nothing
/// once warm: the per-document memo and one alignment scratch per
/// recursion depth are per-thread and reused.
///
/// Thread-safety: after construction the evaluator is immutable except
/// for the cross-call memo of the single-element API. `DocumentSimilarity`
/// (per-thread memo) and `EvaluateElements` (call-local memo) may
/// therefore be called concurrently from any number of threads on one
/// shared evaluator (this is what batch classification relies on); the
/// shared cache is internally synchronized. The single-element `GlobalTriple` /
/// `GlobalSimilarity` entry points share the member memo across calls and
/// are NOT thread-safe; confine them (and `ClearMemo`) to one thread at a
/// time. `set_shared_cache` is a mutating entry point: install the cache
/// before concurrent scoring starts.
class SimilarityEvaluator {
 public:
  explicit SimilarityEvaluator(const dtd::Dtd& dtd,
                               SimilarityOptions options = {});

  SimilarityEvaluator(const SimilarityEvaluator&) = delete;
  SimilarityEvaluator& operator=(const SimilarityEvaluator&) = delete;

  /// Similarity of a whole document to the DTD: the root element evaluated
  /// globally against the DTD root declaration, scaled by root-tag
  /// similarity. In [0, 1]; 1 iff the document is valid. Thread-safe.
  double DocumentSimilarity(const xml::Document& doc) const;

  /// Fast-path variant: `fingerprints` is the index built over the
  /// document's root subtree, enabling the shared subtree cache (when one
  /// is attached) without recomputing fingerprints per DTD. Passing
  /// nullptr computes them on demand when a cache is attached. The result
  /// is bit-identical to the plain overload.
  double DocumentSimilarity(const xml::Document& doc,
                            const SubtreeFingerprints* fingerprints) const;

  /// Arena-tree variant: scores the streaming parser's tree directly,
  /// with no DOM and no fingerprint index (the nodes carry their
  /// fingerprints). Bit-identical to the DOM overloads on the
  /// `ToDocument()` of `doc`. Thread-safe.
  double DocumentSimilarity(const xml::ArenaDocument& doc) const;

  /// Tag similarity of `root`'s tag against this DTD's root declaration
  /// name — the factor that scales (and gates) `DocumentSimilarity`.
  double RootTagScore(const xml::Element& root) const;
  double RootTagScore(const xml::ArenaElement& root) const;

  /// Conservative upper bound on `DocumentSimilarity(doc)`, computed from
  /// the root tag and the document's root content-symbol ids
  /// (`validate::ContentSymbolIds(doc.root())`) alone — no recursion, no
  /// alignment. Guaranteed `bound ≥ exact` for non-negative weights:
  /// every root child symbol owns exactly one unit of the root triple's
  /// document-side mass, and a symbol absent from the root content
  /// model's label vocabulary can only be plus mass, so with `u` such
  /// symbols out of `n` the evaluation cannot exceed
  /// `w_c(n−u) / (w_c(n−u) + w_p·u)`; the whole product is additionally
  /// capped by the root tag score (E ≤ 1). Falls back to the tag score
  /// when the vocabulary argument does not apply (ANY/undeclared root,
  /// thesaurus in play, or u = 0). The classifier sorts DTDs by this
  /// bound and skips evaluations that cannot beat the best score so far.
  double ScoreUpperBound(const xml::Document& doc,
                         const std::vector<int32_t>& root_symbol_ids) const;
  double ScoreUpperBound(const xml::ArenaDocument& doc,
                         const std::vector<int32_t>& root_symbol_ids) const;

  /// Global triple / similarity of one element against declaration
  /// `decl_name`. An undeclared name behaves like ANY. Results are
  /// memoized across calls (see `ClearMemo`); not thread-safe.
  Triple GlobalTriple(const xml::Element& element,
                      const std::string& decl_name) const;
  double GlobalSimilarity(const xml::Element& element,
                          const std::string& decl_name) const;

  /// Local triple / similarity (direct children only).
  Triple LocalTriple(const xml::Element& element,
                     const std::string& decl_name) const;
  double LocalSimilarity(const xml::Element& element,
                         const std::string& decl_name) const;

  /// The full alignment of an element's children against `decl_name`'s
  /// content model with *local* credits — recording and analysis use the
  /// assignment details.
  MatchResult AlignLocal(const xml::Element& element,
                         const std::string& decl_name) const;

  /// Pre-order per-element reports for a whole subtree, each element
  /// matched against the declaration of its own tag. Thread-safe.
  std::vector<ElementReport> EvaluateElements(const xml::Element& root) const;

  const dtd::Dtd& dtd() const { return *dtd_; }
  const SimilarityOptions& options() const { return options_; }

  /// Attaches (or detaches, with nullptr) a shared cross-document subtree
  /// score cache. Not owned; must outlive the evaluator. Entries are
  /// keyed by this evaluator's `epoch()`, so caches may be shared freely
  /// across evaluators and DTD generations.
  void set_shared_cache(SubtreeScoreCache* cache) { cache_ = cache; }
  SubtreeScoreCache* shared_cache() const { return cache_; }

  /// Unique id of this evaluator instance (drawn from a process-global
  /// monotonic counter at construction); the shared-cache key component
  /// that makes rebuild-after-evolution an implicit invalidation.
  uint64_t epoch() const { return epoch_; }

  /// Drops the cross-call memo of the single-element API. The memo is
  /// keyed by element addresses, so it must not outlive the documents it
  /// was built from; callers holding the evaluator across documents while
  /// using the single-element `GlobalTriple` API should clear it between
  /// documents. (`DocumentSimilarity` and `EvaluateElements` use their own
  /// call-local memo and neither read nor touch this one.)
  void ClearMemo() const { memo_.clear(); }

 private:
  /// Everything one recursive evaluation threads through: the call-local
  /// memo, the per-thread alignment scratch, plus the optional
  /// shared-cache machinery. `fingerprints` indexes a DOM tree; arena
  /// nodes carry their own.
  struct EvalContext {
    TripleMemo* memo = nullptr;
    EvalScratch* scratch = nullptr;
    const SubtreeFingerprints* fingerprints = nullptr;
    SubtreeScoreCache* cache = nullptr;
  };

  /// Tag similarity per options (1/0 equality unless a thesaurus is set).
  double TagScore(std::string_view a, std::string_view b) const;
  /// Id fast path: equal non-negative ids short-circuit to 1 without
  /// touching strings. A negative id is the interning-overflow sentinel
  /// shared by every overflow tag, so either side being negative falls
  /// back to `TagScore` on the strings.
  double TagScoreId(int32_t a_id, std::string_view a, int32_t b_id,
                    std::string_view b) const;

  const dtd::Automaton* FindAutomaton(int32_t label_id) const;
  const dtd::Automaton* FindAutomaton(const std::string& name) const;

  /// The global recursion, for `xml::Element` and `xml::ArenaElement`.
  /// `depth` selects this level's alignment scratch: the credit of a
  /// depth-d alignment recurses at depth d + 1 while d's search is live.
  template <typename ElementT>
  Triple GlobalTripleCached(const ElementT& element, int32_t label_id,
                            EvalContext& ctx, size_t depth) const;
  /// `DocumentSimilarity` of a root element, on this thread's scratch.
  template <typename ElementT>
  double ScoreRoot(const ElementT& root,
                   const SubtreeFingerprints* fingerprints) const;
  /// `ScoreUpperBound` once the root tag score is known.
  double BoundFromTag(double tag,
                      const std::vector<int32_t>& root_symbol_ids) const;

  const dtd::Dtd* dtd_;
  SimilarityOptions options_;
  std::unordered_map<int32_t, dtd::Automaton> automata_;
  /// Root-declaration signature, precomputed for `RootTagScore` and
  /// `ScoreUpperBound`.
  int32_t root_name_id_ = -1;
  const dtd::Automaton* root_automaton_ = nullptr;
  bool root_any_ = true;
  std::vector<int32_t> root_label_ids_;  // sorted, distinct
  uint64_t epoch_ = 0;
  SubtreeScoreCache* cache_ = nullptr;
  /// Cross-call memo backing the single-element `GlobalTriple` API only.
  mutable TripleMemo memo_;
};

}  // namespace dtdevolve::similarity

#endif  // DTDEVOLVE_SIMILARITY_SIMILARITY_H_
