#include "similarity/similarity.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <optional>

#include "util/string_util.h"
#include "util/symbol_table.h"
#include "validate/validator.h"

namespace dtdevolve::similarity {

namespace {

/// Subtrees with fewer elements are cheaper to recompute than to
/// round-trip through a shard mutex of the shared cache; they are never
/// cached.
constexpr uint32_t kMinCachedSubtreeElements = 4;

/// Contribution of a matched child to its parent's triple: one unit of
/// mass. A share `alpha` (the tag weight) is earned by the tag match
/// itself; the remainder is split by the child's own normalized triple.
/// Everything is scaled by the tag-similarity score, whose residue is
/// charged half to plus and half to minus (the tags deviate in both
/// directions at once).
Triple MatchedChildContribution(const Triple& child, double tag_score,
                                double alpha) {
  double total = child.total();
  double p_frac = 0.0, m_frac = 0.0, c_frac = 1.0;
  if (total > 0.0) {
    p_frac = child.plus / total;
    m_frac = child.minus / total;
    c_frac = child.common / total;
  }
  double common_share = alpha + (1.0 - alpha) * c_frac;
  double residue = (1.0 - tag_score) * common_share;
  return Triple((1.0 - alpha) * p_frac + residue / 2.0,
                (1.0 - alpha) * m_frac + residue / 2.0,
                tag_score * common_share);
}

/// Source of `SimilarityEvaluator::epoch()`: every evaluator instance
/// gets a process-unique id, so shared-cache entries written against a
/// replaced evaluator can never be read by its successor.
std::atomic<uint64_t> g_epoch_counter{0};

// Shape adapters: the global recursion reads an element through these,
// so one template serves the DOM and the arena tree.

using xml::TagIdOf;
using xml::TagOf;

/// The structural fingerprint of `element`'s subtree, or false when none
/// is known (a DOM scored without an index).
bool StatsOf(const xml::Element& element,
             const SubtreeFingerprints* fingerprints, SubtreeStats* stats) {
  if (fingerprints == nullptr) return false;
  const SubtreeStats* found = fingerprints->Find(&element);
  if (found == nullptr) return false;
  *stats = *found;
  return true;
}
bool StatsOf(const xml::ArenaElement& element, const SubtreeFingerprints*,
             SubtreeStats* stats) {
  *stats = {element.fp_hi, element.fp_lo, element.element_count};
  return true;
}

/// An arena element's child slots already are its content symbols: blank
/// runs dropped and adjacent text runs merged at parse time.
struct ArenaSymbolChildren {
  const xml::ArenaChild* slots;
  size_t count;
  size_t size() const { return count; }
  const xml::ArenaElement* operator[](size_t i) const {
    return slots[i].element;
  }
};

}  // namespace

/// One level of the global recursion's scratch: the alignment buffers
/// and, for a DOM element, its content symbols as child pointers.
struct EvalScratch {
  struct Level {
    AlignScratch align;
    std::vector<const xml::Element*> dom_children;
  };

  /// The memo of the document being scored on this thread.
  TripleMemo memo;
  /// Heap-allocated so growing the ladder never moves a live level.
  std::vector<std::unique_ptr<Level>> levels;

  Level& At(size_t depth) {
    while (levels.size() <= depth) levels.push_back(std::make_unique<Level>());
    return *levels[depth];
  }
};

namespace {

thread_local EvalScratch t_eval_scratch;

/// `element`'s content symbols (`validate::ContentSymbolIds`) as child
/// pointers, null standing for a text run.
const std::vector<const xml::Element*>& SymbolChildren(
    const xml::Element& element,
    EvalScratch::Level& level) {
  std::vector<const xml::Element*>& out = level.dom_children;
  out.clear();
  bool last_was_text = false;
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      out.push_back(&child->AsElement());
      last_was_text = false;
    } else if (!IsBlank(static_cast<const xml::Text&>(*child).value())) {
      if (!last_was_text) out.push_back(nullptr);
      last_was_text = true;
    }
  }
  return out;
}
ArenaSymbolChildren SymbolChildren(const xml::ArenaElement& element,
                                   EvalScratch::Level&) {
  return {element.children, element.child_count};
}

}  // namespace

std::vector<const xml::Element*> AlignSymbolElements(
    const xml::Element& element, const std::vector<int32_t>& symbol_ids) {
  std::vector<const xml::Element*> out;
  out.reserve(symbol_ids.size());
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      out.push_back(&child->AsElement());
    }
  }
  // Interleave text-run placeholders to line up with the symbols.
  const int32_t pcdata = dtd::PcdataSymbolId();
  std::vector<const xml::Element*> aligned;
  aligned.reserve(symbol_ids.size());
  size_t next_element = 0;
  for (int32_t symbol : symbol_ids) {
    if (symbol == pcdata) {
      aligned.push_back(nullptr);
    } else if (next_element < out.size()) {
      aligned.push_back(out[next_element++]);
    } else {
      // Symbol sequence claims more elements than the node has children.
      // Never produced by ContentSymbolIds, but this is a public entry
      // point: pad with nullptr instead of indexing out of bounds, in
      // every build mode. The symmetric mismatch (fewer symbols than
      // children) is tolerated the same way — surplus children are left
      // unaligned.
      aligned.push_back(nullptr);
    }
  }
  return aligned;
}

SimilarityEvaluator::SimilarityEvaluator(const dtd::Dtd& dtd,
                                         SimilarityOptions options)
    : dtd_(&dtd),
      options_(options),
      epoch_(g_epoch_counter.fetch_add(1, std::memory_order_relaxed) + 1) {
  for (const std::string& name : dtd.ElementNames()) {
    const dtd::ElementDecl* decl = dtd.FindElement(name);
    if (decl->content) {
      automata_.emplace(util::InternSymbol(name),
                        dtd::Automaton::Build(*decl->content));
    }
  }
  root_name_id_ = util::InternSymbol(dtd.root_name());
  root_automaton_ = FindAutomaton(root_name_id_);
  root_any_ = root_automaton_ == nullptr || root_automaton_->is_any();
  if (!root_any_) {
    root_label_ids_ = root_automaton_->position_label_ids();
    std::sort(root_label_ids_.begin(), root_label_ids_.end());
    root_label_ids_.erase(
        std::unique(root_label_ids_.begin(), root_label_ids_.end()),
        root_label_ids_.end());
  }
}

double SimilarityEvaluator::TagScore(std::string_view a,
                                     std::string_view b) const {
  if (options_.thesaurus != nullptr) return options_.thesaurus->Score(a, b);
  return a == b ? 1.0 : 0.0;
}

double SimilarityEvaluator::TagScoreId(int32_t a_id, std::string_view a,
                                       int32_t b_id,
                                       std::string_view b) const {
  if (a_id >= 0 && b_id >= 0) {
    if (a_id == b_id) return 1.0;
    if (options_.thesaurus == nullptr) return 0.0;
    return options_.thesaurus->Score(a, b);
  }
  // Interning overflow: every overflow tag shares the kNoSymbol sentinel,
  // so a sentinel id is not discriminating — compare the strings.
  return TagScore(a, b);
}

const dtd::Automaton* SimilarityEvaluator::FindAutomaton(
    int32_t label_id) const {
  auto it = automata_.find(label_id);
  return it == automata_.end() ? nullptr : &it->second;
}

const dtd::Automaton* SimilarityEvaluator::FindAutomaton(
    const std::string& name) const {
  int32_t id = util::GlobalSymbols().Find(name);
  return id < 0 ? nullptr : FindAutomaton(id);
}

template <typename ElementT>
Triple SimilarityEvaluator::GlobalTripleCached(const ElementT& element,
                                               int32_t label_id,
                                               EvalContext& ctx,
                                               size_t depth) const {
  if (const Triple* found = ctx.memo->Find(&element, label_id)) {
    return *found;
  }

  // Probe the shared cross-document cache: identical subtree structure ⇒
  // identical triple, for any element anywhere in the stream.
  SubtreeScoreCache::Key cache_key;
  bool use_cache = false;
  SubtreeStats stats;
  if (ctx.cache != nullptr && StatsOf(element, ctx.fingerprints, &stats) &&
      stats.element_count >= kMinCachedSubtreeElements) {
    cache_key = {epoch_, stats.fp_hi, stats.fp_lo, label_id};
    use_cache = true;
    Triple cached;
    if (ctx.cache->Lookup(cache_key, &cached)) {
      ctx.memo->Insert(&element, label_id, cached);
      return cached;
    }
  }

  EvalScratch::Level& level = ctx.scratch->At(depth);
  const auto& children = SymbolChildren(element, level);
  const size_t n = children.size();
  const dtd::Automaton* automaton = FindAutomaton(label_id);
  Triple triple;
  if (automaton == nullptr || automaton->is_any()) {
    // ANY (or an undeclared reference): everything is common.
    triple.common = static_cast<double>(n);
    ctx.memo->Insert(&element, label_id, triple);
    if (use_cache) ctx.cache->Insert(cache_key, triple);
    return triple;
  }

  const int32_t pcdata = dtd::PcdataSymbolId();
  const double alpha = options_.tag_weight;
  // Credit of matching child i against a model position: tag similarity
  // times the child's own global evaluation, which the memo then holds
  // for the triple below.
  auto credit = [&](size_t i, int pos) -> double {
    int32_t pos_label_id = automaton->LabelIdOfPosition(pos);
    if (children[i] == nullptr) {  // text run
      return pos_label_id == pcdata ? 1.0 : -1.0;
    }
    if (pos_label_id == pcdata) return -1.0;
    double tag = TagScoreId(TagIdOf(*children[i]), TagOf(*children[i]),
                            pos_label_id, automaton->LabelOfPosition(pos));
    if (tag <= 0.0) return -1.0;
    Triple sub = GlobalTripleCached(*children[i], pos_label_id, ctx, depth + 1);
    return tag * (alpha + (1.0 - alpha) * Evaluate(sub, options_.weights));
  };

  const AlignmentScore aligned =
      AlignForScore(*automaton, n, credit, options_.match, level.align);

  for (size_t i = 0; i < n; ++i) {
    const ChildAssignment& a = level.align.assignments[i];
    if (a.kind == ChildAssignment::Kind::kPlus) {
      triple.plus += 1.0;
      continue;
    }
    if (children[i] == nullptr) {
      triple.common += 1.0;  // matched text
      continue;
    }
    const int32_t matched_id = automaton->LabelIdOfPosition(a.position);
    double tag = TagScoreId(TagIdOf(*children[i]), TagOf(*children[i]),
                            matched_id, automaton->LabelOfPosition(a.position));
    // A memo hit: the credit call of this match computed it.
    Triple sub = GlobalTripleCached(*children[i], matched_id, ctx, depth + 1);
    triple += MatchedChildContribution(sub, tag, alpha);
  }
  triple.minus += static_cast<double>(aligned.minus_count);

  ctx.memo->Insert(&element, label_id, triple);
  if (use_cache) ctx.cache->Insert(cache_key, triple);
  return triple;
}

Triple SimilarityEvaluator::GlobalTriple(const xml::Element& element,
                                         const std::string& decl_name) const {
  EvalContext ctx;
  ctx.memo = &memo_;
  ctx.scratch = &t_eval_scratch;
  return GlobalTripleCached(element, util::InternSymbol(decl_name), ctx, 0);
}

double SimilarityEvaluator::GlobalSimilarity(
    const xml::Element& element, const std::string& decl_name) const {
  return Evaluate(GlobalTriple(element, decl_name), options_.weights);
}

MatchResult SimilarityEvaluator::AlignLocal(
    const xml::Element& element, const std::string& decl_name) const {
  const dtd::Automaton* automaton = FindAutomaton(decl_name);
  std::vector<int32_t> symbol_ids = validate::ContentSymbolIds(element);
  if (automaton == nullptr) {
    // Undeclared: behave like ANY.
    MatchResult result;
    result.assignments.resize(symbol_ids.size());
    for (ChildAssignment& a : result.assignments) {
      a.kind = ChildAssignment::Kind::kMatched;
      a.credit = 1.0;
    }
    return result;
  }
  std::vector<const xml::Element*> children =
      AlignSymbolElements(element, symbol_ids);
  const int32_t pcdata = dtd::PcdataSymbolId();
  auto credit = [&](size_t i, int pos) -> double {
    int32_t pos_label_id = automaton->LabelIdOfPosition(pos);
    if (children[i] == nullptr) {
      return pos_label_id == pcdata ? 1.0 : -1.0;
    }
    if (pos_label_id == pcdata) return -1.0;
    double tag = TagScoreId(children[i]->tag_id(), children[i]->tag(),
                            pos_label_id, automaton->LabelOfPosition(pos));
    return tag > 0.0 ? tag : -1.0;
  };
  return AlignChildrenById(*automaton, symbol_ids.size(), credit,
                           options_.match);
}

Triple SimilarityEvaluator::LocalTriple(const xml::Element& element,
                                        const std::string& decl_name) const {
  const dtd::Automaton* automaton = FindAutomaton(decl_name);
  Triple triple;
  if (automaton == nullptr || automaton->is_any()) {
    triple.common = static_cast<double>(validate::ContentSymbolIds(element).size());
    return triple;
  }
  MatchResult aligned = AlignLocal(element, decl_name);
  for (const ChildAssignment& a : aligned.assignments) {
    if (a.kind == ChildAssignment::Kind::kPlus) {
      triple.plus += 1.0;
    } else {
      // Imperfect tag similarity leaves a residue split between plus and
      // minus, mirroring MatchedChildContribution at credit granularity.
      triple.common += a.credit;
      triple.plus += (1.0 - a.credit) / 2.0;
      triple.minus += (1.0 - a.credit) / 2.0;
    }
  }
  triple.minus += static_cast<double>(aligned.minus_labels.size());
  return triple;
}

double SimilarityEvaluator::LocalSimilarity(
    const xml::Element& element, const std::string& decl_name) const {
  return Evaluate(LocalTriple(element, decl_name), options_.weights);
}

double SimilarityEvaluator::RootTagScore(const xml::Element& root) const {
  return TagScoreId(root.tag_id(), root.tag(), root_name_id_,
                    dtd_->root_name());
}

double SimilarityEvaluator::RootTagScore(const xml::ArenaElement& root) const {
  return TagScoreId(root.tag_id, root.tag, root_name_id_, dtd_->root_name());
}

template <typename ElementT>
double SimilarityEvaluator::ScoreRoot(
    const ElementT& root, const SubtreeFingerprints* fingerprints) const {
  double tag = RootTagScore(root);
  if (tag <= 0.0) return 0.0;
  // The per-thread memo keeps this entry point safe for concurrent use
  // on a shared evaluator; it is scoped to one document anyway.
  EvalScratch& scratch = t_eval_scratch;
  scratch.memo.clear();
  EvalContext ctx;
  ctx.memo = &scratch.memo;
  ctx.scratch = &scratch;
  ctx.cache = cache_;
  ctx.fingerprints = fingerprints;
  Triple triple = GlobalTripleCached(root, root_name_id_, ctx, 0);
  return tag * Evaluate(triple, options_.weights);
}

double SimilarityEvaluator::DocumentSimilarity(
    const xml::Document& doc) const {
  return DocumentSimilarity(doc, nullptr);
}

double SimilarityEvaluator::DocumentSimilarity(
    const xml::Document& doc, const SubtreeFingerprints* fingerprints) const {
  if (!doc.has_root() || dtd_->empty()) return 0.0;
  std::optional<SubtreeFingerprints> local_fingerprints;
  if (cache_ != nullptr && fingerprints == nullptr &&
      RootTagScore(doc.root()) > 0.0) {
    local_fingerprints.emplace(doc.root());
    fingerprints = &*local_fingerprints;
  }
  return ScoreRoot(doc.root(), fingerprints);
}

double SimilarityEvaluator::DocumentSimilarity(
    const xml::ArenaDocument& doc) const {
  if (!doc.has_root() || dtd_->empty()) return 0.0;
  return ScoreRoot(doc.root(), nullptr);
}

double SimilarityEvaluator::ScoreUpperBound(
    const xml::Document& doc,
    const std::vector<int32_t>& root_symbol_ids) const {
  if (!doc.has_root() || dtd_->empty()) return 0.0;
  return BoundFromTag(RootTagScore(doc.root()), root_symbol_ids);
}

double SimilarityEvaluator::ScoreUpperBound(
    const xml::ArenaDocument& doc,
    const std::vector<int32_t>& root_symbol_ids) const {
  if (!doc.has_root() || dtd_->empty()) return 0.0;
  return BoundFromTag(RootTagScore(doc.root()), root_symbol_ids);
}

double SimilarityEvaluator::BoundFromTag(
    double tag, const std::vector<int32_t>& root_symbol_ids) const {
  if (tag <= 0.0) return 0.0;
  const EvalWeights& w = options_.weights;
  if (w.common_weight < 0.0 || w.plus_weight < 0.0 || w.minus_weight < 0.0) {
    // Degenerate weights break E ≤ 1; never prune under them.
    return 1.0;
  }
  // The vocabulary argument needs exact tag gating: a thesaurus can match
  // a tag outside the literal label vocabulary, and ANY matches anything.
  if (options_.thesaurus != nullptr || root_any_) return tag;
  size_t n = root_symbol_ids.size();
  if (n == 0) return tag;
  size_t unmatched = 0;
  for (int32_t id : root_symbol_ids) {
    if (!std::binary_search(root_label_ids_.begin(), root_label_ids_.end(),
                            id)) {
      ++unmatched;
    }
  }
  if (unmatched == 0) return tag;
  // Each of the `unmatched` symbols is forced plus mass (credit < 0
  // against every position), each other symbol contributes at most one
  // unit of common mass, and minus mass only lowers E further.
  double matched_mass =
      w.common_weight * static_cast<double>(n - unmatched);
  double denom = matched_mass + w.plus_weight * static_cast<double>(unmatched);
  if (denom <= 0.0) return tag;
  return tag * (matched_mass / denom);
}

std::vector<ElementReport> SimilarityEvaluator::EvaluateElements(
    const xml::Element& root) const {
  TripleMemo memo;  // call-local: analysis, not the scoring hot path
  EvalContext ctx;
  ctx.memo = &memo;
  ctx.scratch = &t_eval_scratch;
  ctx.cache = cache_;
  std::optional<SubtreeFingerprints> local_fingerprints;
  if (cache_ != nullptr) {
    local_fingerprints.emplace(root);
    ctx.fingerprints = &*local_fingerprints;
  }
  std::vector<ElementReport> reports;
  std::vector<const xml::Element*> stack = {&root};
  while (!stack.empty()) {
    const xml::Element* element = stack.back();
    stack.pop_back();
    ElementReport report;
    report.element = element;
    report.declared = dtd_->HasElement(element->tag());
    if (report.declared) {
      report.local_triple = LocalTriple(*element, element->tag());
      report.local_similarity = Evaluate(report.local_triple, options_.weights);
      report.global_triple =
          GlobalTripleCached(*element, element->tag_id(), ctx, 0);
      report.global_similarity =
          Evaluate(report.global_triple, options_.weights);
    }
    reports.push_back(report);
    size_t first_child = stack.size();
    for (const xml::Element& child : element->child_elements()) {
      stack.push_back(&child);
    }
    std::reverse(stack.begin() + first_child, stack.end());
  }
  return reports;
}

}  // namespace dtdevolve::similarity
