#include "evolve/recorder.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace dtdevolve::evolve {

Recorder::Recorder(ExtendedDtd& target)
    : target_(&target),
      validator_(std::make_unique<validate::Validator>(target.dtd())) {}

const std::vector<std::string>& Recorder::DeclaredSymbolsOf(
    const dtd::ElementDecl& decl) {
  auto it = declared_symbols_.find(&decl);
  if (it == declared_symbols_.end()) {
    std::set<std::string> symbols = decl.content->SymbolSet();
    it = declared_symbols_
             .emplace(&decl,
                      std::vector<std::string>(symbols.begin(), symbols.end()))
             .first;
  }
  return it->second;
}

namespace {

/// Shape of one element instance — child-element tags in order plus
/// whether any non-blank text is present — gathered in a single pass
/// over the children (the DOM used to rescan once per signal) into a
/// reused scratch vector. The views point into the document being
/// recorded and are consumed before any recursion reuses the scratch.
thread_local std::vector<std::string_view> shape_scratch;
thread_local std::vector<std::string_view> attr_scratch;

bool FillShape(const xml::Element& element,
               std::vector<std::string_view>& tags) {
  bool has_text = false;
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      tags.emplace_back(child->AsElement().tag());
    } else if (!has_text &&
               !IsBlank(static_cast<const xml::Text&>(*child).value())) {
      has_text = true;
    }
  }
  return has_text;
}

bool FillShape(const xml::ArenaElement& element,
               std::vector<std::string_view>& tags) {
  for (const xml::ArenaElement& child : element.child_elements()) {
    tags.emplace_back(child.tag);
  }
  // Known at parse time: the streaming pass sets the flag as it flushes
  // non-blank text runs.
  return element.has_text;
}

using xml::TagIdOf;
using xml::TagOf;

void FillAttributeNames(const xml::Element& element,
                        std::vector<std::string_view>& names) {
  for (const xml::Attribute& attribute : element.attributes()) {
    names.emplace_back(attribute.name);
  }
}

void FillAttributeNames(const xml::ArenaElement& element,
                        std::vector<std::string_view>& names) {
  for (const xml::ArenaAttribute& attribute : element.attributes()) {
    names.emplace_back(attribute.name);
  }
}

/// Records one instance into `stats` via the scratch buffers; safe to
/// call at any recursion depth because the buffers are consumed before
/// the caller recurses.
template <typename ElementT>
bool RecordInstanceOf(const ElementT& element, ElementStats& stats,
                      bool locally_valid) {
  shape_scratch.clear();
  const bool has_text = FillShape(element, shape_scratch);
  stats.RecordInstance(shape_scratch.data(), shape_scratch.size(),
                       locally_valid, has_text);
  attr_scratch.clear();
  FillAttributeNames(element, attr_scratch);
  stats.RecordAttributes(attr_scratch.data(), attr_scratch.size());
  return has_text;
}

}  // namespace

template <typename ElementT>
void Recorder::RecordPlusInstance(ElementStats& stats,
                                  const ElementT& element) {
  RecordInstanceOf(element, stats, /*locally_valid=*/false);
  for (const auto& child : element.child_elements()) {
    RecordPlusInstance(stats.PlusStructureFor(TagOf(child)), child);
  }
}

Recorder::TagLookup Recorder::ResolveTag(std::string_view tag) {
  TagLookup lookup;
  lookup.resolved = true;
  lookup.decl = target_->dtd().FindElement(tag);
  if (lookup.decl != nullptr && lookup.decl->content != nullptr) {
    lookup.automaton = validator_->AutomatonFor(tag);
    lookup.stats = &target_->StatsFor(tag);
  }
  return lookup;
}

void Recorder::Mark(ElementStats* stats, uint64_t* stamp,
                    std::vector<ElementStats*>& marked) {
  if (stamp != nullptr) {
    if (*stamp == doc_stamp_) return;
    *stamp = doc_stamp_;
  } else if (std::find(marked.begin(), marked.end(), stats) != marked.end()) {
    return;
  }
  marked.push_back(stats);
}

template <typename ElementT>
void Recorder::Walk(const ElementT& element, uint64_t& total,
                    uint64_t& invalid) {
  ++total;
  const std::string_view tag = TagOf(element);
  // `lookup` may point into `tag_lookup_`, which a child's walk can
  // grow: it is not used past the recursion below.
  TagLookup sparse;
  TagLookup* lookup = &sparse;
  const int32_t tag_id = TagIdOf(element);
  if (tag_id >= 0 && static_cast<size_t>(tag_id) < kMaxDenseTagIds) {
    if (static_cast<size_t>(tag_id) >= tag_lookup_.size()) {
      tag_lookup_.resize(tag_id + 1);
    }
    lookup = &tag_lookup_[tag_id];
    if (!lookup->resolved) *lookup = ResolveTag(tag);
  } else {
    sparse = ResolveTag(tag);
  }
  const bool dense = lookup != &sparse;
  const dtd::ElementDecl* decl = lookup->decl;
  if (decl != nullptr && decl->content != nullptr) {
    bool valid = lookup->automaton != nullptr &&
                 validator_->ElementLocallyValid(element, *lookup->automaton);
    ElementStats& stats = *lookup->stats;
    RecordInstanceOf(element, stats, valid);
    if (valid) {
      Mark(&stats, dense ? &lookup->valid_stamp : nullptr, doc_valid_);
    } else {
      Mark(&stats, dense ? &lookup->invalid_stamp : nullptr, doc_invalid_);
      ++invalid;
      // Record the structure of plus labels (present in the instance,
      // absent from the declaration) for later extraction.
      const std::vector<std::string>& declared = DeclaredSymbolsOf(*decl);
      for (const auto& child : element.child_elements()) {
        const std::string_view child_tag = TagOf(child);
        if (!std::binary_search(declared.begin(), declared.end(), child_tag,
                                [](const auto& a, const auto& b) {
                                  return std::string_view(a) <
                                         std::string_view(b);
                                })) {
          RecordPlusInstance(stats.PlusStructureFor(child_tag), child);
        }
      }
    }
  } else {
    // Element with no declaration at all: non-valid by definition. Its
    // structure is captured as a plus element under its parent.
    ++invalid;
  }
  for (const auto& child : element.child_elements()) {
    Walk(child, total, invalid);
  }
}

template <typename ElementT>
uint64_t Recorder::RecordTreeImpl(const ElementT& root, uint64_t* invalid) {
  ++doc_stamp_;
  doc_valid_.clear();
  doc_invalid_.clear();
  uint64_t total = 0;
  Walk(root, total, *invalid);
  // The counters are per tag, so the order of the bumps is immaterial.
  for (ElementStats* stats : doc_valid_) stats->BumpDocsWithValid();
  for (ElementStats* stats : doc_invalid_) stats->BumpDocsWithInvalid();
  return total;
}

void Recorder::RecordTree(const xml::Element& root) {
  uint64_t invalid = 0;
  RecordTreeImpl(root, &invalid);
}

void Recorder::RecordTree(const xml::ArenaElement& root) {
  uint64_t invalid = 0;
  RecordTreeImpl(root, &invalid);
}

template <typename ElementT>
double Recorder::RecordRootImpl(const ElementT& root) {
  uint64_t invalid = 0;
  const uint64_t total = RecordTreeImpl(root, &invalid);
  target_->RecordDocumentDivergence(total, invalid);
  if (documents_recorded_metric_ != nullptr) {
    documents_recorded_metric_->Increment();
  }
  if (elements_recorded_metric_ != nullptr && total > 0) {
    elements_recorded_metric_->Increment(total);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(invalid) / static_cast<double>(total);
}

double Recorder::RecordDocument(const xml::Document& doc) {
  if (!doc.has_root()) return 0.0;
  return RecordRootImpl(doc.root());
}

double Recorder::RecordDocument(const xml::ArenaDocument& doc) {
  if (!doc.has_root()) return 0.0;
  return RecordRootImpl(doc.root());
}

}  // namespace dtdevolve::evolve
