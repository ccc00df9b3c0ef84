#ifndef DTDEVOLVE_EVOLVE_RECORDER_H_
#define DTDEVOLVE_EVOLVE_RECORDER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "evolve/extended_dtd.h"
#include "obs/metrics.h"
#include "validate/validator.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::evolve {

/// The recording phase (§3): after a document is classified into a DTD,
/// extract its structural information into the extended DTD so the
/// evolution phase never has to re-read documents.
///
/// Per element instance e_d matched to declaration e (by tag):
///  * full local similarity ⇒ the valid-instance counters are bumped
///    (plus label occurrence stats, which the operator restriction uses);
///  * otherwise the non-valid counters, the labels of αβ(e_d), the
///    sequence (tag set), per-label repetition stats and the repetition
///    groups are recorded, and the subtrees of *plus* labels (labels not
///    in the declaration) are recorded recursively so a declaration can
///    later be extracted for them.
///
/// The recorder caches a Validator over the target DTD; build a fresh
/// Recorder after the DTD evolves.
class Recorder {
 public:
  explicit Recorder(ExtendedDtd& target);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Records a whole classified document (its divergence contribution
  /// included). Returns the document's non-valid-element fraction.
  double RecordDocument(const xml::Document& doc);

  /// Arena twin for the streaming parse path: records the identical
  /// statistics (tag sequences, text flags, attribute names, plus
  /// structures, divergence) without a DOM — text presence comes from
  /// the parse-time `has_text` flag instead of a child rescan.
  double RecordDocument(const xml::ArenaDocument& doc);

  /// Records an element subtree (no document-level divergence update).
  void RecordTree(const xml::Element& root);
  void RecordTree(const xml::ArenaElement& root);

  /// Optional instrumentation: `documents` bumps once per recorded
  /// document, `elements` by the element count of each. Either may be
  /// null; the pointees must outlive the recorder.
  void set_metrics(obs::Counter* documents, obs::Counter* elements) {
    documents_recorded_metric_ = documents;
    elements_recorded_metric_ = elements;
  }

 private:
  /// One traversal shared by the DOM and arena paths (instantiated in
  /// the .cc for `xml::Element` and `xml::ArenaElement`); small shape
  /// adapters bridge the representation differences. Marks each
  /// declared tag's stats once per document in `doc_valid_` /
  /// `doc_invalid_`.
  template <typename ElementT>
  void Walk(const ElementT& element, uint64_t& total, uint64_t& invalid);
  /// Recursively records a plus-element instance against an implicit
  /// empty declaration: every child is again a plus element.
  template <typename ElementT>
  void RecordPlusInstance(ElementStats& stats, const ElementT& element);
  /// Walks `root` and bumps each marked tag's per-document counters
  /// once; returns the element count and adds the non-valid ones to
  /// `*invalid`.
  template <typename ElementT>
  uint64_t RecordTreeImpl(const ElementT& root, uint64_t* invalid);
  template <typename ElementT>
  double RecordRootImpl(const ElementT& root);

  /// Sorted symbol set of a declaration's content model, computed once
  /// per declaration instead of once per invalid instance. Keyed by
  /// declaration address — safe because the recorder's documented
  /// lifetime ends when the target DTD changes.
  const std::vector<std::string>& DeclaredSymbolsOf(const dtd::ElementDecl& decl);

  /// The three per-element name resolutions (declaration, content
  /// automaton, stats slot), cached against the element's interned tag
  /// id. All three pointees are node-stable and live as long as the
  /// recorder (the stats map only grows; the validator's automata are
  /// fixed at construction). Dense ids above the cap and unresolved
  /// (`kNoSymbol`) tags take the uncached string path.
  struct TagLookup {
    bool resolved = false;
    const dtd::ElementDecl* decl = nullptr;
    const dtd::Automaton* automaton = nullptr;
    ElementStats* stats = nullptr;
    /// The last document (`doc_stamp_`) that marked this tag as having
    /// a valid / non-valid instance.
    uint64_t valid_stamp = 0;
    uint64_t invalid_stamp = 0;
  };
  static constexpr size_t kMaxDenseTagIds = 4096;
  TagLookup ResolveTag(std::string_view tag);

  /// Adds `stats` to `marked` unless this document already marked it:
  /// through the dense entry's stamp when there is one (`*stamp`), else
  /// by a scan of `marked` (tags outside the dense ids are rare, and a
  /// tag is always dense or never).
  void Mark(ElementStats* stats, uint64_t* stamp,
            std::vector<ElementStats*>& marked);

  ExtendedDtd* target_;
  std::unique_ptr<validate::Validator> validator_;
  std::vector<TagLookup> tag_lookup_;
  uint64_t doc_stamp_ = 0;
  /// The stats of the tags with a valid / non-valid instance in the
  /// document being recorded, each once: reused across documents, so
  /// recording allocates nothing once they have grown.
  std::vector<ElementStats*> doc_valid_;
  std::vector<ElementStats*> doc_invalid_;
  std::map<const void*, std::vector<std::string>> declared_symbols_;
  obs::Counter* documents_recorded_metric_ = nullptr;
  obs::Counter* elements_recorded_metric_ = nullptr;
};

}  // namespace dtdevolve::evolve

#endif  // DTDEVOLVE_EVOLVE_RECORDER_H_
