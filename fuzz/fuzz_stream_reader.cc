// Fuzz target: the one-pass arena reader (a push scanner that builds the
// arena tree as it reads), differentially against the DOM parser. Shares
// the xml seed corpus with fuzz_xml_parser:
//
//   build-fuzz/fuzz/fuzz_stream_reader tests/corpus/xml --seconds 60
//
// The two parsers must agree on accept/reject for every input, and a
// rejection must carry the byte-identical error message, line number
// included. On accept the arena tree must convert to a structurally equal
// DOM, the DOCTYPE fields must match, the parse-time root fingerprint
// must be bit-identical to the after-the-fact DOM fingerprint index — the
// contract the classification memo's correctness rests on — and a
// built-in DTD with mixed content and repetition must score the arena
// tree bit-identically to its DOM conversion and to the DOM parse, with
// the score cache off and on. The score check traps if arena and DOM
// content symbols ever diverge, e.g. on text runs split by comments or
// CDATA sections, which the DOM parse keeps as separate text nodes.
// Every accepted document is also compacted the way the repository
// stores it: the compact copy must write the same bytes and carry the
// same root fingerprint as the parse, and the arena writer must write
// the bytes the DOM writer writes for the DOM parse.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "dtd/dtd_parser.h"
#include "similarity/score_cache.h"
#include "similarity/similarity.h"
#include "validate/validator.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace {

using dtdevolve::similarity::SimilarityEvaluator;
using dtdevolve::similarity::SubtreeScoreCache;

/// The scoring DTD: its root matches the corpus's `news` seed, whose
/// mutations keep that root and so reach the recursion.
const dtdevolve::dtd::Dtd& NewsDtd() {
  static const dtdevolve::dtd::Dtd* dtd = [] {
    auto parsed = dtdevolve::dtd::ParseDtd(R"(
      <!ELEMENT news (story+)>
      <!ELEMENT story (headline, body, summary?)>
      <!ELEMENT headline (#PCDATA)>
      <!ELEMENT body (#PCDATA | em | p)*>
      <!ELEMENT p (#PCDATA | em)*>
      <!ELEMENT em (#PCDATA)>
      <!ELEMENT summary (#PCDATA)>
    )");
    if (!parsed.ok()) __builtin_trap();
    return new dtdevolve::dtd::Dtd(std::move(*parsed));
  }();
  return *dtd;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Traps unless the evaluator scores and bounds both trees identically.
void CheckScores(const SimilarityEvaluator& evaluator,
                 const dtdevolve::xml::ArenaDocument& arena,
                 const dtdevolve::xml::Document& dom) {
  if (!SameBits(evaluator.DocumentSimilarity(arena),
                evaluator.DocumentSimilarity(dom))) {
    __builtin_trap();
  }
  if (!SameBits(
          evaluator.ScoreUpperBound(
              arena, dtdevolve::validate::ContentSymbolIds(arena.root())),
          evaluator.ScoreUpperBound(
              dom, dtdevolve::validate::ContentSymbolIds(dom.root())))) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  dtdevolve::StatusOr<dtdevolve::xml::Document> dom =
      dtdevolve::xml::ParseDocument(input);
  dtdevolve::StatusOr<dtdevolve::xml::ArenaDocument> arena =
      dtdevolve::xml::ParseArenaDocument(input);
  if (dom.ok() != arena.ok()) __builtin_trap();
  if (!dom.ok()) {
    if (dom.status().message() != arena.status().message()) __builtin_trap();
    return 0;
  }
  if (dom->has_root() != arena->has_root()) __builtin_trap();
  if (dom->doctype_name() != arena->doctype_name() ||
      dom->internal_subset() != arena->internal_subset()) {
    __builtin_trap();
  }
  dtdevolve::xml::Document converted = arena->ToDocument();
  if (dom->has_root() != converted.has_root()) __builtin_trap();
  if (!dom->has_root()) return 0;
  if (!dtdevolve::xml::StructurallyEqual(dom->root(), converted.root())) {
    __builtin_trap();
  }
  dtdevolve::similarity::SubtreeFingerprints fps(dom->root());
  const dtdevolve::similarity::SubtreeStats* stats = fps.Find(&dom->root());
  const dtdevolve::xml::ArenaElement& root = arena->root();
  if (stats == nullptr || stats->fp_hi != root.fp_hi ||
      stats->fp_lo != root.fp_lo ||
      stats->element_count != root.element_count) {
    __builtin_trap();
  }
  dtdevolve::xml::WriteOptions compact;
  compact.indent = false;
  const std::string written = dtdevolve::xml::WriteDocument(*arena, compact);
  if (written != dtdevolve::xml::WriteDocument(*dom, compact)) {
    __builtin_trap();
  }
  const dtdevolve::xml::ArenaDocument copy = arena->CompactCopy();
  if (dtdevolve::xml::WriteDocument(copy, compact) != written ||
      copy.root().fp_hi != root.fp_hi || copy.root().fp_lo != root.fp_lo ||
      copy.arena().bytes_reserved() != copy.arena().bytes_allocated()) {
    __builtin_trap();
  }
  // One evaluator and one small cache for the whole run: later inputs
  // read cache entries earlier ones wrote, through either tree.
  static SimilarityEvaluator* evaluator = new SimilarityEvaluator(NewsDtd());
  static SubtreeScoreCache* cache =
      new SubtreeScoreCache(SubtreeScoreCache::Config{1 << 20});
  for (SubtreeScoreCache* shared : {static_cast<SubtreeScoreCache*>(nullptr),
                                    cache}) {
    evaluator->set_shared_cache(shared);
    CheckScores(*evaluator, *arena, converted);
    CheckScores(*evaluator, *arena, *dom);
  }
  return 0;
}
