#ifndef DTDEVOLVE_BASELINE_XTRACT_H_
#define DTDEVOLVE_BASELINE_XTRACT_H_

#include <string>
#include <vector>

#include "dtd/dtd.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::baseline {

struct XtractOptions {
  /// Relative weight of the model description length against the data
  /// encoding length in the MDL choice. Larger values favor smaller,
  /// more general models.
  double model_weight = 1.0;
};

/// A faithful *miniature* of XTRACT (Garofalakis et al., SIGMOD 2000 —
/// reference [3] of the paper): batch DTD inference that generalizes the
/// observed child sequences into candidate content models and picks one
/// by the Minimum Description Length principle ("concise *and* precise").
///
/// Per tag, three candidate classes are generated (simplified from
/// XTRACT's full generalization/factoring pipeline; see DESIGN.md):
///  * enumeration — an OR over the distinct run-collapsed sequences
///    (`a a b` → `(a+, b)`); precise but potentially large;
///  * star-of-choice — `(l1 | l2 | …)*`; maximally general and tiny;
///  * union sequence — the naive-inference model, kept only when it
///    accepts every observed sequence.
/// Each candidate's cost = model_weight · |model| · log₂|Σ| +
/// Σ (bits to encode each instance under the model); the cheapest wins
/// and is simplified by the re-writing rules.
///
/// Unlike the paper's approach, this baseline must re-read *all*
/// documents on every run — the incremental-cost experiment (E4)
/// contrasts exactly that.
dtd::Dtd InferXtractDtd(const std::vector<const xml::Element*>& roots,
                        const std::string& root_name,
                        const XtractOptions& options = {});
dtd::Dtd InferXtractDtd(const std::vector<const xml::ArenaElement*>& roots,
                        const std::string& root_name,
                        const XtractOptions& options = {});

/// Overload over stored documents.
dtd::Dtd InferXtractDtd(const std::vector<xml::Document>& docs,
                        const std::string& root_name,
                        const XtractOptions& options = {});

}  // namespace dtdevolve::baseline

#endif  // DTDEVOLVE_BASELINE_XTRACT_H_
