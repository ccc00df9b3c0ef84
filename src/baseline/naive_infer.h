#ifndef DTDEVOLVE_BASELINE_NAIVE_INFER_H_
#define DTDEVOLVE_BASELINE_NAIVE_INFER_H_

#include <string>
#include <vector>

#include "baseline/collect.h"
#include "dtd/dtd.h"
#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::baseline {

/// Union-based batch DTD inference without the OR operator — the class of
/// approaches the paper contrasts with in §5 (Moh–Lim–Ng's spanning-graph
/// re-engineering "does not generate the OR operator").
///
/// For every tag the declaration is a sequence over the union of observed
/// child tags, ordered by mean position, each wrapped per presence and
/// repetition evidence: always-once → `x`, always-repeated → `x+`,
/// sometimes-once → `x?`, otherwise → `x*`. Tags whose instances carry
/// character data get mixed content; childless tags get `(#PCDATA)` or
/// `EMPTY`.
dtd::Dtd InferNaiveDtd(const std::vector<const xml::Element*>& roots,
                       const std::string& root_name);
dtd::Dtd InferNaiveDtd(const std::vector<const xml::ArenaElement*>& roots,
                       const std::string& root_name);

/// Overload over stored documents.
dtd::Dtd InferNaiveDtd(const std::vector<xml::Document>& docs,
                       const std::string& root_name);

/// The per-tag model of the union-based inference, exposed so other
/// inferencers (XTRACT's candidate generator) can reuse it.
dtd::ContentModel::Ptr InferNaiveModel(const TagContent& content);

}  // namespace dtdevolve::baseline

#endif  // DTDEVOLVE_BASELINE_NAIVE_INFER_H_
