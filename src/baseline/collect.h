#ifndef DTDEVOLVE_BASELINE_COLLECT_H_
#define DTDEVOLVE_BASELINE_COLLECT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "xml/arena.h"
#include "xml/document.h"

namespace dtdevolve::baseline {

/// Everything a batch inferencer needs to know about one element tag,
/// gathered over a whole document set.
struct TagContent {
  /// Ordered child-tag sequences with multiplicities (order preserved —
  /// unlike the incremental recorder, batch inference re-reads documents).
  std::map<std::vector<std::string>, uint64_t> sequences;
  uint64_t instances = 0;
  uint64_t text_instances = 0;
};

/// Walks every element of every document and groups content by tag.
/// One walk serves both trees; an arena tree groups exactly what its
/// `ToDocument()` would.
std::map<std::string, TagContent> CollectTagContent(
    const std::vector<const xml::Element*>& roots);
std::map<std::string, TagContent> CollectTagContent(
    const std::vector<const xml::ArenaElement*>& roots);

/// Convenience overload over stored documents.
std::map<std::string, TagContent> CollectTagContent(
    const std::vector<xml::Document>& docs);

}  // namespace dtdevolve::baseline

#endif  // DTDEVOLVE_BASELINE_COLLECT_H_
