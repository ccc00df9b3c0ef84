#include "similarity/score_cache.h"

#include "util/string_util.h"
#include "xml/fingerprint.h"

namespace dtdevolve::similarity {

namespace {

// The fingerprint primitives live in xml/fingerprint.h so the streaming
// arena parser can absorb the identical sequence during its single pass.
inline uint64_t TagToken(const xml::Element& element) {
  return xml::FingerprintTagToken(element.tag_id(), element.tag());
}

}  // namespace

SubtreeFingerprints::SubtreeFingerprints(const xml::Element& root) {
  map_.reserve(root.SubtreeElementCount());
  Compute(root);
}

SubtreeStats SubtreeFingerprints::Compute(const xml::Element& element) {
  xml::FingerprintAccumulator acc(TagToken(element));
  for (const auto& child : element.children()) {
    if (child->is_element()) {
      SubtreeStats sub = Compute(child->AsElement());
      acc.AbsorbElement(sub.fp_hi, sub.fp_lo, sub.element_count);
    } else {
      const auto& text = static_cast<const xml::Text&>(*child);
      if (IsBlank(text.value())) continue;
      acc.AbsorbText();
    }
  }
  acc.Close();
  SubtreeStats stats{acc.hi, acc.lo, acc.element_count};
  map_.emplace(&element, stats);
  return stats;
}

}  // namespace dtdevolve::similarity
