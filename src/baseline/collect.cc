#include "baseline/collect.h"

#include <utility>

namespace dtdevolve::baseline {

namespace {

bool HasText(const xml::Element& element) {
  return element.HasTextContent();
}
bool HasText(const xml::ArenaElement& element) { return element.has_text; }

template <typename ElementT>
void Walk(const ElementT& element, std::map<std::string, TagContent>& out) {
  TagContent& content = out[std::string(xml::TagOf(element))];
  ++content.instances;
  if (HasText(element)) ++content.text_instances;
  std::vector<std::string> sequence;
  for (const ElementT& child : element.child_elements()) {
    sequence.emplace_back(xml::TagOf(child));
  }
  ++content.sequences[std::move(sequence)];
  for (const ElementT& child : element.child_elements()) Walk(child, out);
}

template <typename ElementT>
std::map<std::string, TagContent> CollectFromRoots(
    const std::vector<const ElementT*>& roots) {
  std::map<std::string, TagContent> out;
  for (const ElementT* root : roots) {
    if (root != nullptr) Walk(*root, out);
  }
  return out;
}

}  // namespace

std::map<std::string, TagContent> CollectTagContent(
    const std::vector<const xml::Element*>& roots) {
  return CollectFromRoots(roots);
}

std::map<std::string, TagContent> CollectTagContent(
    const std::vector<const xml::ArenaElement*>& roots) {
  return CollectFromRoots(roots);
}

std::map<std::string, TagContent> CollectTagContent(
    const std::vector<xml::Document>& docs) {
  std::map<std::string, TagContent> out;
  for (const xml::Document& doc : docs) {
    if (doc.has_root()) Walk(doc.root(), out);
  }
  return out;
}

}  // namespace dtdevolve::baseline
