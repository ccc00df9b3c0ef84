#include "baseline/naive_infer.h"

#include <algorithm>
#include <map>

#include "baseline/collect.h"

namespace dtdevolve::baseline {

namespace {

using Ptr = dtd::ContentModel::Ptr;

struct LabelEvidence {
  uint64_t present = 0;   // instances containing the label
  uint64_t repeated = 0;  // instances containing it more than once
  double position_sum = 0.0;
  uint64_t occurrences = 0;

  double MeanPosition() const {
    return occurrences == 0 ? 0.5
                            : position_sum / static_cast<double>(occurrences);
  }
};

Ptr InferModelImpl(const TagContent& content) {
  // Per-label evidence over all recorded sequences.
  std::map<std::string, LabelEvidence> evidence;
  for (const auto& [sequence, count] : content.sequences) {
    std::map<std::string, uint64_t> counts;
    const double denom =
        sequence.size() > 1 ? static_cast<double>(sequence.size() - 1) : 1.0;
    for (size_t i = 0; i < sequence.size(); ++i) {
      ++counts[sequence[i]];
      LabelEvidence& e = evidence[sequence[i]];
      e.position_sum += count * (static_cast<double>(i) / denom);
      e.occurrences += count;
    }
    for (const auto& [label, n] : counts) {
      LabelEvidence& e = evidence[label];
      e.present += count;
      if (n > 1) e.repeated += count;
    }
  }

  if (evidence.empty()) {
    return content.text_instances > 0 ? dtd::ContentModel::Pcdata()
                                      : dtd::ContentModel::Empty();
  }

  if (content.text_instances > 0) {
    // Mixed content: the only DTD form admitting text plus elements.
    std::vector<Ptr> alternatives;
    alternatives.push_back(dtd::ContentModel::Pcdata());
    for (const auto& [label, e] : evidence) {
      alternatives.push_back(dtd::ContentModel::Name(label));
    }
    return dtd::ContentModel::Star(
        dtd::ContentModel::Choice(std::move(alternatives)));
  }

  std::vector<std::string> ordered;
  ordered.reserve(evidence.size());
  for (const auto& [label, e] : evidence) ordered.push_back(label);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const std::string& a, const std::string& b) {
                     return evidence[a].MeanPosition() <
                            evidence[b].MeanPosition();
                   });

  std::vector<Ptr> children;
  children.reserve(ordered.size());
  for (const std::string& label : ordered) {
    const LabelEvidence& e = evidence[label];
    bool always = e.present == content.instances;
    bool repeated = e.repeated > 0;
    Ptr leaf = dtd::ContentModel::Name(label);
    if (always && !repeated) {
      // plain name
    } else if (always) {
      leaf = dtd::ContentModel::Plus(std::move(leaf));
    } else if (!repeated) {
      leaf = dtd::ContentModel::Opt(std::move(leaf));
    } else {
      leaf = dtd::ContentModel::Star(std::move(leaf));
    }
    children.push_back(std::move(leaf));
  }
  if (children.size() == 1) return std::move(children.front());
  return dtd::ContentModel::Seq(std::move(children));
}

dtd::Dtd InferFromContent(const std::map<std::string, TagContent>& content,
                          const std::string& root_name) {
  dtd::Dtd dtd(root_name);
  // Root first so serialization leads with it.
  auto root_it = content.find(root_name);
  if (root_it != content.end()) {
    dtd.DeclareElement(root_name, InferModelImpl(root_it->second));
  }
  for (const auto& [tag, tag_content] : content) {
    if (tag == root_name) continue;
    dtd.DeclareElement(tag, InferModelImpl(tag_content));
  }
  return dtd;
}

}  // namespace

dtd::ContentModel::Ptr InferNaiveModel(const TagContent& content) {
  return InferModelImpl(content);
}

dtd::Dtd InferNaiveDtd(const std::vector<const xml::Element*>& roots,
                       const std::string& root_name) {
  return InferFromContent(CollectTagContent(roots), root_name);
}

dtd::Dtd InferNaiveDtd(const std::vector<const xml::ArenaElement*>& roots,
                       const std::string& root_name) {
  return InferFromContent(CollectTagContent(roots), root_name);
}

dtd::Dtd InferNaiveDtd(const std::vector<xml::Document>& docs,
                       const std::string& root_name) {
  return InferFromContent(CollectTagContent(docs), root_name);
}

}  // namespace dtdevolve::baseline
