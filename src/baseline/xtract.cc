#include "baseline/xtract.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "baseline/collect.h"
#include "baseline/naive_infer.h"
#include "dtd/glushkov.h"
#include "dtd/rewrite.h"

namespace dtdevolve::baseline {

namespace {

using Ptr = dtd::ContentModel::Ptr;

/// Run-collapses a child sequence: `a a b` → [(a, 2), (b, 1)].
std::vector<std::pair<std::string, uint64_t>> CollapseRuns(
    const std::vector<std::string>& sequence) {
  std::vector<std::pair<std::string, uint64_t>> runs;
  for (const std::string& tag : sequence) {
    if (!runs.empty() && runs.back().first == tag) {
      ++runs.back().second;
    } else {
      runs.emplace_back(tag, 1);
    }
  }
  return runs;
}

Ptr SequenceToModel(const std::vector<std::string>& sequence) {
  std::vector<std::pair<std::string, uint64_t>> runs = CollapseRuns(sequence);
  if (runs.empty()) return dtd::ContentModel::Empty();
  std::vector<Ptr> parts;
  parts.reserve(runs.size());
  for (const auto& [tag, count] : runs) {
    Ptr leaf = dtd::ContentModel::Name(tag);
    if (count > 1) leaf = dtd::ContentModel::Plus(std::move(leaf));
    parts.push_back(std::move(leaf));
  }
  if (parts.size() == 1) return std::move(parts.front());
  return dtd::ContentModel::Seq(std::move(parts));
}

double Log2(double x) { return std::log2(x); }

struct Candidate {
  Ptr model;
  double data_bits = 0.0;
};

/// Candidate 1: enumeration of the distinct run-collapsed sequences.
Candidate EnumerationCandidate(const TagContent& content) {
  Candidate candidate;
  std::map<std::string, Ptr> branches;  // keyed by rendering, for dedup
  for (const auto& [sequence, count] : content.sequences) {
    Ptr model = SequenceToModel(sequence);
    branches.emplace(model->ToString(), std::move(model));
  }
  const double branch_bits =
      branches.size() > 1 ? Log2(static_cast<double>(branches.size())) : 0.0;
  for (const auto& [sequence, count] : content.sequences) {
    double bits = branch_bits;
    for (const auto& [tag, run] : CollapseRuns(sequence)) {
      if (run > 1) bits += Log2(static_cast<double>(run) + 1.0);
    }
    candidate.data_bits += bits * static_cast<double>(count);
  }
  std::vector<Ptr> alternatives;
  alternatives.reserve(branches.size());
  for (auto& [key, model] : branches) alternatives.push_back(std::move(model));
  candidate.model = alternatives.size() == 1
                        ? std::move(alternatives.front())
                        : dtd::ContentModel::Choice(std::move(alternatives));
  return candidate;
}

/// Candidate 2: (l1 | l2 | …)* — accepts everything over the alphabet.
Candidate StarOfChoiceCandidate(const TagContent& content,
                                const std::set<std::string>& alphabet) {
  Candidate candidate;
  const double symbol_bits = Log2(static_cast<double>(alphabet.size()) + 1.0);
  for (const auto& [sequence, count] : content.sequences) {
    candidate.data_bits += static_cast<double>(count) *
                           (static_cast<double>(sequence.size()) + 1.0) *
                           symbol_bits;
  }
  std::vector<Ptr> alternatives;
  for (const std::string& tag : alphabet) {
    alternatives.push_back(dtd::ContentModel::Name(tag));
  }
  Ptr inner = alternatives.size() == 1
                  ? std::move(alternatives.front())
                  : dtd::ContentModel::Choice(std::move(alternatives));
  candidate.model = dtd::ContentModel::Star(std::move(inner));
  return candidate;
}

/// Candidate 3: the union-sequence model, if it accepts every sequence.
Candidate UnionCandidate(const TagContent& content, bool& valid) {
  Candidate candidate;
  candidate.model = InferNaiveModel(content);
  dtd::Automaton automaton = dtd::Automaton::Build(*candidate.model);
  valid = true;
  for (const auto& [sequence, count] : content.sequences) {
    if (!automaton.Accepts(sequence)) {
      valid = false;
      return candidate;
    }
    // Encoding: one presence bit per optional label, a count per
    // repeatable label.
    double bits = 0.0;
    std::map<std::string, uint64_t> counts;
    for (const std::string& tag : sequence) ++counts[tag];
    for (const std::string& label : candidate.model->SymbolSet()) {
      uint64_t n = counts.count(label) ? counts[label] : 0;
      bits += 1.0;  // presence bit
      if (n > 1) bits += Log2(static_cast<double>(n) + 1.0);
    }
    candidate.data_bits += bits * static_cast<double>(count);
  }
  return candidate;
}

Ptr InferTagModel(const TagContent& content, const XtractOptions& options) {
  // Alphabet of observed child tags.
  std::set<std::string> alphabet;
  for (const auto& [sequence, count] : content.sequences) {
    alphabet.insert(sequence.begin(), sequence.end());
  }
  if (alphabet.empty()) {
    return content.text_instances > 0 ? dtd::ContentModel::Pcdata()
                                      : dtd::ContentModel::Empty();
  }
  if (content.text_instances > 0) {
    std::vector<Ptr> alternatives;
    alternatives.push_back(dtd::ContentModel::Pcdata());
    for (const std::string& tag : alphabet) {
      alternatives.push_back(dtd::ContentModel::Name(tag));
    }
    return dtd::ContentModel::Star(
        dtd::ContentModel::Choice(std::move(alternatives)));
  }

  const double symbol_bits = Log2(static_cast<double>(alphabet.size()) + 6.0);
  std::vector<Candidate> candidates;
  candidates.push_back(EnumerationCandidate(content));
  candidates.push_back(StarOfChoiceCandidate(content, alphabet));
  bool union_valid = false;
  Candidate union_candidate = UnionCandidate(content, union_valid);
  if (union_valid) candidates.push_back(std::move(union_candidate));

  double best_cost = std::numeric_limits<double>::infinity();
  size_t best = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double model_bits =
        static_cast<double>(candidates[i].model->NodeCount()) * symbol_bits;
    double cost = options.model_weight * model_bits + candidates[i].data_bits;
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return dtd::Simplify(std::move(candidates[best].model));
}

dtd::Dtd InferFromContent(const std::map<std::string, TagContent>& content,
                          const std::string& root_name,
                          const XtractOptions& options) {
  dtd::Dtd dtd(root_name);
  auto root_it = content.find(root_name);
  if (root_it != content.end()) {
    dtd.DeclareElement(root_name, InferTagModel(root_it->second, options));
  }
  for (const auto& [tag, tag_content] : content) {
    if (tag == root_name) continue;
    dtd.DeclareElement(tag, InferTagModel(tag_content, options));
  }
  return dtd;
}

}  // namespace

dtd::Dtd InferXtractDtd(const std::vector<const xml::Element*>& roots,
                        const std::string& root_name,
                        const XtractOptions& options) {
  return InferFromContent(CollectTagContent(roots), root_name, options);
}

dtd::Dtd InferXtractDtd(const std::vector<const xml::ArenaElement*>& roots,
                        const std::string& root_name,
                        const XtractOptions& options) {
  return InferFromContent(CollectTagContent(roots), root_name, options);
}

dtd::Dtd InferXtractDtd(const std::vector<xml::Document>& docs,
                        const std::string& root_name,
                        const XtractOptions& options) {
  return InferFromContent(CollectTagContent(docs), root_name, options);
}

}  // namespace dtdevolve::baseline
