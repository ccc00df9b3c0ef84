#include "induce/inducer.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "evolve/recorder.h"
#include "similarity/similarity.h"
#include "validate/validator.h"

namespace dtdevolve::induce {

namespace {

/// Most frequent root tag among the members; ties break toward the
/// lexicographically smallest (std::map iteration order).
std::string PickRootName(const std::vector<const xml::ArenaDocument*>& docs) {
  std::map<std::string, size_t> counts;
  for (const xml::ArenaDocument* doc : docs) {
    ++counts[std::string(doc->root().tag)];
  }
  std::string best;
  size_t best_count = 0;
  for (const auto& [tag, count] : counts) {
    if (count > best_count) {
      best = tag;
      best_count = count;
    }
  }
  return best;
}

std::string ProposeName(const std::string& root,
                        const std::set<std::string>& taken,
                        const std::string& prefix) {
  std::string base = prefix + root;
  if (taken.find(base) == taken.end()) return base;
  for (int n = 2;; ++n) {
    std::string name = base + "-" + std::to_string(n);
    if (taken.find(name) == taken.end()) return name;
  }
}

}  // namespace

std::vector<Candidate> InduceClusterCandidates(
    const std::vector<Cluster>& clusters,
    const classify::Repository& repository,
    const classify::Classifier* classifier,
    std::vector<std::string> taken_names, const InduceOptions& options) {
  std::set<std::string> taken(taken_names.begin(), taken_names.end());
  std::vector<Candidate> candidates;

  for (const Cluster& cluster : clusters) {
    std::vector<const xml::ArenaDocument*> docs;
    std::vector<const xml::ArenaElement*> roots;
    std::vector<int> doc_ids;
    docs.reserve(cluster.members.size());
    for (int id : cluster.members) {
      const xml::ArenaDocument& doc = repository.Get(id);
      if (!doc.has_root()) continue;
      docs.push_back(&doc);
      roots.push_back(&doc.root());
      doc_ids.push_back(id);
    }
    if (docs.empty()) continue;

    const std::string root_name = PickRootName(docs);
    dtd::Dtd skeleton =
        baseline::InferXtractDtd(roots, root_name, options.xtract);
    if (!skeleton.Check().ok()) continue;

    // Record every member against the skeleton; when the skeleton leaves
    // divergence, one round of the evolution machinery (mining + the 13
    // policies) rebuilds the deviating declarations.
    evolve::ExtendedDtd ext(std::move(skeleton));
    {
      evolve::Recorder recorder(ext);
      for (const xml::ArenaDocument* doc : docs) recorder.RecordDocument(*doc);
    }
    if (options.refine && ext.MeanDivergence() > 0.0) {
      evolve::EvolveDtd(ext, options.evolution);
      if (!ext.dtd().Check().ok()) continue;
    }
    ext.ResetStats();

    Candidate candidate;
    {
      validate::Validator validator(ext.dtd());
      for (size_t i = 0; i < docs.size(); ++i) {
        if (validator.Validate(*docs[i]).valid) {
          candidate.validated.push_back(doc_ids[i]);
        }
      }
    }
    candidate.coverage = static_cast<double>(candidate.validated.size()) /
                         static_cast<double>(docs.size());
    if (candidate.coverage < options.min_coverage ||
        candidate.validated.empty()) {
      continue;
    }

    similarity::SimilarityEvaluator evaluator(ext.dtd(),
                                              options.cluster.similarity);
    double margin_sum = 0.0;
    for (const xml::ArenaDocument* doc : docs) {
      double own = evaluator.DocumentSimilarity(*doc);
      double existing = 0.0;
      if (classifier != nullptr && classifier->size() > 0) {
        existing = classifier->ClassifyArena(*doc, nullptr).similarity;
      }
      margin_sum += own - existing;
    }
    candidate.margin = margin_sum / static_cast<double>(docs.size());

    candidate.name = ProposeName(root_name, taken, options.name_prefix);
    taken.insert(candidate.name);
    candidate.members = cluster.members;
    candidate.ext = std::move(ext);
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

}  // namespace dtdevolve::induce
