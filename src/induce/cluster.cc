#include "induce/cluster.h"

#include <algorithm>

#include "baseline/naive_infer.h"

namespace dtdevolve::induce {

RepositoryClusterer::RepositoryClusterer(ClusterOptions options)
    : options_(std::move(options)) {}

double RepositoryClusterer::GroupSimilarity(const Group& a,
                                            const Group& b) const {
  if (a.fp_hi == b.fp_hi && a.fp_lo == b.fp_lo) return 1.0;
  return 0.5 * (a.evaluator->DocumentSimilarity(b.exemplar) +
                b.evaluator->DocumentSimilarity(a.exemplar));
}

double RepositoryClusterer::ClusterSimilarity(const Group& g,
                                              size_t ci) const {
  double best = 0.0;
  size_t probes = 0;
  for (size_t gi : clusters_[ci]) {
    if (probes >= options_.max_probes_per_cluster) break;
    best = std::max(best, GroupSimilarity(g, *groups_[gi]));
    ++probes;
  }
  return best;
}

void RepositoryClusterer::Add(int id, const xml::ArenaDocument& doc) {
  Remove(id);
  if (!doc.has_root()) return;

  const std::pair<uint64_t, uint64_t> key{doc.root().fp_hi, doc.root().fp_lo};

  auto it = by_fingerprint_.find(key);
  if (it != by_fingerprint_.end()) {
    // Known structure: O(1) join, no similarity evaluation at all.
    groups_[it->second]->ids.insert(id);
    by_id_[id] = it->second;
    return;
  }

  auto group = std::make_unique<Group>();
  group->fp_hi = key.first;
  group->fp_lo = key.second;
  group->exemplar = doc.CompactCopy();
  group->dtd = std::make_unique<dtd::Dtd>(baseline::InferNaiveDtd(
      {&group->exemplar.root()}, std::string(group->exemplar.root().tag)));
  group->evaluator = std::make_unique<similarity::SimilarityEvaluator>(
      *group->dtd, options_.similarity);
  group->ids.insert(id);

  // Greedy agglomerative join: earliest cluster wins ties.
  size_t best_cluster = clusters_.size();
  double best = 0.0;
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    if (clusters_[ci].empty()) continue;
    double sim = ClusterSimilarity(*group, ci);
    if (sim > best) {
      best = sim;
      best_cluster = ci;
    }
  }
  if (best_cluster == clusters_.size() || best < options_.merge_threshold) {
    group->cluster = clusters_.size();
    clusters_.emplace_back();
    clusters_.back().push_back(groups_.size());
  } else {
    group->cluster = best_cluster;
    clusters_[best_cluster].push_back(groups_.size());
  }
  by_fingerprint_.emplace(key, groups_.size());
  by_id_[id] = groups_.size();
  groups_.push_back(std::move(group));
}

void RepositoryClusterer::Remove(int id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  groups_[it->second]->ids.erase(id);
  by_id_.erase(it);
}

size_t RepositoryClusterer::Consolidate() {
  size_t merges = 0;
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t ci = 0; ci < clusters_.size() && !merged; ++ci) {
      if (clusters_[ci].empty()) continue;
      for (size_t cj = ci + 1; cj < clusters_.size() && !merged; ++cj) {
        if (clusters_[cj].empty()) continue;
        double best = 0.0;
        size_t probes = 0;
        for (size_t gi : clusters_[ci]) {
          if (probes >= options_.max_probes_per_cluster) break;
          best = std::max(best, ClusterSimilarity(*groups_[gi], cj));
          ++probes;
        }
        if (best >= options_.merge_threshold) {
          for (size_t gj : clusters_[cj]) {
            groups_[gj]->cluster = ci;
            clusters_[ci].push_back(gj);
          }
          clusters_[cj].clear();
          merged = true;
          ++merges;
        }
      }
    }
  }
  return merges;
}

std::vector<Cluster> RepositoryClusterer::Clusters() const {
  std::vector<Cluster> out;
  for (const std::vector<size_t>& cluster : clusters_) {
    Cluster c;
    for (size_t gi : cluster) {
      const Group& group = *groups_[gi];
      if (group.ids.empty()) continue;
      if (c.exemplar < 0) c.exemplar = *group.ids.begin();
      ++c.distinct_structures;
      c.members.insert(c.members.end(), group.ids.begin(), group.ids.end());
    }
    if (c.members.size() < options_.min_cluster_size) continue;
    std::sort(c.members.begin(), c.members.end());
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Cluster& a, const Cluster& b) {
    return a.exemplar < b.exemplar;
  });
  return out;
}

ClusterStats RepositoryClusterer::GetStats() const {
  ClusterStats stats;
  for (const std::vector<size_t>& cluster : clusters_) {
    size_t members = 0;
    size_t structures = 0;
    for (size_t gi : cluster) {
      if (groups_[gi]->ids.empty()) continue;
      members += groups_[gi]->ids.size();
      ++structures;
    }
    if (members == 0) continue;
    ++stats.clusters;
    stats.largest_cluster = std::max(stats.largest_cluster, members);
    stats.documents += members;
    stats.distinct_structures += structures;
  }
  return stats;
}

}  // namespace dtdevolve::induce
